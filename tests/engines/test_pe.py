"""Unit tests for PE rules and stream stencils."""

import numpy as np
import pytest

from repro.engines.pe import StreamStencil, make_rule
from repro.lgca.fhp import FHPModel
from repro.lgca.hpp import HPPModel


class TestStreamStencil:
    def _hex(self, rows=6, cols=8):
        from repro.lgca.fhp import FHP_STENCIL

        return StreamStencil(
            rows=rows,
            cols=cols,
            row_offsets=FHP_STENCIL.row_offsets,
            col_offsets_even=FHP_STENCIL.col_offsets_even,
            col_offsets_odd=FHP_STENCIL.col_offsets_odd,
        )

    def test_window_reach_is_cols_plus_one(self):
        st = self._hex(6, 8)
        assert st.window_reach() == 9
        assert st.window_sites() == 2 * 9 + 1  # the paper's 2L + 3

    def test_source_index_interior(self):
        st = self._hex()
        # channel 0 (+x): source is the site to the left
        assert st.source_index(2, 3, 0) == (2, 2)
        # channel 3 (-x): source to the right
        assert st.source_index(2, 3, 3) == (2, 4)

    def test_source_index_parity(self):
        st = self._hex()
        # channel 1 from even source row vs odd source row
        # destination (3, 3): source row 4 (even), dc_even[1] = 0
        assert st.source_index(3, 3, 1) == (4, 3)
        # destination (2, 3): source row 3 (odd), dc_odd[1] = 1
        assert st.source_index(2, 3, 1) == (3, 2)

    def test_source_index_boundary_none(self):
        st = self._hex()
        assert st.source_index(0, 0, 0) is None  # left edge, +x source off-grid

    def test_validates_offsets(self):
        with pytest.raises(ValueError, match="equal length"):
            StreamStencil(2, 2, (0,), (1, 2), (1,))


class TestMakeRule:
    def test_fhp_rule_metadata(self):
        m = FHPModel(6, 8, boundary="null")
        rule = make_rule(m)
        assert rule.num_channels == 6
        assert rule.stencil.self_channels == ()

    def test_fhp7_rest_channel(self):
        m = FHPModel(6, 8, boundary="null", rest_particles=True)
        rule = make_rule(m)
        assert rule.stencil.self_channels == (6,)

    def test_hpp_rule(self):
        m = HPPModel(4, 4, boundary="null")
        rule = make_rule(m)
        assert rule.stencil.window_reach() == 4

    def test_rejects_periodic_model(self):
        with pytest.raises(ValueError, match="null"):
            make_rule(FHPModel(4, 4))

    def test_rejects_random_chirality(self):
        with pytest.raises(ValueError, match="deterministic"):
            make_rule(FHPModel(4, 4, boundary="null", chirality="random"))

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError):
            make_rule(object())

    def test_collide_matches_model(self):
        m = FHPModel(6, 8, boundary="null", chirality="alternate")
        rule = make_rule(m)
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 64, size=(6, 8)).astype(np.uint8)
        r = np.repeat(np.arange(6), 8)
        c = np.tile(np.arange(8), 6)
        got = rule.collide(frame.ravel(), r, c, 5)
        expected = m.collide(frame, 5)
        assert np.array_equal(np.asarray(got).reshape(6, 8), expected)

    def test_collide_into_out_follows_writable_coordinates(self):
        """Only read-only coordinates may have their chirality cached."""
        rule = make_rule(FHPModel(4, 4, boundary="null"))
        states = np.full(2, 0b001001, dtype=np.uint8)  # head-on pair
        r = np.zeros(2, dtype=np.int64)
        c = np.array([0, 1])
        out = np.empty(2, dtype=np.uint8)
        first = rule.collide(states, r, c, 0, out=out).copy()
        assert first[0] != first[1]  # the two chiralities differ
        c[:] = [1, 0]
        assert rule.collide(states, r, c, 0, out=out).tolist() == first[::-1].tolist()

    def test_hpp_collide_ignores_time(self):
        m = HPPModel(4, 4, boundary="null")
        rule = make_rule(m)
        frame = np.array([0b0101, 0b1010, 3, 0], dtype=np.uint8)
        r = c = np.zeros(4, dtype=int)
        a = rule.collide(frame, r, c, 0)
        b = rule.collide(frame, r, c, 99)
        assert np.array_equal(a, b)
