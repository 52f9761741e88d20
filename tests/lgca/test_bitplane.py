"""Unit tests for the multi-spin coded (bit-plane) kernels."""

import dataclasses

import numpy as np
import pytest

from repro.lgca.automaton import ObstacleMap
from repro.lgca.bitplane import (
    BLOCK_BYTES,
    WORD_BITS,
    BitplaneKernel,
    FlipTerm,
    flip_terms,
    num_words,
    pack_plane,
    pack_state,
    split_chirality_terms,
    unpack_plane,
    unpack_state,
    verify_plane_logic,
)
from repro.lgca.bits import bounce_back_table
from repro.lgca.collision import CollisionTable
from repro.lgca.fhp import (
    FHPModel,
    fhp6_collision_tables,
    fhp7_collision_tables,
    fhp_saturated_tables,
)
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel, hpp_collision_table

# Column counts probing word boundaries: below one word, exactly one
# word, one bit over, mid-word tails, exact multiples.
EDGE_COLS = [1, 5, 63, 64, 65, 100, 128, 130]


def random_bits(rows, cols, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(rows, cols)).astype(np.uint8)


class TestPackUnpack:
    def test_num_words(self):
        assert num_words(1) == 1
        assert num_words(64) == 1
        assert num_words(65) == 2
        assert num_words(128) == 2
        assert num_words(129) == 3
        with pytest.raises(ValueError):
            num_words(0)

    @pytest.mark.parametrize("cols", EDGE_COLS)
    def test_plane_roundtrip(self, cols):
        bits = random_bits(7, cols)
        words = pack_plane(bits)
        assert words.shape == (7, num_words(cols))
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_plane(words, cols), bits)

    @pytest.mark.parametrize("cols", EDGE_COLS)
    def test_tail_padding_is_zero(self, cols):
        words = pack_plane(np.ones((3, cols), dtype=np.uint8))
        rem = cols % WORD_BITS
        if rem:
            tail = int(words[0, -1])
            assert tail == (1 << rem) - 1  # high bits clear

    def test_bit_layout(self):
        # bit j of word w is column 64*w + j
        bits = np.zeros((1, 130), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 63] = 1
        bits[0, 64] = 1
        bits[0, 129] = 1
        words = pack_plane(bits)
        assert int(words[0, 0]) == 1 | (1 << 63)
        assert int(words[0, 1]) == 1
        assert int(words[0, 2]) == 1 << 1

    @pytest.mark.parametrize("cols", EDGE_COLS)
    @pytest.mark.parametrize("channels", [4, 6, 7])
    def test_state_roundtrip(self, cols, channels):
        rng = np.random.default_rng(cols * 31 + channels)
        state = rng.integers(0, 1 << channels, size=(9, cols)).astype(np.uint8)
        planes = pack_state(state, channels)
        assert planes.shape == (channels, 9, num_words(cols))
        assert np.array_equal(unpack_state(planes, cols), state)

    def test_unpack_state_out_parameter(self):
        state = np.arange(16, dtype=np.uint8).reshape(2, 8)
        planes = pack_state(state, 4)
        out = np.empty((2, 8), dtype=np.uint8)
        result = unpack_state(planes, 8, out=out)
        assert result is out
        assert np.array_equal(out, state)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pack_plane(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_plane(np.zeros((2, 2), dtype=np.uint64), 300)


class TestFlipTerms:
    def test_hpp_terms(self):
        terms = flip_terms(hpp_collision_table())
        # exactly the two head-on states change
        assert {t.state for t in terms} == {0b0101, 0b1010}
        for t in terms:
            assert t.flips == 0b1111
            assert t.flip_channels == (0, 1, 2, 3)
            assert len(t.pos) == 2 and len(t.neg) == 2

    def test_every_term_has_a_positive_literal(self):
        for table in (
            hpp_collision_table(),
            *fhp6_collision_tables(),
            *fhp7_collision_tables(),
            *fhp_saturated_tables(),
        ):
            for term in flip_terms(table):
                assert term.pos, f"{table.name} state {term.state:#x}"

    @pytest.mark.parametrize(
        "table",
        [
            hpp_collision_table(),
            *fhp6_collision_tables(),
            *fhp7_collision_tables(),
            *fhp_saturated_tables(),
        ],
        ids=lambda t: t.name,
    )
    def test_compiled_logic_matches_table(self, table):
        verify_plane_logic(table, flip_terms(table))

    def test_verify_rejects_wrong_terms(self):
        table = hpp_collision_table()
        terms = flip_terms(table)
        broken = (FlipTerm(state=terms[0].state, flips=0b0001, pos=terms[0].pos,
                           neg=terms[0].neg, flip_channels=(0,)),) + terms[1:]
        with pytest.raises(ValueError, match="diverges"):
            verify_plane_logic(table, broken)

    def test_chirality_split_covers_both_tables(self):
        left, right = fhp6_collision_tables()
        common, only_left, only_right = split_chirality_terms(left, right)
        # triads are chirality-independent, head-on pairs are not
        assert {t.state for t in common} == {0b010101, 0b101010}
        # three distinct head-on states: {0,3}, {1,4}, {2,5}
        assert {t.state for t in only_left} == {0b001001, 0b010010, 0b100100}
        assert len(only_left) == len(only_right) == 3
        verify_plane_logic(left, common + only_left)
        verify_plane_logic(right, common + only_right)

    def test_chirality_split_channel_mismatch(self):
        left, _ = fhp6_collision_tables()
        _, right7 = fhp7_collision_tables()
        with pytest.raises(ValueError):
            split_chirality_terms(left, right7)


FHP_VARIANTS = {
    "fhp6": {},
    "fhp7": {"rest_particles": True},
    "fhp-sat": {"rest_particles": True, "saturated": True},
}


def _fhp(rows, cols, variant, **kwargs):
    return FHPModel(rows, cols, **FHP_VARIANTS[variant], **kwargs)


class TestCollisionNetwork:
    @pytest.mark.parametrize("chirality", ["left", "right", "alternate", "random"])
    @pytest.mark.parametrize("variant", sorted(FHP_VARIANTS))
    def test_fhp_network_is_exhaustively_exact(self, variant, chirality):
        model = _fhp(2, 64, variant, chirality=chirality)
        left, right = model.collision_tables
        if chirality in ("left", "right"):
            left = right = left if chirality == "left" else right
        verify_plane_logic(left, BitplaneKernel(model).network, right)

    def test_hpp_network_is_exhaustively_exact(self):
        table = hpp_collision_table()
        verify_plane_logic(table, BitplaneKernel(HPPModel(2, 64)).network)

    @pytest.mark.parametrize("variant", ["fhp6", "fhp7"])
    def test_every_corrupted_op_is_rejected(self, variant):
        swap = {np.bitwise_and: np.bitwise_or, np.bitwise_or: np.bitwise_and,
                np.bitwise_xor: np.bitwise_and}
        model = _fhp(2, 64, variant)
        left, right = model.collision_tables
        network = BitplaneKernel(model).network
        for i, (fn, a, b, dst) in enumerate(network.ops):
            if fn is np.bitwise_not:
                corrupt = (fn, (a + 1) % network.num_channels, b, dst)
            else:
                corrupt = (swap[fn], a, b, dst)
            ops = network.ops[:i] + (corrupt,) + network.ops[i + 1:]
            with pytest.raises(ValueError, match="diverges"):
                verify_plane_logic(left, dataclasses.replace(network, ops=ops), right)

    @pytest.mark.parametrize(
        "model, bound",
        [
            (HPPModel(2, 64), 15),
            (_fhp(2, 64, "fhp6"), 56),
            (_fhp(2, 64, "fhp7"), 123),
            (_fhp(2, 64, "fhp-sat"), 353),
        ],
        ids=["hpp", "fhp6", "fhp7", "fhp-sat"],
    )
    def test_collide_ops_pinned(self, model, bound):
        kernel = BitplaneKernel(model)
        assert kernel.collide_ops == len(kernel.network.ops) <= bound

    def test_obstacles_add_the_bounce_ops(self):
        model = _fhp(4, 64, "fhp7")
        mask = np.zeros((4, 64), dtype=bool)
        mask[1, 3] = True
        plain = BitplaneKernel(model).collide_ops
        assert BitplaneKernel(model, obstacles=mask).collide_ops == plain + 3 * 7


def _block_rows(cols):
    return BLOCK_BYTES // (8 * num_words(cols))


class TestRowBlocks:
    """``collide_into`` against ``model.collide`` across row-block edges."""

    COLS = 2048

    @pytest.fixture(params=["block+2", "1028", "1"])
    def rows(self, request):
        return {"block+2": _block_rows(self.COLS) + 2, "1028": 1028, "1": 1}[request.param]

    @staticmethod
    def _model(rows, cols, variant="fhp7", **kwargs):
        boundary = "periodic" if rows % 2 == 0 else "null"
        return _fhp(rows, cols, variant, boundary=boundary, **kwargs)

    def test_block_height_from_plane_width(self):
        assert _block_rows(2048) == 256

    @pytest.mark.parametrize("variant", ["fhp6", "fhp7"])
    def test_alternate(self, rows, variant):
        model = self._model(rows, self.COLS, variant)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(rows, self.COLS, model.num_channels, 0.4,
                                     np.random.default_rng(rows))
        planes, out = kernel.pack(state), kernel.alloc_planes()
        for t in (0, 1):
            kernel.collide_into(planes, out, t)
            assert np.array_equal(kernel.unpack(out), model.collide(state, t))

    def test_obstacles(self, rows):
        model = self._model(rows, self.COLS)
        rng = np.random.default_rng(rows + 1)
        mask = rng.random((rows, self.COLS)) < 0.1
        kernel = BitplaneKernel(model, obstacles=ObstacleMap(mask))
        state = uniform_random_state(rows, self.COLS, 7, 0.4, rng)
        planes, out = kernel.pack(state), kernel.alloc_planes()
        kernel.collide_into(planes, out, 1)
        expected = model.collide(state, 1)
        bounced = bounce_back_table(7)[state]
        expected[mask] = bounced[mask]
        assert np.array_equal(kernel.unpack(out), expected)

    def test_random_chirality(self, rows):
        model = self._model(rows, self.COLS, chirality="random")
        kernel = BitplaneKernel(model)
        state = uniform_random_state(rows, self.COLS, 7, 0.4, np.random.default_rng(rows))
        planes, out = kernel.pack(state), kernel.alloc_planes()
        kernel_rng = np.random.default_rng(rows + 2)
        model_rng = np.random.default_rng(rows + 2)
        for t in (0, 1):
            kernel.collide_into(planes, out, t, kernel_rng)
            expected = model.collide(state, t, model_rng)
            assert np.array_equal(kernel.unpack(out), expected)


class TestKernel:
    @pytest.mark.parametrize("boundary", ["periodic", "null", "reflecting"])
    @pytest.mark.parametrize("cols", [30, 63, 64, 65, 130])
    def test_hpp_propagate_matches_reference(self, boundary, cols):
        model = HPPModel(12, cols, boundary=boundary)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(12, cols, 4, 0.4, np.random.default_rng(3))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.propagate_into(planes, out)
        assert np.array_equal(kernel.unpack(out), model.propagate(state))

    @pytest.mark.parametrize("boundary", ["periodic", "null", "reflecting"])
    @pytest.mark.parametrize("cols", [30, 64, 65, 100])
    def test_fhp_propagate_matches_reference(self, boundary, cols):
        model = FHPModel(12, cols, boundary=boundary, rest_particles=True)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(12, cols, 7, 0.4, np.random.default_rng(4))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.propagate_into(planes, out)
        assert np.array_equal(kernel.unpack(out), model.propagate(state))

    def test_hpp_collide_matches_reference(self):
        model = HPPModel(10, 70)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(10, 70, 4, 0.5, np.random.default_rng(5))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.collide_into(planes, out)
        assert np.array_equal(kernel.unpack(out), model.collide(state))

    @pytest.mark.parametrize("chirality", ["alternate", "left", "right"])
    def test_fhp_collide_matches_reference(self, chirality):
        model = FHPModel(10, 70, chirality=chirality)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(10, 70, 6, 0.5, np.random.default_rng(6))
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        for t in (0, 1, 2):
            kernel.collide_into(planes, out, t=t)
            assert np.array_equal(kernel.unpack(out), model.collide(state, t))

    def test_obstacle_bounce_back(self):
        from repro.lgca.automaton import ObstacleMap

        mask = np.zeros((8, 70), dtype=bool)
        mask[3, 40] = True
        model = HPPModel(8, 70)
        kernel = BitplaneKernel(model, obstacles=ObstacleMap(mask))
        state = np.zeros((8, 70), dtype=np.uint8)
        state[3, 40] = 0b0001  # +x particle sitting on the solid site
        planes = kernel.pack(state)
        out = kernel.alloc_planes()
        kernel.collide_into(planes, out)
        collided = kernel.unpack(out)
        assert collided[3, 40] == 0b0100  # reversed, not scattered

    def test_rejects_unknown_model(self):
        class NotAModel:
            pass

        with pytest.raises(TypeError):
            BitplaneKernel(NotAModel())

    def test_obstacle_shape_mismatch(self):
        model = HPPModel(8, 8)
        with pytest.raises(ValueError):
            BitplaneKernel(model, obstacles=np.ones((4, 4), dtype=bool))

    def test_step_into_is_allocation_free(self):
        """Steady-state stepping must not allocate new arrays."""
        import tracemalloc

        model = FHPModel(32, 100)
        kernel = BitplaneKernel(model)
        state = uniform_random_state(32, 100, 6, 0.3, np.random.default_rng(7))
        a = kernel.pack(state)
        b = kernel.alloc_planes()
        kernel.step_into(a, b, 0)
        kernel.step_into(b, a, 1)
        tracemalloc.start()
        for t in range(6):
            kernel.step_into(a, b, t)
            a, b = b, a
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # numpy scalar boxes etc. are tolerated; array-sized blocks are not
        assert peak < 16_000, f"stepping allocated {peak} bytes"
