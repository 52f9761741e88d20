"""Unit + property tests for the d-dimensional lattice gas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.bits import popcount
from repro.lgca.collision import CollisionTable, ConservationError
from repro.lgca.ndim import NDHPPModel, ndhpp_collision_table, ndhpp_velocities
from repro.lgca.observables import channel_counts, momentum_field, total_momentum


def total_momentum_nd(state, velocities, num_channels):
    occupancy = np.stack(
        [((state >> ch) & 1).astype(np.float64) for ch in range(num_channels)]
    )
    return np.tensordot(
        occupancy, velocities, axes=([0], [0])
    ).reshape(-1, velocities.shape[1]).sum(axis=0)


class TestVelocities:
    def test_shape_and_pairs(self):
        v = ndhpp_velocities(3)
        assert v.shape == (6, 3)
        for axis in range(3):
            assert np.array_equal(v[2 * axis], -v[2 * axis + 1])

    def test_unit_norm(self):
        v = ndhpp_velocities(4)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0)

    def test_d2_matches_axes(self):
        v = ndhpp_velocities(2)
        assert np.array_equal(v[0], [1, 0])
        assert np.array_equal(v[3], [0, -1])


class TestCollisionTable:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_constructs_and_conserves(self, d):
        ndhpp_collision_table(d)  # raises on violation

    def test_d1_is_identity(self):
        t = ndhpp_collision_table(1)
        assert t.is_identity()

    def test_pair_cycles_axes(self):
        t = ndhpp_collision_table(3)
        pair_x = 0b000011
        pair_y = 0b001100
        pair_z = 0b110000
        assert t(pair_x) == pair_y
        assert t(pair_y) == pair_z
        assert t(pair_z) == pair_x

    def test_non_pair_states_fixed(self):
        t = ndhpp_collision_table(3)
        for s in (0b000001, 0b000111, 0b001111, 0b101010):
            assert t(s) == s

    def test_table_is_permutation(self):
        t = ndhpp_collision_table(3)
        assert sorted(t.table.tolist()) == list(range(64))

    def test_rejects_huge_dimension(self):
        with pytest.raises(ValueError):
            ndhpp_collision_table(9)


class TestNDHPPModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NDHPPModel(())
        with pytest.raises(ValueError):
            NDHPPModel((4, 4), boundary="weird")
        with pytest.raises(ValueError):
            NDHPPModel((2,) * 9)

    def test_metadata_3d(self):
        m = NDHPPModel((4, 5, 6))
        assert m.d == 3
        assert m.num_channels == 6
        assert m.num_sites == 120
        assert m.velocities.shape == (6, 3)

    def test_single_particle_moves_3d(self):
        m = NDHPPModel((5, 5, 5))
        s = np.zeros((5, 5, 5), dtype=np.uint8)
        s[2, 2, 2] = 1 << 0  # +axis0
        out = m.propagate(s)
        assert out[3, 2, 2] == 1 << 0
        s[2, 2, 2] = 0
        s[2, 2, 2] = 1 << 3  # -axis1
        out = m.propagate(s)
        assert out[3, 1, 2] == 1 << 3 or out[2, 1, 2] == 1 << 3
        # precise: -axis1 moves index along axis 1 by -1
        s2 = np.zeros((5, 5, 5), dtype=np.uint8)
        s2[2, 2, 2] = 1 << 3
        out2 = m.propagate(s2)
        assert out2[2, 1, 2] == 1 << 3

    def test_periodic_wrap_3d(self):
        m = NDHPPModel((3, 3, 3))
        s = np.zeros((3, 3, 3), dtype=np.uint8)
        s[2, 0, 0] = 1 << 0
        out = m.propagate(s)
        assert out[0, 0, 0] == 1 << 0

    def test_null_boundary_drops(self):
        m = NDHPPModel((3, 3), boundary="null")
        s = np.zeros((3, 3), dtype=np.uint8)
        s[2, 1] = 1 << 0
        assert m.propagate(s).sum() == 0

    def test_reflecting_reverses(self):
        m = NDHPPModel((3, 3, 3), boundary="reflecting")
        s = np.zeros((3, 3, 3), dtype=np.uint8)
        s[2, 1, 1] = 1 << 0  # +axis0 at the wall
        out = m.propagate(s)
        assert out[2, 1, 1] == 1 << 1  # reversed in place

    def test_head_on_collision_scatters(self):
        m = NDHPPModel((5, 5, 5))
        s = np.zeros((5, 5, 5), dtype=np.uint8)
        s[2, 2, 2] = 0b000011  # +x and -x
        out = m.collide(s)
        assert out[2, 2, 2] == 0b001100  # becomes ±y pair

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=15)
    def test_conservation_periodic(self, seed, d):
        rng = np.random.default_rng(seed)
        shape = (4,) * d
        m = NDHPPModel(shape)
        s = rng.integers(0, 1 << (2 * d), size=shape).astype(np.uint8)
        mass0 = int(popcount(s, 2 * d).sum())
        p0 = total_momentum_nd(s, m.velocities, 2 * d)
        for t in range(4):
            s = m.step(s, t)
        assert int(popcount(s, 2 * d).sum()) == mass0
        assert np.allclose(total_momentum_nd(s, m.velocities, 2 * d), p0)

    def test_reflecting_conserves_mass_3d(self, rng):
        m = NDHPPModel((4, 4, 4), boundary="reflecting")
        s = rng.integers(0, 64, size=(4, 4, 4)).astype(np.uint8)
        mass0 = int(popcount(s, 6).sum())
        for t in range(8):
            s = m.step(s, t)
        assert int(popcount(s, 6).sum()) == mass0

    def test_d2_matches_hpp_dynamics(self, rng):
        """The d=2 specialization's propagation must agree with the
        dedicated HPP model up to the channel-numbering map."""
        from repro.lgca.hpp import HPPModel

        nd = NDHPPModel((6, 6))
        hpp = HPPModel(6, 6)
        # channel map: nd(0)=+axis0=+row(down) -> hpp 3 (-y);
        # nd(1)=-axis0=up -> hpp 1; nd(2)=+axis1=+col -> hpp 0; nd(3) -> hpp 2
        nd_state = np.zeros((6, 6), dtype=np.uint8)
        nd_state[2, 3] = 1 << 2  # +col
        hpp_state = np.zeros((6, 6), dtype=np.uint8)
        hpp_state[2, 3] = 1 << 0  # +x
        nd_out = nd.propagate(nd_state)
        hpp_out = hpp.propagate(hpp_state)
        assert np.argwhere(nd_out).tolist() == np.argwhere(hpp_out).tolist()


class TestConservationInEveryDimension:
    """The table and field checks keep all d momentum components."""

    def test_table_keeps_full_velocities(self):
        t = ndhpp_collision_table(3)
        assert t.velocities.shape == (6, 3)
        assert np.array_equal(t.velocities, NDHPPModel((4, 4, 4)).velocities)

    def test_z_reversal_rejected(self):
        table = np.arange(64, dtype=np.uint16)
        table[1 << 4], table[1 << 5] = 1 << 5, 1 << 4  # lone +z <-> lone -z
        with pytest.raises(ConservationError, match="momentum broken at state 0x10"):
            CollisionTable(name="bad-z", table=table, velocities=ndhpp_velocities(3))

    def test_field_momentum_is_conserved_3d(self, rng):
        m = NDHPPModel((4, 5, 6))
        s = rng.integers(0, 64, size=m.shape).astype(np.uint8)
        p0 = total_momentum(s, m.velocities)
        assert p0.shape == (3,)
        assert np.array_equal(p0, channel_counts(s, 6) @ m.velocities)
        assert np.allclose(momentum_field(s, m.velocities).sum(axis=(0, 1, 2)), p0)
        for t in range(8):
            s = m.step(s, t)
        assert np.array_equal(total_momentum(s, m.velocities), p0)
