"""Unit tests for collision tables and conservation verification."""

import numpy as np
import pytest

from repro.lgca.collision import (
    CollisionTable,
    ConservationError,
    verify_conservation,
)
from repro.lgca.collision import identity_table
from repro.lgca.hpp import HPP_VELOCITIES


def _id_table(bits: int) -> np.ndarray:
    return np.arange(1 << bits, dtype=np.uint16)


class TestVerifyConservation:
    def test_identity_conserves(self):
        verify_conservation(_id_table(4), HPP_VELOCITIES)

    def test_mass_violation_detected(self):
        table = _id_table(4)
        table[0b0001] = 0b0011  # creates a particle
        with pytest.raises(ConservationError, match="mass"):
            verify_conservation(table, HPP_VELOCITIES)

    def test_momentum_violation_detected(self):
        table = _id_table(4)
        # Swap +x particle for +y particle: mass ok, momentum broken.
        table[0b0001] = 0b0010
        with pytest.raises(ConservationError, match="momentum"):
            verify_conservation(table, HPP_VELOCITIES)

    def test_momentum_check_can_be_disabled(self):
        table = _id_table(4)
        table[0b0001] = 0b0010
        verify_conservation(table, HPP_VELOCITIES, check_momentum=False)

    def test_out_of_range_output(self):
        table = _id_table(4)
        table[3] = 16
        with pytest.raises(ConservationError, match="outside"):
            verify_conservation(table, HPP_VELOCITIES)

    def test_wrong_table_size(self):
        with pytest.raises(ValueError, match="shape"):
            verify_conservation(_id_table(3), HPP_VELOCITIES)

    def test_bad_velocity_shape(self):
        with pytest.raises(ValueError, match=r"\(C, d\)"):
            verify_conservation(_id_table(2), np.zeros(2))

    def test_any_dimension_accepted(self):
        verify_conservation(_id_table(2), np.zeros((2, 3)))

    def test_ignore_mask_excludes_flag_bits(self):
        # 5-bit states: 4 velocity channels + 1 flag bit the rule toggles.
        velocities = np.vstack([HPP_VELOCITIES, [(0.0, 0.0)]])
        table = np.arange(32, dtype=np.uint16)
        table[0b00001] = 0b10001  # sets the flag bit: mass changes unless masked
        with pytest.raises(ConservationError):
            verify_conservation(table, velocities)
        verify_conservation(table, velocities, ignore_mask=0b10000)


class TestCollisionTable:
    def test_construction_verifies(self):
        bad = _id_table(4)
        bad[1] = 3
        with pytest.raises(ConservationError):
            CollisionTable(name="bad", table=bad, velocities=HPP_VELOCITIES)

    def test_callable_scalar_and_array(self):
        t = identity_table(4, HPP_VELOCITIES)
        assert t(5) == 5
        arr = np.array([1, 2, 3], dtype=np.uint8)
        assert np.array_equal(t(arr), arr)

    def test_table_is_readonly(self):
        t = identity_table(4, HPP_VELOCITIES)
        with pytest.raises(ValueError):
            t.table[0] = 1

    def test_is_identity_and_fixed_points(self):
        t = identity_table(4, HPP_VELOCITIES)
        assert t.is_identity()
        assert t.fixed_points().size == 16

    def test_is_involution(self):
        # A swap of two momentum-equivalent states is an involution.
        table = _id_table(4)
        table[0b0101], table[0b1010] = 0b1010, 0b0101
        t = CollisionTable(name="swap", table=table, velocities=HPP_VELOCITIES)
        assert t.is_involution()
        assert not t.is_identity()

    def test_compose(self):
        table = _id_table(4)
        table[0b0101], table[0b1010] = 0b1010, 0b0101
        t = CollisionTable(name="swap", table=table, velocities=HPP_VELOCITIES)
        composed = t.compose(t)
        assert composed.is_identity()
        assert "∘" in composed.name

    def test_compose_rejects_mismatched_channels(self):
        t4 = identity_table(4, HPP_VELOCITIES)
        t6 = identity_table(6, np.zeros((6, 2)))
        with pytest.raises(ValueError):
            t4.compose(t6)

    def test_num_properties(self):
        t = identity_table(4, HPP_VELOCITIES)
        assert t.num_channels == 4
        assert t.num_states == 16
