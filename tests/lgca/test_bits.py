"""Unit + property tests for repro.lgca.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lgca.bits import (
    channel_bit,
    direction_count,
    has_particle,
    occupancy_table,
    pack_channels,
    popcount,
    popcount_table,
    unpack_channels,
)


class TestPopcount:
    def test_scalar(self):
        assert popcount(0b101101, 6) == 4

    def test_zero(self):
        assert popcount(0, 8) == 0

    def test_full(self):
        assert popcount((1 << 7) - 1, 7) == 7

    def test_array(self):
        states = np.array([[0, 1], [3, 7]], dtype=np.uint8)
        assert np.array_equal(popcount(states, 4), [[0, 1], [2, 3]])

    def test_table_cached_and_readonly(self):
        t1 = popcount_table(6)
        t2 = popcount_table(6)
        assert t1 is t2
        with pytest.raises(ValueError):
            t1[0] = 5

    def test_table_rejects_huge(self):
        with pytest.raises(ValueError):
            popcount_table(25)

    @given(st.integers(0, 255))
    def test_matches_bin_count(self, state):
        assert popcount(state, 8) == bin(state).count("1")


class TestOccupancyTable:
    def test_rows_are_channel_bits(self):
        t = occupancy_table(4)
        assert t.shape == (16, 4) and t.dtype == np.int64
        assert t[0b1010].tolist() == [0, 1, 0, 1]
        assert np.array_equal(t.sum(axis=1), popcount_table(4))

    def test_cached_and_readonly(self):
        t = occupancy_table(6)
        assert occupancy_table(6) is t
        with pytest.raises(ValueError):
            t[0, 0] = 1

    def test_rejects_more_than_16_channels(self):
        with pytest.raises(ValueError):
            occupancy_table(17)


class TestDirectionCount:
    def test_scalar(self):
        assert direction_count(0b100, 2) == 1
        assert direction_count(0b100, 1) == 0

    def test_array(self):
        states = np.array([1, 2, 3], dtype=np.uint8)
        assert np.array_equal(direction_count(states, 0), [1, 0, 1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            direction_count(3, -1)


class TestChannelHelpers:
    def test_channel_bit(self):
        assert channel_bit(0) == 1
        assert channel_bit(5) == 32

    def test_channel_bit_rejects_negative(self):
        with pytest.raises(ValueError):
            channel_bit(-1)

    def test_has_particle(self):
        assert has_particle(0b10, 1)
        assert not has_particle(0b10, 0)


class TestPackUnpack:
    def test_roundtrip_6ch(self):
        rng = np.random.default_rng(0)
        states = rng.integers(0, 64, size=(5, 7)).astype(np.uint8)
        assert np.array_equal(pack_channels(unpack_channels(states, 6)), states)

    def test_roundtrip_7ch_uses_uint8(self):
        states = np.array([127, 0, 64], dtype=np.uint8)
        packed = pack_channels(unpack_channels(states, 7))
        assert packed.dtype == np.uint8
        assert np.array_equal(packed, states)

    def test_many_channels_uint16(self):
        channels = np.zeros((12, 3), dtype=np.uint8)
        channels[11, 0] = 1
        packed = pack_channels(channels)
        assert packed.dtype == np.uint16
        assert packed[0] == 1 << 11

    def test_pack_rejects_nonbinary(self):
        channels = np.full((2, 2), 2, dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            pack_channels(channels)

    def test_pack_rejects_too_many_channels(self):
        with pytest.raises(ValueError, match="16-bit"):
            pack_channels(np.zeros((17, 2), dtype=np.uint8))

    def test_pack_rejects_scalar(self):
        with pytest.raises(ValueError):
            pack_channels(np.uint8(3))

    def test_unpack_shape(self):
        states = np.zeros((4, 5), dtype=np.uint8)
        assert unpack_channels(states, 6).shape == (6, 4, 5)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=20))
    def test_property_roundtrip(self, values):
        states = np.array(values, dtype=np.uint8)
        assert np.array_equal(pack_channels(unpack_channels(states, 6)), states)
