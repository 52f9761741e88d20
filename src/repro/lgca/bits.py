"""Packed bit encodings of lattice-gas site states.

A site of a lattice gas holds one bit per velocity channel (the paper's
exclusion principle: "no more than one particle can occupy a given
directed lattice edge"), plus optionally a rest-particle bit and flag
bits (obstacle, boundary).  The whole site state is ``D`` bits — the
``D`` of the pin constraint ``2D·P <= Π`` in section 6.

States are stored as small unsigned integers; fields of states are NumPy
integer arrays.  This module provides the popcount/channel machinery the
collision tables and observables are built from, including the one
per-state occupancy table every mass and momentum number derives from.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "popcount",
    "popcount_table",
    "occupancy_table",
    "direction_count",
    "pack_channels",
    "unpack_channels",
    "channel_bit",
    "has_particle",
    "opposite_channels",
    "bounce_back_table",
]

_POPCOUNT_CACHE: dict[int, np.ndarray] = {}
_OCCUPANCY_CACHE: dict[int, np.ndarray] = {}
_BOUNCE_CACHE: dict[int, np.ndarray] = {}


def opposite_channels(num_channels: int) -> tuple[int, ...]:
    """Velocity-reversal channel map ``i -> opposite(i)``.

    For 6/7-channel FHP, channel ``i`` maps to ``(i + 3) % 6``; for
    4-channel HPP, to ``(i + 2) % 4``.  A rest particle (channel 6) maps
    to itself.
    """
    if num_channels == 4:
        return (2, 3, 0, 1)
    if num_channels == 6:
        return (3, 4, 5, 0, 1, 2)
    if num_channels == 7:
        return (3, 4, 5, 0, 1, 2, 6)
    raise ValueError(f"no bounce-back rule for {num_channels} channels")


def bounce_back_table(num_channels: int) -> np.ndarray:
    """Lookup table reversing every moving particle's velocity.

    The table conserves mass exactly.  Like :func:`popcount_table` it is
    built vectorized (one shift/or pass per channel instead of a
    pure-Python ``2^C`` loop) and cached read-only, since the automaton
    and the bit-plane backend both index it in hot paths.
    """
    table = _BOUNCE_CACHE.get(num_channels)
    if table is None:
        opposite = opposite_channels(num_channels)
        states = np.arange(1 << num_channels, dtype=np.uint16)
        table = np.zeros(states.size, dtype=np.uint16)
        for ch, opp in enumerate(opposite):
            table |= ((states >> np.uint16(ch)) & np.uint16(1)) << np.uint16(opp)
        table.setflags(write=False)
        _BOUNCE_CACHE[num_channels] = table
    return table


def popcount_table(num_bits: int) -> np.ndarray:
    """Lookup table: number of set bits for every state of ``num_bits`` bits.

    The table is cached — lattice-gas kernels index it with full state
    arrays (``table[state_field]``), which is the vectorized popcount.
    """
    num_bits = check_positive(num_bits, "num_bits", integer=True)
    if num_bits > 24:
        raise ValueError(f"num_bits={num_bits} too large for table-driven popcount")
    table = _POPCOUNT_CACHE.get(num_bits)
    if table is None:
        values = np.arange(1 << num_bits, dtype=np.uint32)
        table = np.zeros(1 << num_bits, dtype=np.uint8)
        for bit in range(num_bits):
            table += ((values >> bit) & 1).astype(np.uint8)
        table.setflags(write=False)
        _POPCOUNT_CACHE[num_bits] = table
    return table


def occupancy_table(num_channels: int) -> np.ndarray:
    """``(2^C, C)`` int64 table: row ``s`` is the 0/1 occupancy of state ``s``.

    The conservation algebra of every dimension reads this one table:
    per state, mass is a row sum and momentum is
    ``occupancy_table(C) @ velocities``; per field, the channel counts
    are the state histogram times the table.  Cached read-only.
    """
    table = _OCCUPANCY_CACHE.get(num_channels)
    if table is None:
        num_channels = check_positive(num_channels, "num_channels", integer=True)
        if num_channels > 16:
            raise ValueError(f"{num_channels} channels exceed the 16-bit state limit")
        states = np.arange(1 << num_channels, dtype=np.int64)
        table = (states[:, None] >> np.arange(num_channels)) & 1
        table.setflags(write=False)
        _OCCUPANCY_CACHE[num_channels] = table
    return table


def popcount(states: np.ndarray | int, num_bits: int) -> np.ndarray | int:
    """Number of particles at each site (vectorized popcount)."""
    table = popcount_table(num_bits)
    if np.isscalar(states):
        return int(table[int(states)])
    states = np.asarray(states)
    return table[states]


def direction_count(states: np.ndarray | int, direction: int) -> np.ndarray | int:
    """Occupancy (0/1) of velocity channel ``direction``."""
    if direction < 0:
        raise ValueError(f"direction={direction} must be non-negative")
    if np.isscalar(states):
        return (int(states) >> direction) & 1
    states = np.asarray(states)
    return (states >> np.uint8(direction)) & 1


def channel_bit(direction: int) -> int:
    """The mask with only channel ``direction`` set."""
    if direction < 0:
        raise ValueError(f"direction={direction} must be non-negative")
    return 1 << direction


def has_particle(state: int, direction: int) -> bool:
    """Whether ``state`` has a particle moving along ``direction``."""
    return bool((int(state) >> direction) & 1)


def pack_channels(
    channels: np.ndarray, out: np.ndarray | None = None, check: bool = True
) -> np.ndarray:
    """Pack per-channel boolean planes into an integer state field.

    Parameters
    ----------
    channels:
        Boolean/0-1 array of shape ``(num_channels, ...)``.
    out:
        Optional preallocated result array of the trailing shape (used by
        the zero-allocation stepping paths).
    check:
        Validate that non-boolean planes only hold 0/1 values.  Kernels
        whose planes are 0/1 by construction pass ``False``.

    Returns
    -------
    Integer array of the trailing shape, dtype uint8 for <= 8 channels,
    uint16 for <= 16.
    """
    channels = np.asarray(channels)
    if channels.ndim < 1:
        raise ValueError("channels must have a leading channel axis")
    num_channels = channels.shape[0]
    if num_channels == 0:
        raise ValueError("need at least one channel")
    if num_channels > 16:
        raise ValueError(f"{num_channels} channels exceed the 16-bit state limit")
    dtype = np.uint8 if num_channels <= 8 else np.uint16
    if out is None:
        out = np.empty(channels.shape[1:], dtype=dtype)
    else:
        if out.shape != channels.shape[1:]:
            raise ValueError(f"out has shape {out.shape}, expected {channels.shape[1:]}")
    for bit in range(num_channels if check else 0):
        plane = channels[bit]
        if plane.dtype != np.bool_:
            bad = (plane != 0) & (plane != 1)
            if np.any(bad):
                raise ValueError(f"channel {bit} has values outside {{0, 1}}")
    # Horner from the top channel down: shift, then OR the next plane in,
    # all in place, so a preallocated ``out`` means no temporaries.
    out[...] = channels[-1]
    for bit in range(num_channels - 2, -1, -1):
        np.left_shift(out, 1, out=out)
        np.bitwise_or(out, channels[bit], out=out, casting="unsafe")
    return out


def unpack_channels(
    states: np.ndarray, num_channels: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`pack_channels`: per-channel 0/1 planes.

    Returns an array of shape ``(num_channels,) + states.shape`` with
    dtype uint8 (written into ``out`` when given).
    """
    num_channels = check_positive(num_channels, "num_channels", integer=True)
    states = np.asarray(states)
    if out is None:
        out = np.empty((num_channels,) + states.shape, dtype=np.uint8)
    elif out.shape != (num_channels,) + states.shape:
        raise ValueError(
            f"out has shape {out.shape}, expected {(num_channels,) + states.shape}"
        )
    for bit in range(num_channels):
        np.right_shift(states, np.uint8(bit), out=out[bit], casting="unsafe")
        out[bit] &= np.uint8(1)
    return out
