"""d-dimensional orthogonal lattice gases (HPP generalized).

Section 2 of the paper notes "Extensions to three-dimensional gases are
just now being formulated [1]" (d'Humières, Lallemand & Frisch's 3-D
models), and the whole section 7 analysis is parameterized by the
lattice dimension d — the bound is R = O(B·S^{1/d}).  This module
supplies a *runnable* d-dimensional gas so the d > 2 branches of the
reproduction exercise a real workload rather than an abstract graph:

* ``2d`` unit-velocity channels, one pair per axis (channel ``2a`` moves
  +axis a, channel ``2a + 1`` moves −axis a);
* HPP-style head-on collisions: a lone opposite pair on axis *a*
  scatters to a lone opposite pair on another axis, cycling through the
  axes deterministically (conserves mass and momentum exactly, and like
  2-D HPP is chain-reversible);
* propagation by per-channel rolls with periodic, null, or reflecting
  boundaries.

Like 2-D HPP this gas is *not* isotropic — the paper's point that real
3-D models need cleverer lattices (FCHC) stands; what the engine and
pebbling analyses need from the workload is its uniform/local/simple
structure and its dimension, which this provides for any d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.lgca.bits import pack_channels, unpack_channels
from repro.lgca.collision import CollisionTable
from repro.util.validation import check_positive

__all__ = ["NDHPPModel", "ndhpp_velocities", "ndhpp_collision_table"]


def ndhpp_velocities(d: int) -> np.ndarray:
    """(2d, d) velocity vectors: ±unit vector per axis.

    The 2-column convention used by the 2-D models is the special case
    d = 2 (note the axis order: channel 2a is +axis a).
    """
    d = check_positive(d, "d", integer=True)
    out = np.zeros((2 * d, d), dtype=np.float64)
    for axis in range(d):
        out[2 * axis, axis] = 1.0
        out[2 * axis + 1, axis] = -1.0
    return out


def _axis_pair_mask(axis: int) -> int:
    """State bits of the ± pair on ``axis``."""
    return (1 << (2 * axis)) | (1 << (2 * axis + 1))


def ndhpp_collision_table(d: int) -> CollisionTable:
    """Head-on pair rotation table for the d-dimensional gas.

    A state consisting of *exactly* one opposite pair on axis ``a``
    becomes the opposite pair on axis ``(a + 1) mod d``.  Everything
    else passes through.  Mass is trivially conserved; momentum of an
    opposite pair is zero on every axis, so the swap conserves momentum
    exactly.  For d = 1 the table is the identity (nowhere to scatter).
    """
    d = check_positive(d, "d", integer=True)
    if d > 8:
        raise ValueError(f"d={d} would need a {2*d}-bit state; cap is 16 channels")
    size = 1 << (2 * d)
    table = np.arange(size, dtype=np.uint16)
    if d >= 2:
        for axis in range(d):
            state = _axis_pair_mask(axis)
            table[state] = _axis_pair_mask((axis + 1) % d)
    return CollisionTable(
        name=f"ndhpp-{d}d",
        table=table,
        velocities=ndhpp_velocities(d),
        conserves_momentum=True,
    )


@dataclass
class NDHPPModel:
    """Collision + propagation kernels for the d-dimensional gas.

    Parameters
    ----------
    shape:
        Lattice side lengths per dimension.
    boundary:
        ``"periodic"``, ``"null"``, or ``"reflecting"``.
    """

    shape: tuple[int, ...]
    boundary: str = "periodic"

    def __init__(self, shape: Sequence[int], boundary: str = "periodic"):
        shape = tuple(check_positive(s, "shape entry", integer=True) for s in shape)
        if not shape:
            raise ValueError("shape must have at least one dimension")
        if len(shape) > 8:
            raise ValueError("at most 8 dimensions supported (16 channels)")
        if boundary not in ("periodic", "null", "reflecting"):
            raise ValueError(
                f"boundary={boundary!r} must be periodic, null, or reflecting"
            )
        self.shape = shape
        self.boundary = boundary
        self._table = ndhpp_collision_table(len(shape))

    # -- metadata ---------------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def num_channels(self) -> int:
        return 2 * self.d

    @property
    def bits_per_site(self) -> int:
        return self.num_channels

    @property
    def num_sites(self) -> int:
        return int(np.prod(self.shape))

    @property
    def velocities(self) -> np.ndarray:
        """(2d, d) velocity vectors (a copy of the collision table's)."""
        return self._table.velocities.copy()

    @property
    def collision_table(self) -> CollisionTable:
        return self._table

    def check_state(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state)
        if state.shape != self.shape:
            raise ValueError(f"state shape {state.shape} != lattice shape {self.shape}")
        if state.max(initial=0) >= (1 << self.num_channels):
            raise ValueError(f"states must fit in {self.num_channels} bits")
        dtype = np.uint8 if self.num_channels <= 8 else np.uint16
        return state.astype(dtype, copy=False)

    # -- dynamics ----------------------------------------------------------------

    def collide(self, state: np.ndarray, t: int = 0) -> np.ndarray:
        state = self.check_state(state)
        return self._table(state).astype(state.dtype)

    def propagate(self, state: np.ndarray) -> np.ndarray:
        state = self.check_state(state)
        channels = unpack_channels(state, self.num_channels)
        out = np.zeros_like(channels)
        for ch in range(self.num_channels):
            axis = ch // 2
            step = 1 if ch % 2 == 0 else -1
            out[ch] = self._shift(channels[ch], axis, step)
        if self.boundary == "reflecting":
            for ch in range(self.num_channels):
                axis = ch // 2
                step = 1 if ch % 2 == 0 else -1
                wall = self._wall_slice(axis, step)
                opposite = ch ^ 1
                out[opposite][wall] |= channels[ch][wall]
        return pack_channels(out)

    def step(self, state: np.ndarray, t: int = 0) -> np.ndarray:
        return self.propagate(self.collide(state, t))

    # -- helpers --------------------------------------------------------------------

    def _shift(self, plane: np.ndarray, axis: int, step: int) -> np.ndarray:
        if self.boundary == "periodic":
            return np.roll(plane, step, axis=axis)
        out = np.zeros_like(plane)
        src = [slice(None)] * self.d
        dst = [slice(None)] * self.d
        if step == 1:
            src[axis] = slice(0, self.shape[axis] - 1)
            dst[axis] = slice(1, self.shape[axis])
        else:
            src[axis] = slice(1, self.shape[axis])
            dst[axis] = slice(0, self.shape[axis] - 1)
        out[tuple(dst)] = plane[tuple(src)]
        return out

    def _wall_slice(self, axis: int, step: int) -> tuple:
        """Index of the wall layer a ±axis mover would exit through."""
        idx = [slice(None)] * self.d
        idx[axis] = self.shape[axis] - 1 if step == 1 else 0
        return tuple(idx)
