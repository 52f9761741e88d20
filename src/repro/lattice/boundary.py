"""Boundary conditions for lattice computations.

Section 7 of the paper (assumption 2 before Lemma 3) enumerates the ways
LGCA boundaries can be handled: null (zero valued), independently random,
dependently random or deterministic with truncated neighborhoods, or
toroidally connected.  This module gives each a concrete implementation
that both the reference automaton and the engine simulators share, so
that functional-equivalence tests exercise identical boundary semantics.

The interface is array-level: a boundary condition knows how to *pad* a
2-D field and how to *resolve* an out-of-range site index.  Vectorized
LGCA kernels use the padding route (``np.pad`` semantics); the pebbling
computation-graph builder uses index resolution.

:func:`shift_plane_into` is the propagation step itself under a periodic
or null boundary: the reference model (:class:`repro.lgca.model.TableModel`,
HPP and FHP alike) and the engines' PE stage move their channel planes
with it, by slice copies, so no per-site index table is ever built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundaryCondition",
    "NullBoundary",
    "PeriodicBoundary",
    "ReflectingBoundary",
    "TruncatedBoundary",
    "make_boundary",
    "shift_plane_into",
]


class BoundaryCondition(ABC):
    """Strategy for sites whose neighborhoods extend past the lattice edge."""

    #: short name used by :func:`make_boundary` and in bench output
    name: str = "abstract"

    @abstractmethod
    def pad(self, field: np.ndarray, width: int = 1) -> np.ndarray:
        """Return ``field`` padded by ``width`` ghost cells on every side."""

    @abstractmethod
    def resolve(self, index: int, size: int) -> int | None:
        """Map a possibly out-of-range coordinate into ``[0, size)``.

        Returns None when the neighbor simply does not exist (null /
        truncated boundaries), which callers treat as "no dependency".
        """

    def exists(self, index: int, size: int) -> bool:
        """Whether a dependency on coordinate ``index`` survives the boundary."""
        return self.resolve(index, size) is not None


@dataclass(frozen=True)
class NullBoundary(BoundaryCondition):
    """Ghost cells hold a fixed value (zero by default): 'null' boundaries.

    With null boundaries the boundary sites do not appear in the
    computation graph at all (paper, section 7, assumption 2) — the
    dependency is on a constant, not a computed value.
    """

    fill_value: int = 0
    name: str = "null"

    def pad(self, field: np.ndarray, width: int = 1) -> np.ndarray:
        return np.pad(field, width, mode="constant", constant_values=self.fill_value)

    def resolve(self, index: int, size: int) -> int | None:
        return index if 0 <= index < size else None


@dataclass(frozen=True)
class PeriodicBoundary(BoundaryCondition):
    """Toroidal wrap-around: the 'toroidally connected' case."""

    name: str = "periodic"

    def pad(self, field: np.ndarray, width: int = 1) -> np.ndarray:
        return np.pad(field, width, mode="wrap")

    def resolve(self, index: int, size: int) -> int | None:
        return index % size


@dataclass(frozen=True)
class ReflectingBoundary(BoundaryCondition):
    """Mirror reflection at the walls (no-slip wall for lattice gases)."""

    name: str = "reflecting"

    def pad(self, field: np.ndarray, width: int = 1) -> np.ndarray:
        return np.pad(field, width, mode="reflect")

    def resolve(self, index: int, size: int) -> int | None:
        if size == 1:
            return 0
        period = 2 * (size - 1)
        index %= period
        return index if index < size else period - index


@dataclass(frozen=True)
class TruncatedBoundary(BoundaryCondition):
    """Deterministic update with truncated neighborhoods.

    Out-of-range neighbors are dropped from the neighborhood; in padded
    form this behaves like edge-replication (the boundary site "sees
    itself" where a neighbor is missing), which is the standard hardware
    realization of a truncated stencil.
    """

    name: str = "truncated"

    def pad(self, field: np.ndarray, width: int = 1) -> np.ndarray:
        return np.pad(field, width, mode="edge")

    def resolve(self, index: int, size: int) -> int | None:
        return None if not 0 <= index < size else index


_REGISTRY: dict[str, type[BoundaryCondition]] = {
    "null": NullBoundary,
    "periodic": PeriodicBoundary,
    "reflecting": ReflectingBoundary,
    "truncated": TruncatedBoundary,
}


def make_boundary(name: str, **kwargs) -> BoundaryCondition:
    """Construct a boundary condition by name.

    >>> make_boundary("periodic").resolve(-1, 10)
    9
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown boundary {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def _shift_axis_into(
    plane: np.ndarray, out: np.ndarray, d: int, axis: int, periodic: bool
) -> None:
    """``out`` = ``plane`` moved ``d`` cells along ``axis`` (0 rows, 1 columns)."""
    n = plane.shape[axis]

    def at(s: slice) -> tuple[slice, ...]:
        return (slice(None), s) if axis else (s,)

    if periodic:
        d %= n
    elif abs(d) >= n:
        out[...] = 0
        return
    if d == 0:
        out[...] = plane
    elif d > 0:
        out[at(slice(d, None))] = plane[at(slice(None, n - d))]
        out[at(slice(None, d))] = plane[at(slice(n - d, None))] if periodic else 0
    else:
        out[at(slice(None, n + d))] = plane[at(slice(-d, None))]
        out[at(slice(n + d, None))] = 0


def shift_plane_into(
    plane: np.ndarray,
    out: np.ndarray,
    dr: int,
    dc_even: int,
    dc_odd: int,
    periodic: bool,
    stage: np.ndarray | None = None,
) -> None:
    """Move every cell of a 2-D plane along one stencil offset, into ``out``.

    Cell ``(r, c)`` lands on ``(r + dr, c + dc)``, where ``dc`` is
    ``dc_even`` or ``dc_odd`` by the parity of the *source* row ``r``
    (the hexagonal lattice's odd rows sit half a cell right; orthogonal
    stencils pass equal offsets).  Periodic planes wrap both axes;
    otherwise cells shifted off the plane vanish and vacated cells read
    0 (null semantics).  Column shifts are row-local, so the even and odd
    row interleaves (``plane[p::2]``) are column-shifted by their own
    offsets first, into ``stage``, and the rows are moved after; ``stage``
    (same shape as ``plane``) is needed only when both steps move cells.
    Slice copies only: nothing is allocated.  ``out`` must not alias
    ``plane`` or ``stage``.
    """
    if dc_even == dc_odd == 0:
        _shift_axis_into(plane, out, dr, 0, periodic)
        return
    if dr == 0:
        mid = out
    elif stage is None:
        raise ValueError("a shift along both axes needs a stage buffer")
    else:
        mid = stage
    if dc_even == dc_odd:
        _shift_axis_into(plane, mid, dc_even, 1, periodic)
    else:
        _shift_axis_into(plane[0::2], mid[0::2], dc_even, 1, periodic)
        _shift_axis_into(plane[1::2], mid[1::2], dc_odd, 1, periodic)
    if dr != 0:
        _shift_axis_into(mid, out, dr, 0, periodic)
