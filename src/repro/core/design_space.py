"""Shared design-space machinery: curves, corners, integer design points.

Both architecture models reduce to the same picture the paper draws: two
constraint curves in a two-dimensional plane (pin constraint and area
constraint), a feasible region below both, and an optimal operating point
at the corner where the curves cross ("the corner is the logical choice
of operating point").  This module provides the generic pieces —
sampling constraint curves over a parameter range, intersecting them,
and rounding the continuous corner to the best feasible integer design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.validation import check_positive

__all__ = [
    "DesignPoint",
    "DesignCurve",
    "feasibility_corner",
    "sample_curve",
]


@dataclass(frozen=True)
class DesignPoint:
    """A point of a design plane: abscissa (L or W) and PE count P."""

    x: float
    p: float

    def __post_init__(self) -> None:
        if self.x < 0 or self.p < 0:
            raise ValueError(f"design point ({self.x}, {self.p}) must be non-negative")


@dataclass(frozen=True)
class DesignCurve:
    """A named constraint curve ``P = f(x)`` sampled over a range.

    ``name`` identifies the constraint ("pins", "area"); ``xs``/``ps``
    are the sampled series a bench prints (the paper's figures plot
    exactly these).
    """

    name: str
    xs: np.ndarray
    ps: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64)
        ps = np.asarray(self.ps, dtype=np.float64)
        if xs.shape != ps.shape or xs.ndim != 1:
            raise ValueError("xs and ps must be 1-D arrays of equal length")
        if xs.size < 2:
            raise ValueError("a curve needs at least two samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)

    def at(self, x: float) -> float:
        """Linear interpolation of the curve at ``x``."""
        if not (self.xs[0] <= x <= self.xs[-1]):
            raise ValueError(
                f"x={x} outside sampled range [{self.xs[0]}, {self.xs[-1]}]"
            )
        return float(np.interp(x, self.xs, self.ps))

    def rows(self) -> list[tuple[float, float]]:
        """(x, P) pairs — what the bench prints as the figure's series."""
        return list(zip(self.xs.tolist(), self.ps.tolist()))


def sample_curve(
    name: str,
    fn: Callable[[float], float],
    x_min: float,
    x_max: float,
    num: int = 101,
) -> DesignCurve:
    """Sample ``P = fn(x)`` at ``num`` evenly spaced points.

    Negative values (constraint infeasible at any P) are clamped to 0,
    matching how the paper's figures draw the curves hitting the axis.
    """
    check_positive(num - 1, "num - 1", integer=True)
    if not x_max > x_min:
        raise ValueError(f"x_max={x_max} must exceed x_min={x_min}")
    xs = np.linspace(x_min, x_max, num)
    ps = np.array([max(0.0, float(fn(float(x)))) for x in xs])
    return DesignCurve(name=name, xs=xs, ps=ps)


def feasibility_corner(
    pin_limit: Callable[[float], float],
    area_limit: Callable[[float], float],
    x_min: float,
    x_max: float,
) -> DesignPoint:
    """The corner of the feasible region: where the binding constraint flips.

    ``pin_limit`` is typically constant in x and ``area_limit`` strictly
    decreasing; the corner is the largest x at which the area constraint
    still allows the pin-limited P.  If the curves never cross in range,
    the corner degenerates to an endpoint (whichever constraint binds).
    """
    if not x_max > x_min:
        raise ValueError(f"x_max={x_max} must exceed x_min={x_min}")

    def gap(x: float) -> float:
        return area_limit(x) - pin_limit(x)

    g_lo, g_hi = gap(x_min), gap(x_max)
    if g_lo <= 0:
        # Area already binding at x_min: corner at the left endpoint.
        x_star = x_min
    elif g_hi >= 0:
        # Pins binding everywhere: corner at the right endpoint.
        x_star = x_max
    else:
        # gap(lo) > 0 >= gap(hi): bisect until the bracket is one float
        # wide (about 60 halvings), then take the last x the pins bind.
        lo, hi = float(x_min), float(x_max)
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        x_star = lo
    p_star = min(pin_limit(x_star), area_limit(x_star))
    return DesignPoint(x=x_star, p=max(0.0, p_star))


def best_integer_p(p_continuous: float) -> int:
    """Round a continuous PE count down to a feasible integer (min 0)."""
    if p_continuous < 0:
        raise ValueError(f"p_continuous={p_continuous} must be non-negative")
    return int(np.floor(p_continuous + 1e-9))
