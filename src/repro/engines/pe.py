"""The processing element's site-update rule in stream coordinates.

A pipeline stage sees the lattice as a raster (row-major) stream.  To
emit site ``(r, c)`` of generation ``t+1`` it must gather, for every
velocity channel, the *collided* value of the neighbor that sends a
particle into ``(r, c)`` — i.e. apply the data dependency
``v(a, t+1) = f(N(a), t)`` of section 3 with the neighborhood expressed
as *stream offsets*.

:class:`StreamStencil` precomputes those offsets for a model (HPP's
orthogonal stencil, FHP's parity-dependent hexagonal stencil, or a 1-D
CA), and :class:`SiteUpdateRule` bundles the collision step with the
stencil.  Both the tick-accurate and the vectorized stage
implementations consume these, so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.lgca.fhp import (
    FHPModel,
    _COL_OFFSET_EVEN,
    _COL_OFFSET_ODD,
    _ROW_OFFSET,
)
from repro.lgca.hpp import HPPModel, HPP_OFFSETS
from repro.util.validation import check_positive

__all__ = ["StreamStencil", "SiteUpdateRule", "PostCollideHook", "make_rule"]

#: Fault-injection hook applied to the collided value leaving a PE —
#: the point where the physical pipeline register sits, so a transient
#: upset or a stuck-at defect on the collision-rule output is modeled by
#: transforming ``(values, r, c, t) -> values`` right here.
PostCollideHook = Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class StreamStencil:
    """Per-channel source offsets for a raster-streamed lattice.

    Attributes
    ----------
    rows, cols:
        Frame shape.
    row_offsets:
        ``(C,)`` source row offsets per channel: source row = r − dr.
    col_offsets_even / col_offsets_odd:
        ``(C,)`` source column offsets, selected by the *source row's*
        parity (identical arrays for orthogonal lattices).
    self_channels:
        Channels that do not move (e.g. the FHP rest particle).
    """

    rows: int
    cols: int
    row_offsets: tuple[int, ...]
    col_offsets_even: tuple[int, ...]
    col_offsets_odd: tuple[int, ...]
    self_channels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_positive(self.rows, "rows", integer=True)
        check_positive(self.cols, "cols", integer=True)
        n = len(self.row_offsets)
        if not (len(self.col_offsets_even) == len(self.col_offsets_odd) == n):
            raise ValueError("offset tuples must have equal length")

    @property
    def num_moving_channels(self) -> int:
        """Channels that propagate (rest particles excluded)."""
        return len(self.row_offsets)

    def window_reach(self) -> int:
        """Largest |stream offset| any channel needs.

        ``cols + 1`` for the hexagonal/orthogonal 2-D stencils — this is
        what makes the paper's delay line ``2L + 3`` sites long
        (reach on both sides plus the center).
        """
        reach = 0
        for i in range(self.num_moving_channels):
            dr = self.row_offsets[i]
            for dc in (self.col_offsets_even[i], self.col_offsets_odd[i]):
                reach = max(reach, abs(dr * self.cols + dc))
        return reach

    def window_sites(self) -> int:
        """Delay-line length the stage needs: 2·reach + 1."""
        return 2 * self.window_reach() + 1

    def source_index(self, r: int, c: int, channel: int) -> tuple[int, int] | None:
        """Source site (row, col) feeding channel ``channel`` of (r, c).

        None when the source falls outside the frame (null boundary).
        """
        dr = self.row_offsets[channel]
        r_src = r - dr
        if not 0 <= r_src < self.rows:
            return None
        dc = self.col_offsets_odd[channel] if r_src % 2 else self.col_offsets_even[channel]
        c_src = c - dc
        if not 0 <= c_src < self.cols:
            return None
        return (r_src, c_src)

    def gather_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized form: flat source index and validity per channel.

        Returns ``(src, valid)`` of shapes ``(C, rows*cols)``; invalid
        entries of ``src`` are clamped to 0 and masked by ``valid``.
        """
        n = self.rows * self.cols
        src = np.zeros((self.num_moving_channels, n), dtype=np.int64)
        valid = np.zeros((self.num_moving_channels, n), dtype=bool)
        r = np.arange(n) // self.cols
        c = np.arange(n) % self.cols
        for ch in range(self.num_moving_channels):
            r_src = r - self.row_offsets[ch]
            in_rows = (r_src >= 0) & (r_src < self.rows)
            parity = np.where(in_rows, r_src % 2, 0)
            dc = np.where(
                parity == 1, self.col_offsets_odd[ch], self.col_offsets_even[ch]
            )
            c_src = c - dc
            ok = in_rows & (c_src >= 0) & (c_src < self.cols)
            flat = np.where(ok, r_src * self.cols + c_src, 0)
            src[ch] = flat
            valid[ch] = ok
        return src, valid


@dataclass(frozen=True)
class SiteUpdateRule:
    """What one PE computes: collide the neighborhood, gather one site.

    Attributes
    ----------
    name:
        e.g. ``"fhp6"``.
    num_channels:
        Total state bits (moving + rest).
    stencil:
        Stream-coordinate neighborhood.
    collide:
        ``collide(states, r, c, t) -> states`` — vectorized collision
        of site values at coordinates ``(r, c)`` and generation ``t``
        (coordinates matter for FHP's alternating chirality).
    """

    name: str
    num_channels: int
    stencil: StreamStencil
    collide: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]

    @property
    def bits_per_site(self) -> int:
        """D — site state width in bits."""
        return self.num_channels


def _fhp_stream_stencil(rows: int, cols: int, rest: bool) -> StreamStencil:
    return StreamStencil(
        rows=rows,
        cols=cols,
        row_offsets=tuple(_ROW_OFFSET),
        col_offsets_even=tuple(_COL_OFFSET_EVEN),
        col_offsets_odd=tuple(_COL_OFFSET_ODD),
        self_channels=(6,) if rest else (),
    )


def _hpp_stream_stencil(rows: int, cols: int) -> StreamStencil:
    drs = tuple(dr for dr, _ in HPP_OFFSETS)
    dcs = tuple(dc for _, dc in HPP_OFFSETS)
    return StreamStencil(
        rows=rows,
        cols=cols,
        row_offsets=drs,
        col_offsets_even=dcs,
        col_offsets_odd=dcs,
    )


def make_rule(model: FHPModel | HPPModel) -> SiteUpdateRule:
    """Build the PE rule for a reference model (engines never re-derive
    physics — they reuse the verified collision tables).

    Fault injection happens downstream of the rule, at
    :attr:`repro.engines.streaming_core.PipelineStage.post_collide`.
    """
    if isinstance(model, FHPModel):
        if model.boundary != "null":
            raise ValueError(
                "streamed engines implement null boundaries; "
                f"model has boundary={model.boundary!r}"
            )
        if model.chirality == "random":
            raise ValueError("streamed engines require deterministic chirality")
        left, right = model.collision_tables
        chirality = model.chirality

        def collide(states, r, c, t):
            states = np.asarray(states)
            if chirality == "left":
                return left(states)
            if chirality == "right":
                return right(states)
            left_mask = ((np.asarray(r) + np.asarray(c) + t) % 2).astype(bool)
            return np.where(left_mask, left(states), right(states)).astype(states.dtype)

        return SiteUpdateRule(
            name="fhp7" if model.rest_particles else "fhp6",
            num_channels=model.num_channels,
            stencil=_fhp_stream_stencil(model.rows, model.cols, model.rest_particles),
            collide=collide,
        )
    if isinstance(model, HPPModel):
        if model.boundary != "null":
            raise ValueError(
                "streamed engines implement null boundaries; "
                f"model has boundary={model.boundary!r}"
            )
        table = model.collision_table

        def collide(states, r, c, t):  # noqa: ARG001 - uniform rule
            return table(np.asarray(states))

        return SiteUpdateRule(
            name="hpp",
            num_channels=4,
            stencil=_hpp_stream_stencil(model.rows, model.cols),
            collide=collide,
        )
    raise TypeError(f"no PE rule for model type {type(model).__name__}")
