"""Streaming (prism-array) lattice updating.

Section 3, discussing the fixed-span problem: "one can actually process
a *prism* array, finite in all but one dimension" — a lattice of fixed
width L and unbounded length, flowing through the engine row by row.
That is precisely what a fixed-L pipeline stage is good for, and this
module realizes it at the software level: a generator-style updater
that consumes rows of generation t and emits rows of generation t+1
with one row of latency, holding only a **three-row window** regardless
of how many rows ever flow through.

This is the row-granular counterpart of the site-granular tick
simulation: it proves the O(L) memory claim at a different granularity
and gives examples/users an updater for lattices too long to
materialize.

Boundary semantics match the engines: null boundaries on the left/right
edges; the first and last rows of the stream see null above/below.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.engines.pe import make_rule
from repro.lgca.automaton import SiteModel
from repro.util.errors import ConfigError
from repro.util.validation import check_positive

__all__ = ["StreamingRowUpdater", "stream_rows"]


class StreamingRowUpdater:
    """Advance an unbounded row stream one generation with 3 rows of memory.

    Parameters
    ----------
    model:
        A reference model (null boundary, deterministic chirality) whose
        ``rows`` attribute is ignored — the stream may be any length;
        ``cols`` fixes the prism width.
    start_time:
        Generation index (FHP chirality needs absolute row/time parity,
        so the updater also tracks the absolute row index).

    Usage::

        updater = StreamingRowUpdater(model)
        for out_row in updater.feed(rows_iterable):
            ...
    """

    def __init__(self, model: SiteModel, start_time: int = 0):
        self.model = model
        self.time = start_time
        self.rule = make_rule(model)
        self._stencil = self.rule.stencil
        self.cols = model.cols

    @property
    def window_rows(self) -> int:
        """Rows resident at any moment: exactly 3 (the hex stencil's
        vertical reach of ±1, the paper's two-lines-plus-window in row
        granularity)."""
        return 3

    def _collide_row(self, row: np.ndarray, row_index: int) -> np.ndarray:
        r = np.full(self.cols, row_index, dtype=np.int64)
        c = np.arange(self.cols, dtype=np.int64)
        return np.asarray(self.rule.collide(row, r, c, self.time))

    def _emit(
        self,
        above: np.ndarray | None,
        center: np.ndarray,
        below: np.ndarray | None,
        row_index: int,
    ) -> np.ndarray:
        """Assemble the updated ``row_index`` from collided neighbors."""
        out = np.zeros(self.cols, dtype=center.dtype)
        stencil = self._stencil
        # source row = row_index - dr: dr = +1 reads the row above,
        # dr = -1 the row below.
        rows_by_offset = {1: above, 0: center, -1: below}
        for ch in range(stencil.num_moving_channels):
            dr = stencil.row_offsets[ch]
            src_row = rows_by_offset.get(dr)
            if src_row is None:
                continue
            src_parity = (row_index - dr) % 2
            dc = (
                stencil.col_offsets_odd[ch]
                if src_parity
                else stencil.col_offsets_even[ch]
            )
            c = np.arange(self.cols)
            c_src = c - dc
            ok = (c_src >= 0) & (c_src < self.cols)
            bit = np.zeros(self.cols, dtype=out.dtype)
            bit[ok] = (src_row[np.clip(c_src, 0, self.cols - 1)][ok] >> ch) & 1
            out |= bit << out.dtype.type(ch)
        for ch in stencil.self_channels:
            out |= center & out.dtype.type(1 << ch)
        return out

    def feed(self, rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Consume generation-t rows, yield generation-(t+1) rows.

        Only three collided rows are ever held.  The number of yielded
        rows equals the number fed (null boundary above the first and
        below the last).

        Raises
        ------
        repro.util.errors.ConfigError
            If an incoming row does not match the model's prism width
            ``model.cols``, is not of integer dtype, or carries values
            outside the model's ``num_channels``-bit state space —
            caught *here*, at the host interface, instead of surfacing
            as an opaque numpy broadcasting failure deep in the stencil
            gather.
        """
        above: np.ndarray | None = None
        center: np.ndarray | None = None
        num_channels = self.model.num_channels
        row_index = 0
        for raw in rows:
            raw = self._check_row(np.asarray(raw), row_index, num_channels)
            below = self._collide_row(raw.astype(np.uint8, copy=False), row_index)
            if center is not None:
                yield self._emit(above, center, below, row_index - 1)
            above, center = center, below
            row_index += 1
        if center is not None:
            yield self._emit(above, center, None, row_index - 1)
        self.time += 1

    def _check_row(
        self, raw: np.ndarray, row_index: int, num_channels: int
    ) -> np.ndarray:
        if raw.shape != (self.cols,):
            raise ConfigError(
                f"stream row {row_index} has shape {raw.shape}, expected "
                f"({self.cols},) — the prism width is fixed by model.cols"
            )
        if raw.dtype.kind not in "ui":
            raise ConfigError(
                f"stream row {row_index} has dtype {raw.dtype}, expected an "
                "integer site-state dtype"
            )
        if raw.size and int(raw.max()) >= (1 << num_channels):
            raise ConfigError(
                f"stream row {row_index} carries value {int(raw.max())}, "
                f"outside the {num_channels}-bit site state space"
            )
        return raw


def stream_rows(
    model: SiteModel,
    rows: Iterable[np.ndarray],
    generations: int = 1,
    start_time: int = 0,
) -> Iterator[np.ndarray]:
    """Chain ``generations`` streaming updaters (a software pipeline).

    Each generation adds one updater stage — and one row of latency —
    exactly like chaining chips; total resident memory is
    ``3 · generations`` rows no matter how long the prism is.
    """
    check_positive(generations, "generations", integer=True)
    stream: Iterable[np.ndarray] = rows
    for g in range(generations):
        stream = StreamingRowUpdater(model, start_time=start_time + g).feed(stream)
    return iter(stream)
