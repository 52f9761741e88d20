"""Row-slab decomposition with halo geometry: the shared slab planner.

The supervised multi-process runtime (:mod:`repro.runtime.sharding`),
the repo's one parallelism layer, divides the lattice into adjacent
horizontal slabs, one per worker, because every kernel in
:mod:`repro.lgca` stores the lattice row-major, which makes slab views
and halo rows contiguous.  This module is the source of that geometry;
it deliberately knows nothing about processes or kernels.

Each worker steps a *local frame* of ``halo_top + slab + halo_bottom``
rows and refreshes its halos once per *block* of up to ``depth``
generations.  Propagation moves particles at most one row per
generation, so the sub-lattice boundary artifacts at the frame's edges
(row wrap for periodic, row absorption for null) eat one halo row per
generation: after ``depth`` generations they have reached row
``depth - 1`` from either edge and no further.  A halo at least
``depth`` rows deep therefore keeps the slab *interior* bit-identical
to the whole-lattice run for a whole block; each worker recomputes the
overlap rows itself instead of receiving them every generation.  This
is the paper's trade of storage for bandwidth (§7) across processes.

The halo sizes are otherwise fixed by two parity invariants:

* the local frame must start on an **even global row** so that
  shard-local row parity equals global row parity — both the hexagonal
  propagation offsets and the ``alternate`` chirality checkerboard
  ``(r + c + t) % 2`` key on it — hence ``halo_top`` is ``depth`` or
  ``depth + 1``, whichever has the parity of the slab's first row;
* the local frame must have an **even number of rows** so a periodic
  FHP sub-model can be constructed (the half-cell row offset must tile)
  — hence ``halo_bottom`` is ``depth`` or ``depth + 1``, whichever
  makes the total even.

Neighbours therefore exchange ``depth + 1`` boundary rows per side per
block (:attr:`Shard.exchange_rows`) and each receiver slices off the
``depth`` or ``depth + 1`` it needs.  The depth is
:data:`HALO_GENERATIONS`, lowered for a plan whose shortest slab is
under ``HALO_GENERATIONS + 1`` rows, since a slab must supply its
neighbours' deepest halo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError
from repro.util.validation import check_positive

__all__ = ["BOUNDARY_ROWS", "HALO_GENERATIONS", "Shard", "plan_shards"]

#: Generations one halo exchange covers at most (the deepest plan's depth).
HALO_GENERATIONS = 16

#: Boundary rows exchanged per side at full depth: the number of rows
#: ``ShardRunner.boundary_rows`` returns unless short slabs lowered the
#: plan's depth (then it is ``depth + 1``).
BOUNDARY_ROWS = HALO_GENERATIONS + 1

#: Shortest slab the planner accepts: one halo generation plus one row.
_MIN_SLAB_ROWS = 2


@dataclass(frozen=True)
class Shard:
    """One worker's slab of the lattice, plus its halo geometry.

    Attributes
    ----------
    index:
        Worker index (0 = top slab).
    row_start, row_stop:
        The owned global row range ``[row_start, row_stop)``.
    halo_top, halo_bottom:
        Ghost rows above/below the slab in the worker's local frame
        (each ``depth`` or ``depth + 1``).
    depth:
        Generations one halo refresh keeps the slab exact; the same for
        every shard of a plan.
    """

    index: int
    row_start: int
    row_stop: int
    halo_top: int
    halo_bottom: int
    depth: int

    @property
    def slab_rows(self) -> int:
        """Rows this shard owns."""
        return self.row_stop - self.row_start

    @property
    def exchange_rows(self) -> int:
        """Boundary rows this shard publishes per side per exchange."""
        return self.depth + 1

    @property
    def local_rows(self) -> int:
        """Rows in the worker's local frame (slab + halos)."""
        return self.halo_top + self.slab_rows + self.halo_bottom

    @property
    def interior(self) -> slice:
        """The owned slab within the local frame."""
        return slice(self.halo_top, self.halo_top + self.slab_rows)

    def local_row_indices(self, rows: int) -> np.ndarray:
        """Global row index (mod ``rows``) of every local-frame row.

        Used to slice global per-row data — obstacle masks above all —
        into the local frame, halos included.
        """
        return np.arange(self.row_start - self.halo_top, self.row_stop + self.halo_bottom) % rows


def plan_shards(rows: int, num_workers: int) -> tuple[Shard, ...]:
    """Split ``rows`` lattice rows into ``num_workers`` slabs.

    Rows are distributed as evenly as possible (earlier shards take the
    remainder).  Every slab must be at least two rows tall.  The plan's
    depth is ``min(HALO_GENERATIONS, shortest slab - 1)``, so every slab
    can supply the ``depth + 1`` boundary rows its neighbours' halos
    need.  Every shard gets both halos, edge shards included: a periodic
    run fills the outer halos with the opposite end's rows, a
    null-boundary run zero-fills them.

    Parameters
    ----------
    rows, num_workers:
        Lattice height and slab count.

    Raises
    ------
    ConfigError
        When the lattice is too short for that many workers.
    """
    check_positive(rows, "rows", integer=True)
    check_positive(num_workers, "num_workers", integer=True)
    base, extra = divmod(rows, num_workers)
    if base < _MIN_SLAB_ROWS:
        raise ConfigError(
            f"num_workers={num_workers} needs at least "
            f"{_MIN_SLAB_ROWS * num_workers} rows (got {rows}): every slab "
            f"must be >= {_MIN_SLAB_ROWS} rows tall for halo exchange"
        )
    depth = min(HALO_GENERATIONS, base - 1)
    shards: list[Shard] = []
    row_start = 0
    for index in range(num_workers):
        slab = base + (1 if index < extra else 0)
        halo_top = depth + (row_start - depth) % 2
        halo_bottom = depth + (halo_top + slab + depth) % 2
        shards.append(
            Shard(
                index=index,
                row_start=row_start,
                row_stop=row_start + slab,
                halo_top=halo_top,
                halo_bottom=halo_bottom,
                depth=depth,
            )
        )
        row_start += slab
    return tuple(shards)
