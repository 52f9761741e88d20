"""Row-slab sharding with block halo exchange for multi-process runs.

The supervised runtime divides the lattice into adjacent horizontal
slabs, one per worker, mirroring the slice geometry of
:class:`~repro.engines.partitioned.PartitionedEngine` rotated 90°: rows
instead of columns, because every kernel in :mod:`repro.lgca` stores the
lattice row-major, which makes slab views and halo rows contiguous.

The slab geometry itself — :class:`~repro.lattice.slabs.Shard` and
:func:`~repro.lattice.slabs.plan_shards` — lives in
:mod:`repro.lattice.slabs`; this module re-exports it and adds the
process-level :class:`ShardRunner` on top, which holds its slab in one
kernel stepper, loaded once, and :func:`block_end`, the block schedule
the worker and the supervisor share.  This is the repo's one
parallelism layer; there is no thread-level kernel backend.  See the
slab planner's docstring for the halo-size invariants (even local start
row, even local frame, halos at least ``depth`` rows deep) and why
refreshing the halos once per block of up to ``depth`` generations
keeps the slab interiors bit-identical to the whole-lattice run.

Bit-identity at *this* layer holds for the ``alternate``, ``left`` and
``right`` chirality policies.  Per-site ``random`` chirality is a pure
function of (seed, generation, global row, column), but a shard's
local model does not know its global rows, so the supervisor's config
validation rejects it.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.slabs import BOUNDARY_ROWS, HALO_GENERATIONS, Shard, plan_shards
from repro.lgca.backends import make_stepper
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError

__all__ = [
    "BOUNDARY_ROWS",
    "HALO_GENERATIONS",
    "Shard",
    "ShardRunner",
    "block_end",
    "plan_shards",
]


def block_end(generation: int, depth: int, interval: int, target: int) -> int:
    """The generation that ends the halo block starting at ``generation``.

    A block covers at most ``depth`` generations and never crosses a
    checkpoint (a multiple of ``interval``) or the ``target``, so every
    checkpoint and the target end a block: a worker restored from a
    checkpoint resumes at a block start, and its replay is whole blocks.
    """
    return min(generation + depth, (generation // interval + 1) * interval, target)


class ShardRunner:
    """Steps one shard's local frame; the worker process's compute core.

    Pure in-process logic (no pipes, no processes) so the sharded
    evolution is testable — and benchmarkable — without a supervisor.

    The local frame lives in a backend stepper
    (:class:`~repro.lgca.backends.KernelStepper`) for the runner's whole
    life: on ``"bitplane"`` it is packed once here, and a halo exchange
    converts only the ``shard.exchange_rows`` rows per side published by
    :meth:`boundary_rows` and the halo rows written by :meth:`set_halos`.
    One exchange keeps the slab exact for ``shard.depth`` generations;
    refreshing more often (every generation, say) is exact too.  The
    whole slab is unpacked only when :attr:`interior` is read — at
    checkpoints and for the final ``done`` message.

    Parameters
    ----------
    model:
        A *local* site model of shape ``(shard.local_rows, cols)`` —
        build it via :meth:`repro.runtime.modelspec.ModelSpec.build`.
    shard:
        The geometry of this slab.
    initial_slab:
        The owned rows' initial state, shape ``(shard.slab_rows, cols)``.
    backend:
        Kernel backend name (``"reference"`` / ``"bitplane"``).
    obstacles_mask:
        Optional local-frame boolean mask (halos included), pre-sliced
        from the global mask with :meth:`Shard.local_row_indices`.
    time:
        Generation the initial slab belongs to.
    recorder:
        Optional telemetry recorder; the runner pre-binds
        ``shard.halo_seconds`` / ``shard.step_seconds`` timers and a
        ``shard.generations`` counter, and forwards the recorder to the
        kernel stepper for ``kernel.<backend>.*`` attribution.
    """

    def __init__(
        self,
        model: object,
        shard: Shard,
        initial_slab: np.ndarray,
        backend: str = "reference",
        obstacles_mask: np.ndarray | None = None,
        time: int = 0,
        recorder: Recorder | None = None,
    ):
        rows: int = model.rows  # type: ignore[attr-defined]
        cols: int = model.cols  # type: ignore[attr-defined]
        if rows != shard.local_rows:
            raise ConfigError(
                f"local model has {rows} rows; shard {shard.index} "
                f"needs {shard.local_rows}"
            )
        if initial_slab.shape != (shard.slab_rows, cols):
            raise ConfigError(
                f"initial slab shape {initial_slab.shape} != "
                f"{(shard.slab_rows, cols)}"
            )
        self.model = model
        self.shard = shard
        self.backend = backend
        self.time = time
        from repro.lgca.automaton import ObstacleMap

        obstacles = None if obstacles_mask is None else ObstacleMap(obstacles_mask)
        rec = recorder if recorder is not None else NULL_RECORDER
        local = np.zeros((shard.local_rows, cols), dtype=np.uint8)
        local[shard.interior] = initial_slab
        self._lattice = make_stepper(
            model, obstacles=obstacles, backend=backend, recorder=recorder
        )
        self._lattice.load(local)
        self._slab_stop = shard.halo_top + shard.slab_rows
        # Null-boundary lattice edges (set_halos(None)): the halo beyond
        # the edge is emptied after every step, so nothing that flowed
        # out can bounce or collide back in during a block.
        self._absorb_top = False
        self._absorb_bottom = False
        # Pre-bound handles (see OBSERVABILITY.md): free under the null
        # recorder, allocation-free per generation under a real one.
        self._clock = rec.clock
        self._halo_timer = rec.timer("shard.halo_seconds")
        self._step_timer = rec.timer("shard.step_seconds")
        self._generations = rec.counter("shard.generations")

    @property
    def interior(self) -> np.ndarray:
        """The owned slab's current state, as a fresh site-field array.

        Converts the whole slab out of the backend's storage, so read it
        at checkpoints and at the end of the run, not every generation.
        """
        return self._lattice.read_rows(self.shard.halo_top, self._slab_stop)

    def boundary_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(top, bottom)`` — the slab's outermost rows for neighbours.

        ``shard.exchange_rows`` rows each (:data:`BOUNDARY_ROWS` at full
        depth), as fresh arrays; receivers slice off the halo depth they
        need.
        """
        top, stop, rows = self.shard.halo_top, self._slab_stop, self.shard.exchange_rows
        return (
            self._lattice.read_rows(top, top + rows),
            self._lattice.read_rows(stop - rows, stop),
        )

    def set_halos(
        self,
        above_bottom: np.ndarray | None,
        below_top: np.ndarray | None,
    ) -> None:
        """Refresh the halo rows from the neighbours' boundary rows.

        ``above_bottom`` is the *bottom* boundary rows of the shard
        above; its last ``halo_top`` rows fill the top halo.
        ``below_top`` is the *top* boundary rows of the shard below; its
        first ``halo_bottom`` rows fill the bottom halo.  ``None`` marks
        a null-boundary lattice edge, where nothing flows in: that halo
        is zero-filled now and emptied again after every step until the
        next refresh.
        """
        start = self._clock()
        shard, lattice = self.shard, self._lattice
        self._absorb_top = above_bottom is None
        self._absorb_bottom = below_top is None
        if above_bottom is None:
            lattice.clear_rows(0, shard.halo_top)
        else:
            lattice.write_rows(0, above_bottom[len(above_bottom) - shard.halo_top :])
        if below_top is None:
            lattice.clear_rows(self._slab_stop, shard.local_rows)
        else:
            lattice.write_rows(self._slab_stop, below_top[: shard.halo_bottom])
        self._halo_timer.record(self._clock() - start)

    def step(self) -> None:
        """Advance the local frame one generation.

        The slab stays exact for ``shard.depth`` steps after a
        :meth:`set_halos`.
        """
        start = self._clock()
        lattice = self._lattice
        lattice.advance(self.time)
        if self._absorb_top:
            lattice.clear_rows(0, self.shard.halo_top)
        if self._absorb_bottom:
            lattice.clear_rows(self._slab_stop, self.shard.local_rows)
        self.time += 1
        self._step_timer.record(self._clock() - start)
        self._generations.add(1)
