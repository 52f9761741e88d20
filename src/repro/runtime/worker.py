"""The shard worker process: step, checkpoint, exchange halos, obey.

One worker owns one row slab (:class:`~repro.runtime.sharding.Shard`)
and talks to the supervisor over a duplex pipe in strict lock-step,
once per *block* of generations
(:func:`~repro.runtime.sharding.block_end`: at most ``shard.depth``
generations, ending at every checkpoint and at the target):

=================================== =====================================
worker sends                        supervisor replies
=================================== =====================================
``("ready", incarnation, gen,       ``("replay", [(b, above, below)...])``
``clock)``                          — one entry per block start ``b``
``("boundary", b, top, bottom)``    ``("halo", b, above, below)``
at block start ``b``                — the worker then steps the block
``("checkpoint", g)``               —  (accounting only)
``("done", g, slab)``               ``("stop",)``
``("error", g, message)``           —  (the worker exits)
=================================== =====================================

Between ``halo`` and its next ``boundary`` a worker is silent for one
block of steps plus, at a checkpoint, one durable save.

Every incarnation checkpoints its slab crash-safely
(:class:`~repro.resilience.checkpoint.CheckpointStore` with a
directory) at block ends; a restarted incarnation finds no
``initial_slab`` in its config, restores the newest intact checkpoint —
always a block start — announces the restored generation in ``ready``,
and the supervisor replays the buffered halo history, whole blocks, to
catch it up to the barrier — bit-identically, because the kernels are
deterministic and the halos are the exact rows the dead incarnation
saw.

``ready`` also carries a reading of the worker's monotonic clock — the
supervisor timestamps the receipt and the difference becomes this
incarnation's clock offset, aligning its spooled span/event times onto
the coordinator timeline (see :mod:`repro.telemetry.merge`).

Telemetry follows the checkpoint discipline: when
``WorkerConfig.spool_path`` is set, the worker records into a private
:class:`~repro.telemetry.InMemoryRecorder` and appends cumulative
snapshots to a crash-safe spool (:mod:`repro.telemetry.spool`) — at
every checkpoint and once more before ``done`` — so a killed worker
loses at most the telemetry since its last checkpoint, exactly what it
loses in lattice state.  Besides the runner's ``shard.*`` handles a
worker counts its halo round trips (``shard.exchanges``, one per block
outside replay) and times its durable saves
(``shard.checkpoint_seconds``).

:class:`InducedFault` is the runtime's chaos hook (the process-level
sibling of :class:`repro.resilience.faults.FaultSpec`): a configured
worker kills itself, stalls, or raises at an exact generation, so tests
and the CI smoke job exercise real worker death instead of simulated
corruption.  A fault at generation ``g`` fires just before the
incarnation steps ``g``, in a replayed block too; one at the target
generation fires after the last step, before ``done``: the worker dies
with its final slab unsent.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.resilience.checkpoint import CheckpointStore
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import Shard, ShardRunner, block_end
from repro.telemetry import (
    MONOTONIC,
    NULL_RECORDER,
    InMemoryRecorder,
    Recorder,
    SpoolWriter,
    TelemetryError,
)
from repro.util.errors import ConfigError
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["InducedFault", "WorkerConfig", "worker_main"]

#: Exit codes a worker uses for deliberate self-termination.
EXIT_INDUCED_CRASH = 13
EXIT_ERROR = 3

#: Durable checkpoints each worker keeps on disk.
CHECKPOINT_KEEP = 3


@dataclass(frozen=True)
class InducedFault:
    """A process-level fault a worker inflicts on itself, for testing.

    Parameters
    ----------
    worker:
        Target worker index.
    generation:
        Fires just before the worker steps this generation — mid-block
        or while replaying a block alike — or, at the target generation,
        just before it sends its final slab.
    kind:
        ``"crash"`` (hard ``os._exit`` — models OOM-kill / segfault),
        ``"stall"`` (sleep ``seconds`` — models a hang; the watchdog
        must reap it), or ``"error"`` (raise — models a kernel bug; the
        worker reports it before it exits).
    incarnations:
        Fire only while ``incarnation < incarnations`` (default 1: the
        first life only, so the restarted worker survives).
    seconds:
        Stall duration for ``kind="stall"`` (finite).
    """

    worker: int
    generation: int
    kind: str
    incarnations: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "stall", "error"):
            raise ConfigError(f"kind={self.kind!r} must be crash, stall, or error")
        check_nonnegative(self.worker, "worker", integer=True)
        check_nonnegative(self.generation, "generation", integer=True)
        check_positive(self.incarnations, "incarnations", integer=True)
        check_positive(self.seconds, "seconds")
        if not math.isfinite(self.seconds):
            raise ConfigError(f"seconds={self.seconds!r} must be finite")

    def armed(self, worker: int, generation: int, incarnation: int) -> bool:
        """Whether this fault fires for the given worker state."""
        return (
            self.worker == worker
            and self.generation == generation
            and incarnation < self.incarnations
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "worker": self.worker,
            "generation": self.generation,
            "kind": self.kind,
            "incarnations": self.incarnations,
        }


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker incarnation needs, by value (picklable).

    ``initial_slab`` is set on the first incarnation only; later
    incarnations restore from the checkpoint directory instead.
    ``spool_path`` switches per-worker telemetry on: the worker records
    into its own recorder and spools snapshots there (one file per
    incarnation, the supervisor names it).
    """

    worker: int
    spec: ModelSpec
    shard: Shard
    backend: str
    target_generation: int
    checkpoint_dir: str
    checkpoint_interval: int
    incarnation: int = 0
    initial_slab: np.ndarray | None = None
    obstacles_mask: np.ndarray | None = None
    induced: tuple[InducedFault, ...] = ()
    spool_path: str | None = None


def _fire_induced(config: WorkerConfig, generation: int) -> None:
    """Inflict any armed induced fault for ``generation`` on ourselves."""
    for fault in config.induced:
        if not fault.armed(config.worker, generation, config.incarnation):
            continue
        if fault.kind == "crash":
            os._exit(EXIT_INDUCED_CRASH)
        if fault.kind == "stall":
            time.sleep(fault.seconds)
        elif fault.kind == "error":
            raise RuntimeError(
                f"induced error (worker {config.worker}, generation {generation})"
            )


def _spool_snapshot(
    spool: SpoolWriter | None,
    recorder: Recorder,
    status: str,
    generation: int,
) -> None:
    """Best-effort cumulative snapshot frame (telemetry never kills a worker)."""
    if spool is None:
        return
    try:
        spool.snapshot_frame(
            recorder.snapshot(),  # type: ignore[attr-defined]
            status=status,
            generation=generation,
        )
    except TelemetryError:
        pass


class _Incarnation:
    """One incarnation's stepping state: runner, store, pipe, telemetry."""

    def __init__(
        self,
        config: WorkerConfig,
        conn: Connection,
        runner: ShardRunner,
        recorder: Recorder,
        spool: SpoolWriter | None,
    ):
        self.config = config
        self.conn = conn
        self.runner = runner
        self.recorder = recorder
        self.spool = spool
        self.store = CheckpointStore(
            interval=config.checkpoint_interval,
            keep=CHECKPOINT_KEEP,
            directory=config.checkpoint_dir,
        )
        self._exchanges = recorder.counter("shard.exchanges")
        self._checkpoint_timer = recorder.timer("shard.checkpoint_seconds")

    def checkpoint(self) -> None:
        runner = self.runner
        start = self.recorder.clock()
        self.store.save(runner.time, runner.interior)
        self._checkpoint_timer.record(self.recorder.clock() - start)
        _spool_snapshot(self.spool, self.recorder, status="checkpoint", generation=runner.time)
        self.conn.send(("checkpoint", runner.time))

    def run_block(self, above: np.ndarray | None, below: np.ndarray | None) -> None:
        """Step one block from fresh halos, then checkpoint if one is due."""
        config, runner = self.config, self.runner
        end = block_end(
            runner.time,
            runner.shard.depth,
            config.checkpoint_interval,
            config.target_generation,
        )
        runner.set_halos(above, below)
        while runner.time < end:
            _fire_induced(config, runner.time)
            runner.step()
        if self.store.due(runner.time):
            self.checkpoint()

    def advance_to_target(self) -> bool:
        """Replay buffered blocks, then step to the target; False on early stop."""
        conn, runner, recorder = self.conn, self.runner, self.recorder
        msg = conn.recv()
        if msg[0] == "stop":
            return False
        assert msg[0] == "replay", msg[0]
        if msg[1]:
            with recorder.span("worker.replay", generation=runner.time):
                for generation, above, below in msg[1]:
                    assert generation == runner.time, (generation, runner.time)
                    self.run_block(above, below)

        with recorder.span("worker.run", generation=runner.time):
            while runner.time < self.config.target_generation:
                generation = runner.time
                top, bottom = runner.boundary_rows()
                conn.send(("boundary", generation, top, bottom))
                msg = conn.recv()
                if msg[0] == "stop":
                    return False
                assert msg[0] == "halo" and msg[1] == generation, msg[:2]
                self._exchanges.add(1)
                self.run_block(msg[2], msg[3])
        return True


def _worker_loop(
    config: WorkerConfig,
    conn: Connection,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> None:
    shard = config.shard
    model = config.spec.build(rows=shard.local_rows)
    restored = config.initial_slab is None
    if restored:
        cp = CheckpointStore.load_latest(config.checkpoint_dir)
        slab, generation = cp.state, cp.generation
    else:
        slab, generation = config.initial_slab, 0
    runner = ShardRunner(
        model,
        shard,
        slab,
        backend=config.backend,
        obstacles_mask=config.obstacles_mask,
        time=generation,
        recorder=recorder,
    )
    if spool is not None:
        spool.open_frame(
            worker=config.worker,
            incarnation=config.incarnation,
            pid=os.getpid(),
            backend=config.backend,
            shard={
                "index": shard.index,
                "row_start": shard.row_start,
                "row_stop": shard.row_stop,
                "halo_top": shard.halo_top,
                "halo_bottom": shard.halo_bottom,
                "depth": shard.depth,
            },
            target_generation=config.target_generation,
            restored_generation=runner.time if restored else None,
        )
    worker = _Incarnation(config, conn, runner, recorder, spool)
    # The clock reading rides in ``ready`` for the alignment handshake;
    # MONOTONIC is also the spooling recorder's clock, so the offset the
    # supervisor computes applies to every span/event we record.
    conn.send(("ready", config.incarnation, runner.time, MONOTONIC()))
    if not restored:
        worker.checkpoint()

    if not worker.advance_to_target():
        _spool_snapshot(spool, recorder, status="stopped", generation=runner.time)
        return
    _fire_induced(config, runner.time)
    _spool_snapshot(spool, recorder, status="done", generation=runner.time)
    conn.send(("done", runner.time, runner.interior))
    conn.recv()  # the final ("stop",)


def worker_main(config: WorkerConfig, conn: Connection) -> None:
    """Process entry point: run the shard loop, report errors, exit.

    Any exception is reported as an ``("error", ...)`` message before a
    hard exit, so the supervisor's restart reason names the exception
    instead of an exit code; either way the worker is restarted and
    replayed on the same backend.  With a spool configured, a last-gasp
    snapshot is attempted first so the failing incarnation's telemetry
    survives it.
    """
    recorder: Recorder = NULL_RECORDER
    spool: SpoolWriter | None = None
    try:
        if config.spool_path is not None:
            recorder = InMemoryRecorder(clock=MONOTONIC)
            spool = SpoolWriter(config.spool_path)
        _worker_loop(config, conn, recorder, spool)
    except Exception as exc:  # deliberate last-resort: report, then die
        _spool_snapshot(spool, recorder, status="error", generation=-1)
        try:
            conn.send(("error", -1, f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        os._exit(EXIT_ERROR)
    finally:
        if spool is not None:
            spool.close()
        conn.close()
