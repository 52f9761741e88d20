"""The shard worker process: step, checkpoint, exchange halos, obey.

One worker owns one row slab (:class:`~repro.runtime.sharding.Shard`)
and talks to the supervisor over a duplex pipe in strict lock-step:

=================================== =====================================
worker sends                        supervisor replies
=================================== =====================================
``("ready", incarnation, gen,       ``("replay", [(g, above, below)...])``
``clock)``
``("boundary", g, top, bottom)``    ``("halo", g, above, below)``
``("checkpoint", g)``               —  (accounting only)
``("done", g)``                     ``("collect",)``
``("state", g, slab)``              ``("stop",)``
``("error", g, message)``           —  (the worker exits)
=================================== =====================================

Every incarnation checkpoints its slab crash-safely
(:class:`~repro.resilience.checkpoint.CheckpointStore` with a
directory); a restarted incarnation finds no ``initial_slab`` in its
config, restores the newest intact checkpoint, announces the restored
generation in ``ready``, and the supervisor replays the buffered halo
history to catch it up to the barrier — bit-identically, because the
kernels are deterministic and the halos are the exact rows the dead
incarnation saw.

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
loses in lattice state.

:class:`InducedFault` is the runtime's chaos hook (the process-level
sibling of :class:`repro.resilience.faults.FaultSpec`): a configured
worker kills itself, stalls, or raises at an exact generation, so tests
and the CI smoke job exercise real worker death instead of simulated
corruption.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

from repro.resilience.checkpoint import CheckpointStore
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import Shard, ShardRunner
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


@dataclass(frozen=True)
class InducedFault:
    """A process-level fault a worker inflicts on itself, for testing.

    Parameters
    ----------
    worker:
        Target worker index.
    generation:
        Fires when the worker is about to publish its boundary rows for
        this generation.
    kind:
        ``"crash"`` (hard ``os._exit`` — models OOM-kill / segfault),
        ``"stall"`` (sleep ``seconds`` — models a hang; the watchdog
        must reap it), or ``"backend-error"`` (raise — models a kernel
        bug surfacing on one backend).
    backend:
        Restrict firing to incarnations running this backend (``None``
        fires on any) — with the circuit breaker this models a fault
        that follows the *backend*, not the worker.
    incarnations:
        Fire only while ``incarnation < incarnations`` (default 1: the
        first life only, so the restarted worker survives).
    seconds:
        Stall duration for ``kind="stall"``.
    """

    worker: int
    generation: int
    kind: str
    backend: str | None = None
    incarnations: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "stall", "backend-error"):
            raise ConfigError(
                f"kind={self.kind!r} must be crash, stall, or backend-error"
            )
        check_nonnegative(self.worker, "worker", integer=True)
        check_nonnegative(self.generation, "generation", integer=True)
        check_positive(self.incarnations, "incarnations", integer=True)
        check_positive(self.seconds, "seconds")

    def armed(self, worker: int, generation: int, incarnation: int, backend: str) -> bool:
        """Whether this fault fires for the given worker state."""
        return (
            self.worker == worker
            and self.generation == generation
            and incarnation < self.incarnations
            and (self.backend is None or self.backend == backend)
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "worker": self.worker,
            "generation": self.generation,
            "kind": self.kind,
            "backend": self.backend,
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
    checkpoint_keep: int = 2
    incarnation: int = 0
    initial_slab: np.ndarray | None = None
    obstacles_mask: np.ndarray | None = None
    induced: tuple[InducedFault, ...] = ()
    spool_path: str | None = None


def _fire_induced(config: WorkerConfig, generation: int) -> None:
    """Inflict any armed induced fault for ``generation`` on ourselves."""
    for fault in config.induced:
        if not fault.armed(config.worker, generation, config.incarnation, config.backend):
            continue
        if fault.kind == "crash":
            os._exit(EXIT_INDUCED_CRASH)
        if fault.kind == "stall":
            time.sleep(fault.seconds)
        elif fault.kind == "backend-error":
            raise RuntimeError(
                f"induced backend error on {config.backend!r} "
                f"(worker {config.worker}, generation {generation})"
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


def _checkpoint(
    store: CheckpointStore,
    runner: ShardRunner,
    conn: Connection,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> None:
    store.save(runner.time, runner.interior)
    _spool_snapshot(spool, recorder, status="checkpoint", generation=runner.time)
    conn.send(("checkpoint", runner.time))


def _advance_to_target(
    config: WorkerConfig,
    conn: Connection,
    runner: ShardRunner,
    store: CheckpointStore,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> bool:
    """Replay buffered halos, then step to the target; False on early stop."""
    msg = conn.recv()
    if msg[0] == "stop":
        return False
    assert msg[0] == "replay", msg[0]
    if msg[1]:
        with recorder.span("worker.replay", generation=runner.time):
            for generation, above, below in msg[1]:
                assert generation == runner.time, (generation, runner.time)
                runner.set_halos(above, below)
                runner.step()
                if store.due(runner.time):
                    _checkpoint(store, runner, conn, recorder, spool)

    with recorder.span("worker.run", generation=runner.time):
        while runner.time < config.target_generation:
            generation = runner.time
            _fire_induced(config, generation)
            top, bottom = runner.boundary_rows()
            conn.send(("boundary", generation, top, bottom))
            msg = conn.recv()
            if msg[0] == "stop":
                return False
            assert msg[0] == "halo" and msg[1] == generation, msg[:2]
            runner.set_halos(msg[2], msg[3])
            runner.step()
            if store.due(runner.time):
                _checkpoint(store, runner, conn, recorder, spool)
    return True


def _worker_loop(
    config: WorkerConfig,
    conn: Connection,
    recorder: Recorder,
    spool: SpoolWriter | None,
) -> None:
    shard = config.shard
    model = config.spec.build(rows=shard.local_rows)
    store = CheckpointStore(
        interval=config.checkpoint_interval,
        keep=config.checkpoint_keep,
        directory=config.checkpoint_dir,
    )
    restored = config.initial_slab is None
    if restored:
        cp = CheckpointStore.load_latest(config.checkpoint_dir)
        runner = ShardRunner(
            model,
            shard,
            cp.state,
            backend=config.backend,
            obstacles_mask=config.obstacles_mask,
            time=cp.generation,
            recorder=recorder,
        )
    else:
        runner = ShardRunner(
            model,
            shard,
            config.initial_slab,
            backend=config.backend,
            obstacles_mask=config.obstacles_mask,
            time=0,
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
            },
            target_generation=config.target_generation,
            restored_generation=runner.time if restored else None,
        )
    # The clock reading rides in ``ready`` for the alignment handshake;
    # MONOTONIC is also the spooling recorder's clock, so the offset the
    # supervisor computes applies to every span/event we record.
    conn.send(("ready", config.incarnation, runner.time, MONOTONIC()))
    if not restored:
        _checkpoint(store, runner, conn, recorder, spool)

    finished = _advance_to_target(config, conn, runner, store, recorder, spool)
    _spool_snapshot(
        spool,
        recorder,
        status="done" if finished else "stopped",
        generation=runner.time,
    )
    if not finished:
        return
    conn.send(("done", runner.time))
    msg = conn.recv()
    if msg[0] == "collect":
        conn.send(("state", runner.time, runner.interior))
        conn.recv()  # the final ("stop",)


def worker_main(config: WorkerConfig, conn: Connection) -> None:
    """Process entry point: run the shard loop, report errors, exit.

    Any exception is reported as an ``("error", ...)`` message before a
    hard exit, so the supervisor can distinguish a backend bug (restart
    on the fallback backend) from a silent death (plain restart).  With
    a spool configured, a last-gasp snapshot is attempted first so the
    failing incarnation's telemetry survives it.
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
