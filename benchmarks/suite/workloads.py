"""The repo benchmark's workloads: generated inputs, timed passes, output
checks, and a traced per-layer split.

Every workload has the same life cycle, driven by :func:`measure`:

1. ``setup(layers)`` builds the program objects the way the CLI does.
   The untraced run repeats it :data:`SETUP_REPS` times (``setup_s``);
   ``layers`` receives per-layer spans only in the traced run.
2. ``reference()`` computes, once and untimed, the result every pass is
   checked against, and returns problems found on the way.
3. ``run_pass()`` is one timed call into the program (``updates_per_s``),
   and ``check(final, info)`` lists what is wrong with its output.
4. ``traced_pass(rec)`` drives the same evolution through the program's
   public pieces, one span around each layer call, and
   ``layer_metrics`` turns those spans into the per-layer numbers.

All timing comes from one benchmark-owned
``InMemoryRecorder(clock=PERF_COUNTER)``.  The program runs on its
default null recorder, except in the traced supervised run, whose
``shard.*`` timers and ``worker.*`` spans the runtime already emits.
Inputs come from the seed alone, generated here; the program receives
only the initial frame.
"""

from __future__ import annotations

import os
import resource
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import machines
from repro.lattice.slabs import BOUNDARY_ROWS
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.backends import make_stepper
from repro.lgca.bitplane import flip_terms, split_chirality_terms
from repro.lgca.fhp import FHPModel
from repro.resilience.checkpoint import CheckpointStore
from repro.runtime import (
    InducedFault,
    ModelSpec,
    ShardRunner,
    SupervisorConfig,
    plan_shards,
    supervised_run,
)
from repro.telemetry import (
    NULL_RECORDER,
    PERF_COUNTER,
    InMemoryRecorder,
    ProcessTelemetry,
    merge_processes,
)
from repro.util.backoff import BackoffPolicy

#: Particle density of every generated initial frame.
DENSITY = 0.3
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Timed passes an untraced run makes even when ``--seconds`` is spent.
MIN_PASSES = 3
#: Worker processes of the sharded workloads (``nproc`` on the bench host).
WORKERS = 2
#: Wall-clock budget of one supervised run: a hang fails its pass instead
#: of the benchmark.
DEADLINE = 60.0
#: Generations checked bit-exact against the reference backend.
REFERENCE_GENERATIONS = 4

#: End-to-end metrics (tracing off): name -> (unit, better).
END_TO_END = {
    "updates_per_s": ("updates/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Per-layer metrics (traced run): name -> (unit, better).  A layer the
#: workload never calls reads 0.
PER_LAYER = {
    "lgca.fhp.build_s": ("s", "lower"),
    "lgca.bitplane.compile_s": ("s", "lower"),
    "lgca.bitplane.collide_ms": ("ms", "lower"),
    "lgca.bitplane.collide_ms.p99": ("ms", "lower"),
    "lgca.bitplane.propagate_ms": ("ms", "lower"),
    "lgca.bitplane.propagate_ms.p99": ("ms", "lower"),
    "lgca.bitplane.pack_ms": ("ms", "lower"),
    "lgca.bitplane.unpack_ms": ("ms", "lower"),
    "lgca.bitplane.collide_passes": ("count", "lower"),
    "host.plane_pass_us": ("us", "lower"),
    "lgca.bitplane.collide_roofline": ("ratio", "higher"),
    "lgca.automaton.overhead_ms": ("ms", "lower"),
    "runtime.shard.step_ms": ("ms", "lower"),
    "runtime.shard.step_ms.p99": ("ms", "lower"),
    "runtime.shard.halo_ms": ("ms", "lower"),
    "resilience.checkpoint.save_ms": ("ms", "lower"),
    "resilience.checkpoint.saves": ("count", "lower"),
    "resilience.checkpoint.load_ms": ("ms", "lower"),
    "runtime.worker.busy_s": ("s", "lower"),
    "runtime.worker.wait_s": ("s", "lower"),
    "runtime.supervisor.residual_s": ("s", "lower"),
    "runtime.restarts": ("count", "lower"),
    "runtime.replay_gens": ("count", "lower"),
    "runtime.restart_delay_s": ("s", "lower"),
    "engines.stage.process_ms": ("ms", "lower"),
    "engines.stage.process_ms.p99": ("ms", "lower"),
    "engines.stage.collide_ms": ("ms", "lower"),
    "engines.stage.gather_ms": ("ms", "lower"),
    "machines.run_overhead_ms": ("ms", "lower"),
    "machines.sim_ticks": ("count", "lower"),
    "trace.attributed_fraction": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Size:
    """Lattice shape and generations of one timed pass."""

    rows: int
    cols: int
    generations: int

    @property
    def updates(self) -> int:
        """Site updates one pass performs."""
        return self.rows * self.cols * self.generations


# -- inputs and oracles ---------------------------------------------------------


def random_state(rows: int, cols: int, channels: int, seed: int) -> np.ndarray:
    """Each channel bit set independently with probability :data:`DENSITY`."""
    rng = np.random.default_rng(seed)
    state = np.zeros((rows, cols), dtype=np.uint8)
    for ch in range(channels):
        state |= (rng.random((rows, cols)) < DENSITY).astype(np.uint8) << ch
    return state


def invariants(state: np.ndarray) -> tuple[int, int, int]:
    """Exact (mass, 2·p_x, 2·p_y/√3) of an FHP field, from channel counts.

    Channels run counter-clockwise from +x at 60° steps; bit 6 (the rest
    particle) adds mass only.  Integer arithmetic, so conservation is
    checked exactly rather than to a float tolerance.
    """
    n = [int(np.count_nonzero(state & np.uint8(1 << ch))) for ch in range(7)]
    px2 = 2 * n[0] + n[1] - n[2] - 2 * n[3] - n[4] + n[5]
    py = n[1] + n[2] - n[4] - n[5]
    return sum(n), px2, py


# -- cost model -----------------------------------------------------------------


def collide_passes(model: FHPModel) -> int:
    """Full-plane NumPy operations one ``BitplaneKernel.collide_into`` makes.

    Computed from the public flip terms: each term is one copy plus one
    AND per further literal (``C`` literals in all) plus one OR per
    flipped channel; around them sit ``C`` complements, ``C`` zeroings
    and ``C`` final XORs, and each chirality side adds a zeroing, a
    masking AND and an OR per channel.
    """
    channels = model.num_channels
    left, right = model.collision_tables

    def cost(terms) -> int:
        return sum(channels + len(t.flip_channels) for t in terms)

    if model.chirality in ("left", "right"):
        table = left if model.chirality == "left" else right
        return 3 * channels + cost(flip_terms(table))
    common, only_left, only_right = split_chirality_terms(left, right)
    sides = 2 * 3 * channels if only_left or only_right else 0
    return 3 * channels + cost(common) + sides + cost(only_left) + cost(only_right)


def plane_pass_seconds(rows: int, words: int, reps: int = 200, blocks: int = 15) -> float:
    """Median seconds of one NumPy AND over a ``(rows, words)`` uint64 plane."""
    rng = np.random.default_rng(0)
    a, b = (
        np.frombuffer(rng.bytes(rows * words * 8), dtype=np.uint64).reshape(rows, words)
        for _ in range(2)
    )
    out = np.empty_like(a)
    clock = PERF_COUNTER
    samples = []
    for _ in range(blocks):
        start = clock()
        for _ in range(reps):
            np.bitwise_and(a, b, out=out)
        samples.append((clock() - start) / reps)
    return statistics.median(samples)


# -- statistics -----------------------------------------------------------------


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of a sample."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def p99(values: list[float]) -> float:
    """99th percentile (the sample itself below two values)."""
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


def peak_rss_mib() -> float:
    """High-water RSS of this process and of its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- the workloads ----------------------------------------------------------------


class Workload:
    """Shared plumbing; subclasses supply the program calls."""

    name = ""
    channels = 6
    #: An extra traced call into the program itself (``None``: no such call).
    traced_program = None

    def __init__(self, size: Size, seed: int, workdir: str | Path):
        self.size = size
        self.workdir = Path(workdir)
        self.prefix = f"bench.{self.name}"
        self.initial = random_state(size.rows, size.cols, self.channels, seed)

    def span(self, rec, layer: str, **attrs):
        """A ``bench.<workload>.<layer>`` span on ``rec``."""
        return rec.span(f"{self.prefix}.{layer}", **attrs)

    def times(self, rec: InMemoryRecorder, layer: str) -> list[float]:
        """Durations of every ``bench.<workload>.<layer>`` span."""
        name = f"{self.prefix}.{layer}"
        return [s.seconds for s in rec.spans if s.name == name]

    def fresh_dir(self) -> Path:
        """A new empty directory under the work directory, for checkpoints.

        Never reused: a restarted worker restores the newest checkpoint it
        finds, so a stale one from an earlier pass would corrupt the run.
        """
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))

    def prepare(self) -> None:
        """Untimed reset before a pass."""

    def trace_setup(self, layers) -> None:
        """Extra set-up for the traced drive."""

    def extras(self, info) -> dict[str, dict]:
        """Workload-only end-to-end numbers read from the last pass."""
        return {}

    def layer_metrics(self, rec, passes: list[Pass]) -> dict[str, float]:
        """Every :data:`PER_LAYER` value from the traced run's spans.

        ``passes[0]`` is the first untraced pass; with a
        ``traced_program``, ``passes[-1]`` is its call.
        """
        raise NotImplementedError

    def untraced_wall(self, rec) -> float:
        """Median wall of the traced run's untraced passes."""
        return statistics.median(self.times(rec, "pass"))

    def common_metrics(self, rec, model: FHPModel, plane_rows: int) -> dict[str, float]:
        """:data:`PER_LAYER` zeroed, then the model build, the cost model and,
        where the bit-plane kernel ran traced, its compile, timers and roofline."""
        values = dict.fromkeys(PER_LAYER, 0.0)
        values["lgca.fhp.build_s"] = statistics.mean(self.times(rec, "lgca.fhp.build"))
        values["lgca.bitplane.collide_passes"] = collide_passes(model)
        probe = plane_pass_seconds(plane_rows, -(-self.size.cols // 64))
        values["host.plane_pass_us"] = 1e6 * probe
        if not self.times(rec, "lgca.bitplane.collide"):
            return values
        values["lgca.bitplane.compile_s"] = statistics.mean(
            self.times(rec, "lgca.bitplane.compile")
        )
        for layer in ("collide", "propagate", "pack", "unpack"):
            samples = self.times(rec, f"lgca.bitplane.{layer}")
            values[f"lgca.bitplane.{layer}_ms"] = 1e3 * statistics.median(samples)
            if layer in ("collide", "propagate"):
                values[f"lgca.bitplane.{layer}_ms.p99"] = 1e3 * p99(samples)
        values["lgca.bitplane.collide_roofline"] = (
            values["lgca.bitplane.collide_passes"] * probe * 1e3
            / values["lgca.bitplane.collide_ms"]
        )
        return values


class DirectFHP7(Workload):
    """FHP-7 in one process: ``LatticeGasAutomaton(backend="bitplane").run``.

    Collide is most of a generation and pack/unpack happen once per run,
    so collision-network work shows here while the runtime and the
    checkpoint layer are bypassed.
    """

    name = "direct_fhp7"
    channels = 7

    def setup(self, layers) -> None:
        self.model = self.auto = None  # a CLI run holds one model at a time
        with self.span(layers, "runtime.modelspec"):
            spec = ModelSpec("fhp7", self.size.rows, self.size.cols)
        with self.span(layers, "lgca.fhp.build"):
            self.model = spec.build()
        self.auto = LatticeGasAutomaton(self.model, self.initial, backend="bitplane")

    def reference(self) -> list[str]:
        self.invariants = invariants(self.initial)
        g = REFERENCE_GENERATIONS
        ref = LatticeGasAutomaton(self.model, self.initial, backend="reference").run(g)
        fast = LatticeGasAutomaton(self.model, self.initial, backend="bitplane").run(g)
        if not np.array_equal(ref, fast):
            return [f"bitplane differs from the reference backend within {g} generations"]
        return []

    def prepare(self) -> None:
        self.auto.state, self.auto.time = self.initial, 0

    def run_pass(self):
        return self.auto.run(self.size.generations), None

    def check(self, final: np.ndarray, info) -> list[str]:
        if invariants(final) != self.invariants:
            return ["mass or momentum not conserved"]
        return []

    def trace_setup(self, layers) -> None:
        with self.span(layers, "lgca.bitplane.compile"):
            self.kernel = make_stepper(self.model, backend="bitplane").kernel
        self.planes = [self.kernel.alloc_planes() for _ in range(3)]

    def traced_pass(self, rec) -> np.ndarray:
        """``LatticeGasAutomaton.run`` layer by layer: check, pack, kernels, unpack, copy."""
        kernel = self.kernel
        src, mid, dst = self.planes
        with self.span(rec, "lgca.automaton.check"):
            state = self.model.check_state(self.initial)
        with self.span(rec, "lgca.bitplane.pack"):
            src[...] = kernel.pack(state)
        for t in range(self.size.generations):
            with self.span(rec, "lgca.bitplane.collide", generation=t):
                kernel.collide_into(src, mid, t)
            with self.span(rec, "lgca.bitplane.propagate", generation=t):
                kernel.propagate_into(mid, dst)
            src, dst = dst, src
        with self.span(rec, "lgca.bitplane.unpack"):
            out = kernel.unpack(src)
        with self.span(rec, "lgca.automaton.copy"):
            return out.copy()

    def layer_metrics(self, rec, passes: list[Pass]) -> dict[str, float]:
        values = self.common_metrics(rec, self.model, self.size.rows)
        walls = self.times(rec, "traced_pass")
        kernel = sum(
            sum(self.times(rec, f"lgca.bitplane.{layer}"))
            for layer in ("pack", "collide", "propagate", "unpack")
        )
        values["lgca.automaton.overhead_ms"] = 1e3 * (sum(walls) - kernel) / len(walls)
        values["trace.overhead"] = statistics.median(walls) / self.untraced_wall(rec) - 1.0
        return values


class ShardedFHP6(Workload):
    """FHP-6 sharded over :data:`WORKERS` supervised worker processes.

    Every generation each slab is packed and unpacked and its halos cross
    the supervisor's pipes, and every 16 a checkpoint is fsynced, so
    conversion, IPC and checkpoint writes dominate.
    """

    name = "sharded_fhp6"
    faulty = False

    @property
    def interval(self) -> int:
        """Checkpoint interval: 16 at 256 generations."""
        return max(2, self.size.generations // 16)

    @property
    def fault_generation(self) -> int:
        """Crash generation: 100 at 256 generations (4 after a checkpoint)."""
        return self.size.generations * 100 // 256

    def config(self, generations: int) -> SupervisorConfig:
        options: dict[str, object] = {}
        if self.faulty:
            options = {
                "induced": (InducedFault(worker=0, generation=self.fault_generation,
                                         kind="crash"),),
                "backoff": BackoffPolicy(base_delay=0.1, jitter=0.0),
            }
        return SupervisorConfig(
            spec=self.spec,
            generations=generations,
            num_workers=WORKERS,
            backend="bitplane",
            checkpoint_interval=self.interval,
            initial_state=self.initial,
            checkpoint_dir=str(self.fresh_dir()),
            deadline_seconds=DEADLINE,
            **options,
        )

    def setup(self, layers) -> None:
        self.spec = None  # a CLI run holds one model at a time
        with self.span(layers, "runtime.modelspec"):
            self.spec = ModelSpec("fhp6", self.size.rows, self.size.cols)
        _, report = supervised_run(self.config(1))
        if report.outcome != "complete":
            raise RuntimeError(f"set-up run {report.outcome}: {report.reason}")

    def reference(self) -> list[str]:
        model = self.spec.build()
        direct = LatticeGasAutomaton(model, self.initial, backend="bitplane")
        self.expected = direct.run(self.size.generations)
        if invariants(self.expected) != invariants(self.initial):
            return ["direct bitplane run does not conserve mass and momentum"]
        return []

    def run_pass(self):
        return supervised_run(self.config(self.size.generations))

    def check(self, final, report) -> list[str]:
        problems = []
        if report.outcome != "complete":
            problems.append(f"outcome {report.outcome}: {report.reason}")
        if final is None or not np.array_equal(final, self.expected):
            problems.append("final state differs from the direct bitplane run")
        restarts = 1 if self.faulty else 0
        if len(report.restarts) != restarts:
            problems.append(f"{len(report.restarts)} restarts, expected {restarts}")
        return problems

    def trace_setup(self, layers) -> None:
        self.shards = plan_shards(self.size.rows, WORKERS)
        self.local_models, self.kernels = [], []
        for shard in self.shards:
            with self.span(layers, "lgca.fhp.build"):
                model = self.spec.build(rows=shard.local_rows)
            with self.span(layers, "lgca.bitplane.compile"):
                kernel = make_stepper(model, backend="bitplane").kernel
            self.local_models.append(model)
            self.kernels.append((kernel, (kernel.alloc_planes(), kernel.alloc_planes())))

    def _split_step(self, rec, i: int, state: np.ndarray, t: int) -> np.ndarray:
        """One ``BitplaneStepper.step`` at slab shape, one span per kernel call."""
        kernel, (mid, dst) = self.kernels[i]
        with self.span(rec, "lgca.bitplane.pack", generation=t):
            src = kernel.pack(state)
        with self.span(rec, "lgca.bitplane.collide", generation=t):
            kernel.collide_into(src, mid, t)
        with self.span(rec, "lgca.bitplane.propagate", generation=t):
            kernel.propagate_into(mid, dst)
        with self.span(rec, "lgca.bitplane.unpack", generation=t):
            return kernel.unpack(dst)

    def _runner(self, i: int, slab: np.ndarray, time: int = 0) -> ShardRunner:
        return ShardRunner(self.local_models[i], self.shards[i], slab,
                           backend="bitplane", time=time)

    def traced_pass(self, rec) -> np.ndarray:
        """The supervised evolution in one process, layer by layer.

        Halo routing, checkpoint cadence and (on the recover workload)
        the crash, ``load_latest`` and halo replay follow the supervisor
        and worker.  After each ``ShardRunner.step`` the same local frame
        is stepped again through the bit-plane kernel's public calls, so
        pack/collide/propagate/unpack are timed at slab shape and checked
        against the runner's result.
        """
        shards, n = self.shards, len(self.shards)
        root = self.fresh_dir()
        runners = [self._runner(i, self.initial[s.row_start:s.row_stop])
                   for i, s in enumerate(shards)]
        stores = [CheckpointStore(interval=self.interval, keep=3,
                                  directory=root / f"worker-{i:02d}") for i in range(n)]
        for runner, store in zip(runners, stores):
            with self.span(rec, "resilience.checkpoint.save"):
                store.save(runner.time, runner.interior)
        history: dict[int, list] = {}
        for g in range(self.size.generations):
            if self.faulty and g == self.fault_generation:
                runners[0], stores[0] = self._recover(rec, root, history, g)
            with self.span(rec, "runtime.shard.halo", generation=g):
                edges = [r.boundary_rows() for r in runners]
                halos = [(edges[(i - 1) % n][1], edges[(i + 1) % n][0]) for i in range(n)]
                for runner, (above, below) in zip(runners, halos):
                    runner.set_halos(above, below)
            history[g] = halos
            history.pop(g - 2 * self.interval - 4, None)
            for i, (runner, shard) in enumerate(zip(runners, shards)):
                above, below = halos[i]
                local = np.vstack([above[BOUNDARY_ROWS - shard.halo_top:],
                                   runner.interior, below[:shard.halo_bottom]])
                with self.span(rec, "runtime.shard.step", generation=g):
                    runner.step()
                stepped = self._split_step(rec, i, local, g)
                if not np.array_equal(stepped[shard.interior], runner.interior):
                    raise AssertionError(f"kernel split differs from ShardRunner.step "
                                         f"on shard {i} at generation {g}")
                if stores[i].due(runner.time):
                    with self.span(rec, "resilience.checkpoint.save"):
                        stores[i].save(runner.time, runner.interior)
        return np.vstack([r.interior for r in runners])

    def _recover(self, rec, root: Path, history: dict, g: int):
        """Shard 0 restarts: newest checkpoint, then halo replay up to ``g``."""
        directory = root / "worker-00"
        with self.span(rec, "resilience.checkpoint.load"):
            cp = CheckpointStore.load_latest(directory)
        runner = self._runner(0, cp.state, time=cp.generation)
        store = CheckpointStore(interval=self.interval, keep=3, directory=directory)
        with self.span(rec, "runtime.replay"):
            for gen in range(cp.generation, g):
                runner.set_halos(*history[gen][0])
                runner.step()
                if store.due(runner.time):
                    store.save(runner.time, runner.interior)
        return runner, store

    def traced_program(self):
        """One supervised run with a collecting recorder."""
        recorder = InMemoryRecorder(clock=PERF_COUNTER)
        return supervised_run(self.config(self.size.generations), recorder=recorder)

    def layer_metrics(self, rec, passes: list[Pass]) -> dict[str, float]:
        values = self.common_metrics(rec, self.local_models[0], self.shards[0].local_rows)
        step = self.times(rec, "runtime.shard.step")
        values["runtime.shard.step_ms"] = 1e3 * statistics.median(step)
        values["runtime.shard.step_ms.p99"] = 1e3 * p99(step)
        values["runtime.shard.halo_ms"] = 1e3 * statistics.median(
            self.times(rec, "runtime.shard.halo")
        )
        values["resilience.checkpoint.save_ms"] = 1e3 * statistics.median(
            self.times(rec, "resilience.checkpoint.save")
        )
        loads = self.times(rec, "resilience.checkpoint.load")
        if loads:
            values["resilience.checkpoint.load_ms"] = 1e3 * statistics.median(loads)
        program = passes[-1]
        values.update(supervisor_metrics(program.info, program.wall))
        values["trace.overhead"] = program.wall / self.untraced_wall(rec) - 1.0
        return values


class ShardedRecoverFHP6(ShardedFHP6):
    """:class:`ShardedFHP6` with worker 0 crashing once on every pass.

    The crash at generation 100 adds a checkpoint load, a 4-generation
    halo replay and a respawn: the read side of the checkpoint layer,
    where :class:`ShardedFHP6` shows its write side.
    """

    name = "sharded_recover_fhp6"
    faulty = True


def supervisor_metrics(report, wall: float) -> dict[str, float]:
    """Runtime layer numbers from a supervised run's own telemetry.

    ``busy`` is ``shard.step_seconds + shard.halo_seconds`` and ``wait``
    the rest of the ``worker.run`` span, summed over worker lives whose
    run span closed and divided by the worker count: a crashed life
    keeps only what it spooled at its last checkpoint.
    """
    telemetry = report.telemetry
    runs: dict[str, float] = {}
    replays: dict[str, int] = {}
    for s in telemetry.spans:
        if s["name"] == "worker.run" and s.get("end") is not None:
            runs[s["process"]] = runs.get(s["process"], 0.0) + float(s["seconds"])
        elif s["name"] == "worker.replay":
            replays[s["process"]] = int(s["generation"])
    busy = 0.0
    for p in telemetry.processes:
        if p["name"] in runs:
            timers = p["timers"]
            busy += sum(float(timers[t]["total_seconds"])
                        for t in ("shard.step_seconds", "shard.halo_seconds") if t in timers)
    replay = sum(
        r.generation - replays.get(f"worker-{r.worker}.{r.incarnation}", r.generation)
        for r in report.restarts
    )
    return {
        "runtime.worker.busy_s": busy / WORKERS,
        "runtime.worker.wait_s": (sum(runs.values()) - busy) / WORKERS,
        "runtime.supervisor.residual_s": wall - max(runs.values()),
        "runtime.restarts": len(report.restarts),
        "runtime.replay_gens": replay,
        "runtime.restart_delay_s": sum(r.delay for r in report.restarts),
        "resilience.checkpoint.saves": sum(report.checkpoint_saves.values()),
    }


class EngineSPAFHP6(Workload):
    """The paper's SPA engine simulator on its reference dataflow.

    Every site streams through ``PipelineStage.process`` (table collide
    plus gather); no bit-plane kernel or runtime code runs, so changes
    there should leave this workload alone.
    """

    name = "engine_spa_fhp6"

    def setup(self, layers) -> None:
        self.model = self.engine = None  # a CLI run holds one model at a time
        with self.span(layers, "lgca.fhp.build"):
            self.model = FHPModel(self.size.rows, self.size.cols, boundary="null")
        self.engine = machines.create("spa", self.model, pipeline_depth=4, slice_width=32)

    def reference(self) -> list[str]:
        direct = LatticeGasAutomaton(self.model, self.initial, backend="bitplane")
        self.expected = direct.run(self.size.generations)
        self.predicted = machines.get("spa").predicted_ticks(self.engine, self.size.generations)
        return []

    def run_pass(self):
        return self.engine.run(self.initial, self.size.generations)

    def check(self, final, stats) -> list[str]:
        problems = []
        if not np.array_equal(final, self.expected):
            problems.append("final frame differs from the bitplane automaton")
        if stats is not None and stats.ticks != self.predicted:
            problems.append(f"sim_ticks {stats.ticks} != predicted {self.predicted}")
        return problems

    def extras(self, stats) -> dict[str, dict]:
        return {"sim_ticks": {"value": stats.ticks, "unit": "ticks"}}

    def trace_setup(self, layers) -> None:
        n = self.size.rows * self.size.cols
        self.r = np.arange(n, dtype=np.int64) // self.size.cols
        self.c = np.arange(n, dtype=np.int64) % self.size.cols

    def traced_pass(self, rec) -> np.ndarray:
        """``engine.run`` on the reference dataflow: one ``stage.process``
        per generation; then ``stage.collide_sites`` on the same streams,
        in a loop of its own so it leaves the process timings alone."""
        stage = self.engine.stage
        streams = [self.initial.ravel().copy()]
        for t in range(self.size.generations):
            with self.span(rec, "engines.stage.process", generation=t):
                stream = stage.process(streams[-1], t)
            streams.append(stream.copy())
        for t, stream in enumerate(streams[:-1]):
            with self.span(rec, "engines.stage.collide", generation=t):
                stage.collide_sites(stream, self.r, self.c, t)
        return streams[-1].reshape(self.initial.shape)

    def layer_metrics(self, rec, passes: list[Pass]) -> dict[str, float]:
        untraced_wall = self.untraced_wall(rec)
        values = self.common_metrics(rec, self.model, self.size.rows)
        process = self.times(rec, "engines.stage.process")
        collide = self.times(rec, "engines.stage.collide")
        values["engines.stage.process_ms"] = 1e3 * statistics.median(process)
        values["engines.stage.process_ms.p99"] = 1e3 * p99(process)
        values["engines.stage.collide_ms"] = 1e3 * statistics.median(collide)
        values["engines.stage.gather_ms"] = (
            values["engines.stage.process_ms"] - values["engines.stage.collide_ms"]
        )
        values["machines.run_overhead_ms"] = (
            1e3 * untraced_wall / self.size.generations - values["engines.stage.process_ms"]
        )
        values["machines.sim_ticks"] = passes[0].info.ticks
        walls = self.times(rec, "traced_pass")
        values["trace.overhead"] = (
            (sum(walls) - sum(collide)) / len(walls) / untraced_wall - 1.0
        )
        return values


WORKLOADS = {w.name: w for w in (DirectFHP7, ShardedFHP6, ShardedRecoverFHP6, EngineSPAFHP6)}

#: The sizes the benchmark runs; the tests pass smaller ones.  Passes of
#: about 1.5 s (3 s where a pass spawns workers) give a run enough
#: samples for a median that host noise of a few seconds does not move.
FULL_SIZES = {
    "direct_fhp7": Size(2048, 2048, 128),
    "sharded_fhp6": Size(2048, 2048, 256),
    "sharded_recover_fhp6": Size(2048, 2048, 256),
    "engine_spa_fhp6": Size(1024, 1024, 32),
}


# -- measuring ------------------------------------------------------------------


@dataclass
class Pass:
    """One timed call: wall seconds (``None`` if it raised) and its check."""

    wall: float | None
    problems: list[str]
    final: np.ndarray | None = None
    info: object = None


@dataclass
class Outcome:
    """What one run measured and how its outputs checked out."""

    metrics: dict[str, dict]
    passes: list[Pass]
    static: list[str]
    recorder: InMemoryRecorder
    extras: dict[str, dict] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.passes)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.passes if p.problems or self.static)

    @property
    def problems(self) -> list[str]:
        return self.static + [msg for p in self.passes for msg in p.problems]

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def _timed(w: Workload, rec: InMemoryRecorder, layer: str, call, check) -> Pass:
    """One ``bench.<workload>.<layer>``-timed call and its output check."""
    p = Pass(None, [])
    try:
        w.prepare()
        with w.span(rec, layer) as span:
            p.final, p.info = call()
        p.wall = span.seconds
        p.problems = check(p.final, p.info)
    except Exception as exc:  # a pass that raises is counted as failed
        p.problems = [f"{type(exc).__name__}: {exc}"]
    return p


def measure(w: Workload, seconds: float, trace: bool) -> Outcome:
    """One run of one workload: the end-to-end metrics, or with ``trace``
    the per-layer split."""
    rec = InMemoryRecorder(clock=PERF_COUNTER)
    w.workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        return _measure_traced(w, rec, seconds)
    for _ in range(SETUP_REPS):
        with w.span(rec, "setup"):
            w.setup(NULL_RECORDER)
    static = w.reference()
    passes: list[Pass] = []
    start = rec.clock()
    while len(passes) < MIN_PASSES or rec.clock() - start < seconds:
        passes.append(_timed(w, rec, "pass", w.run_pass, w.check))
    walls = [p.wall for p in passes if p.wall is not None]
    outcome = Outcome({}, passes, static, rec)
    if not walls:
        return outcome
    outcome.metrics = {
        "updates_per_s": summarize([w.size.updates / s for s in walls]),
        "setup_s": summarize(w.times(rec, "setup")),
        "peak_rss_mb": summarize([peak_rss_mib()]),
    }
    for name, (unit, _) in END_TO_END.items():
        outcome.metrics[name]["unit"] = unit
    if passes[-1].info is not None:
        outcome.extras = w.extras(passes[-1].info)
    return outcome


def _measure_traced(w: Workload, rec: InMemoryRecorder, seconds: float) -> Outcome:
    w.setup(rec)
    w.trace_setup(rec)
    static = w.reference()
    passes = [_timed(w, rec, "pass", w.run_pass, w.check)]
    untraced = passes[0].final

    def same(final, info) -> list[str]:
        if untraced is None or not np.array_equal(final, untraced):
            return ["traced final state differs from the untraced run"]
        return []

    # Untraced passes alternate with traced ones, so trace.overhead
    # compares the two under the same host load.
    start = rec.clock()
    while len(passes) < 3 or rec.clock() - start < seconds:
        passes.append(_timed(w, rec, "traced_pass", lambda: (w.traced_pass(rec), None), same))
        passes.append(_timed(w, rec, "pass", w.run_pass, w.check))
    if w.traced_program is not None:
        passes.append(_timed(w, rec, "program", w.traced_program,
                             lambda final, info: w.check(final, info) + same(final, info)))
    outcome = Outcome({}, passes, static, rec)
    if not outcome.correct:
        return outcome
    values = w.layer_metrics(rec, passes)
    walls = w.times(rec, "traced_pass")
    pass_spans = {s.index for s in rec.spans if s.name == f"{w.prefix}.traced_pass"}
    attributed = sum(s.seconds for s in rec.spans if s.parent in pass_spans)
    values["trace.attributed_fraction"] = attributed / sum(walls)
    outcome.metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, (unit, _) in PER_LAYER.items()}
    return outcome


def telemetry_entries(w: Workload, outcome: Outcome) -> list[dict[str, object]]:
    """JSON-ready process entries of a traced run, for :func:`telemetry_report`.

    The benchmark's own spans form one entry; a traced supervised run
    adds the merged telemetry the runtime reported as a second.
    """
    entries: list[dict[str, object]] = [{
        "name": w.name,
        "kind": "benchmark",
        "pid": os.getpid(),
        "snapshot": outcome.recorder.snapshot(),
    }]
    report = getattr(outcome.passes[-1].info, "telemetry", None)
    if report is not None:
        entries.append({
            "name": f"{w.name}.supervised_run",
            "kind": "program",
            "snapshot": {"counters": report.counters, "timers": report.timers,
                         "spans": report.spans, "events": report.events},
        })
    return entries


def telemetry_report(entries: list[dict[str, object]], meta: dict[str, object]):
    """One schema-v2 report from the entries of several traced runs."""
    processes = [ProcessTelemetry(**entry) for entry in entries]  # type: ignore[arg-type]
    return merge_processes(processes, meta=meta, producer="benchmarks/suite")
