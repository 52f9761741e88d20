"""Halo depth sweep: where a 2-worker supervised generation's time goes.

Runs the same supervised evolution (FHP-6, periodic, ``bitplane``, one
durable checkpoint every ``--interval`` generations) with the slab
planner's depth forced to each of ``--depths``, plus a single-process
``LatticeGasAutomaton`` reference on the same frame.  Every supervised
pass records into a collecting recorder, and the merged multi-process
report splits each worker's ``worker.run`` span into:

* busy — ``shard.step_seconds`` + ``shard.halo_seconds``;
* checkpoint — ``shard.checkpoint_seconds`` (durable saves, fsync included);
* wait — the rest of the span: blocked on the supervisor's barrier.

Every pass is checked bit-identical to the reference.  The depth is
lowered the way short slabs lower it, by setting
``repro.lattice.slabs.HALO_GENERATIONS`` in this process before the
supervisor plans its shards (workers receive their planned shard).

Run directly::

    PYTHONPATH=src python benchmarks/bench_halo_depth.py --rows 2048 --cols 2048 \\
        --generations 256 --repeats 3

prints one markdown table (median over ``--repeats`` passes per column).
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
from unittest import mock

import numpy as np

from repro.lattice import slabs
from repro.lgca.automaton import LatticeGasAutomaton
from repro.runtime import ModelSpec, SupervisorConfig, supervised_run
from repro.telemetry import PERF_COUNTER, InMemoryRecorder


def split(report) -> dict[str, float]:
    """Per-worker means of run/busy/checkpoint/wait from a merged report."""
    telemetry = report.telemetry
    runs = {s["process"]: float(s["seconds"]) for s in telemetry.spans
            if s["name"] == "worker.run" and s.get("end") is not None}
    totals = {"run": 0.0, "busy": 0.0, "checkpoint": 0.0, "exchanges": 0.0}
    for p in telemetry.processes:
        if p["name"] not in runs:
            continue
        timers = p["timers"]

        def seconds(name: str) -> float:
            return float(timers[name]["total_seconds"]) if name in timers else 0.0

        totals["run"] += runs[p["name"]]
        totals["busy"] += seconds("shard.step_seconds") + seconds("shard.halo_seconds")
        totals["checkpoint"] += seconds("shard.checkpoint_seconds")
        totals["exchanges"] += float(p["counters"].get("shard.exchanges", 0))
    n = len(runs)
    means = {k: v / n for k, v in totals.items()}
    means["wait"] = means["run"] - means["busy"] - means["checkpoint"]
    return means


def supervised_pass(spec, init, generations, interval, expected) -> dict[str, float]:
    with tempfile.TemporaryDirectory(prefix="halo-depth-") as root:
        config = SupervisorConfig(
            spec=spec, generations=generations, num_workers=2, backend="bitplane",
            initial_state=init, checkpoint_dir=root, checkpoint_interval=interval,
            watchdog_timeout=120.0,
        )
        start = PERF_COUNTER()
        state, report = supervised_run(config, recorder=InMemoryRecorder(clock=PERF_COUNTER))
        wall = PERF_COUNTER() - start
    if report.outcome != "complete" or not np.array_equal(state, expected):
        raise AssertionError(f"supervised pass not bit-identical ({report.outcome})")
    return {"wall": wall, **split(report)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2048)
    parser.add_argument("--cols", type=int, default=2048)
    parser.add_argument("--generations", type=int, default=256)
    parser.add_argument("--interval", type=int, default=16)
    parser.add_argument("--depths", default="1,2,4,8,16")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = ModelSpec("fhp6", args.rows, args.cols)
    init = spec.initial_state(0.3, args.seed)
    walls = []
    for _ in range(args.repeats):
        start = PERF_COUNTER()
        auto = LatticeGasAutomaton(spec.build(), init.copy(), backend="bitplane")
        auto.run(args.generations)
        walls.append(PERF_COUNTER() - start)
    expected = auto.state.copy()
    direct = statistics.median(walls)

    depths = [int(d) for d in args.depths.split(",")]
    columns = {}
    for depth in depths:
        with mock.patch.object(slabs, "HALO_GENERATIONS", depth):
            passes = [supervised_pass(spec, init, args.generations, args.interval, expected)
                      for _ in range(args.repeats)]
        columns[depth] = {k: statistics.median(p[k] for p in passes) for k in passes[0]}

    g = args.generations
    print(f"FHP-6 {args.rows}x{args.cols}, {g} generations, 2 workers, bitplane, "
          f"checkpoint every {args.interval}; median of {args.repeats}; "
          f"single process {direct:.3f} s ({1e3 * direct / g:.2f} ms/gen)\n")
    print("| quantity | " + " | ".join(f"depth {d}" for d in depths) + " |")
    print("|---|" + "---|" * len(depths))
    rows = [
        ("2-worker pass wall (s)", "wall", 1.0, ".3f"),
        ("exchanges per worker", "exchanges", 1.0, ".0f"),
        ("worker run (ms/gen)", "run", 1e3 / g, ".2f"),
        ("busy: step + halo (ms/gen)", "busy", 1e3 / g, ".2f"),
        ("checkpoint (ms/gen)", "checkpoint", 1e3 / g, ".2f"),
        ("wait (ms/gen)", "wait", 1e3 / g, ".2f"),
    ]
    for label, key, scale, fmt in rows:
        cells = " | ".join(f"{columns[d][key] * scale:{fmt}}" for d in depths)
        print(f"| {label} | {cells} |")
    ref = f"{1e3 * direct / g:.2f}"
    print("| single process (ms/gen) | " + " | ".join(ref for _ in depths) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
