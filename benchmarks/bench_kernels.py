"""Library kernel performance (pytest-benchmark timings proper).

Not a paper experiment — housekeeping for the reproduction itself:
tracks the throughput of the vectorized kernels so a performance
regression in the substrate is visible.  The guide rule applied here is
the usual one: measure, don't guess; the table reports site updates per
second for each kernel at a realistic size.

Run directly (no pytest needed) for the backend comparison pipeline::

    python benchmarks/bench_kernels.py --json BENCH_kernels.json

which measures R — site updates per second, the paper's throughput
quantity — for every registered kernel backend across grid sizes and
models, and writes a schema-versioned JSON report.  CI runs a small
configuration of this and asserts the bitplane backend beats the
reference.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lgca.backends import evolve, make_stepper
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.hpp import HPPModel
from repro.lgca.ndim import NDHPPModel
from repro.telemetry import PERF_COUNTER, InMemoryRecorder, TelemetryReport
from repro.util.tables import Table, format_rate

SIZE = 256

#: Schema tag of the --json report; bump on layout changes.  One row per
#: (model, size, backend) cell; "bitplane" rows add "collide_ops" (the
#: full-plane ops one collide makes) and "speedup_vs_reference".
SCHEMA = "repro/bench-kernels/v2"


@pytest.fixture(scope="module")
def fhp_state():
    rng = np.random.default_rng(0)
    return uniform_random_state(SIZE, SIZE, 6, 0.3, rng)


def _rate(benchmark, updates):
    return updates / benchmark.stats.stats.mean


def test_fhp_step(benchmark, report, fhp_state):
    model = FHPModel(SIZE, SIZE)
    benchmark(model.step, fhp_state, 0)
    table = Table("kernel: FHP-6 full step (collide + propagate)", ["quantity", "value"])
    table.add_row("lattice", f"{SIZE}x{SIZE}")
    table.add_row("rate", format_rate(_rate(benchmark, SIZE * SIZE)))
    report(table)


def test_fhp_collide_only(benchmark, report, fhp_state):
    model = FHPModel(SIZE, SIZE)
    benchmark(model.collide, fhp_state, 0)
    table = Table("kernel: FHP-6 collide (table lookup + chirality mix)", ["quantity", "value"])
    table.add_row("rate", format_rate(_rate(benchmark, SIZE * SIZE)))
    report(table)


def test_fhp_propagate_only(benchmark, report, fhp_state):
    model = FHPModel(SIZE, SIZE)
    benchmark(model.propagate, fhp_state)
    table = Table("kernel: FHP-6 propagate (6-channel gather)", ["quantity", "value"])
    table.add_row("rate", format_rate(_rate(benchmark, SIZE * SIZE)))
    report(table)


def test_hpp_step(benchmark, report):
    model = HPPModel(SIZE, SIZE)
    rng = np.random.default_rng(1)
    state = uniform_random_state(SIZE, SIZE, 4, 0.3, rng)
    benchmark(model.step, state, 0)
    table = Table("kernel: HPP full step", ["quantity", "value"])
    table.add_row("rate", format_rate(_rate(benchmark, SIZE * SIZE)))
    report(table)


def test_ndhpp_3d_step(benchmark, report):
    model = NDHPPModel((32, 32, 32))
    rng = np.random.default_rng(2)
    state = rng.integers(0, 64, size=(32, 32, 32)).astype(np.uint8)
    benchmark(model.step, state, 0)
    table = Table("kernel: 3-D gas full step", ["quantity", "value"])
    table.add_row("lattice", "32^3")
    table.add_row("rate", format_rate(_rate(benchmark, 32**3)))
    report(table)


def test_engine_stage_vectorized(benchmark, report, fhp_state):
    from repro.engines.pe import make_rule
    from repro.engines.pipeline import PipelineStage

    model = FHPModel(SIZE, SIZE, boundary="null")
    stage = PipelineStage(make_rule(model))
    stream = fhp_state.ravel()
    benchmark(stage.process, stream, 0)
    table = Table("kernel: pipeline stage (vectorized gather)", ["quantity", "value"])
    table.add_row("rate", format_rate(_rate(benchmark, SIZE * SIZE)))
    report(table)


def test_bitplane_step(benchmark, report, fhp_state):
    stepper = make_stepper(FHPModel(SIZE, SIZE), backend="bitplane")
    benchmark(evolve, stepper, fhp_state, 8)
    table = Table(
        "kernel: FHP-6 bitplane backend (8 generations)", ["quantity", "value"]
    )
    table.add_row("lattice", f"{SIZE}x{SIZE}")
    table.add_row("rate", format_rate(_rate(benchmark, 8 * SIZE * SIZE)))
    report(table)


# -- the R (site updates/sec) measurement pipeline ---------------------------


def _make_model(name: str, rows: int, cols: int):
    """Build a periodic model by benchmark name."""
    if name == "hpp":
        return HPPModel(rows, cols)
    if name == "fhp6":
        return FHPModel(rows, cols)
    if name == "fhp6-random":
        return FHPModel(rows, cols, chirality="random")
    if name == "fhp7":
        return FHPModel(rows, cols, rest_particles=True)
    if name == "fhp-sat":
        return FHPModel(rows, cols, rest_particles=True, saturated=True)
    raise ValueError(f"unknown model {name!r}")


def _cell_timer_name(model_name: str, size: int, backend: str) -> str:
    """Telemetry timer name for one measurement cell."""
    return f"bench.kernels.{model_name}.{size}.{backend}.pass_seconds"


def measure_backend(
    model_name: str,
    size: int,
    backend: str,
    generations: int,
    repeats: int,
    density: float = 0.3,
    seed: int = 0,
    recorder: InMemoryRecorder | None = None,
) -> dict:
    """Measure R for one (model, size, backend) cell.

    Runs one untimed warmup pass (buffer allocation, table compilation),
    then ``repeats`` timed passes of
    ``generations`` steps each, and quotes R from the *best* pass — the
    standard way to estimate the kernel's intrinsic rate under
    scheduler noise.  Timing goes through a bench-owned telemetry timer
    (one per cell, ``perf_counter`` clock); R is read back from the
    timer's recorded minimum.  The stepper itself stays on the default
    ``NullRecorder`` so kernel-side instrumentation cannot perturb the
    measurement.
    """
    model = _make_model(model_name, size, size)
    rng = np.random.default_rng(seed)
    state = uniform_random_state(size, size, model.num_channels, density, rng)
    stepper = make_stepper(model, backend=backend)
    evolve(stepper, state, generations)  # warmup, untimed
    rec = recorder if recorder is not None else InMemoryRecorder(clock=PERF_COUNTER)
    clk = rec.clock
    timer = rec.timer(_cell_timer_name(model_name, size, backend))
    for _ in range(repeats):
        start = clk()
        evolve(stepper, state, generations)
        timer.record(clk() - start)
    best = timer.min
    updates = generations * size * size
    rec = {
        "model": model_name,
        "rows": size,
        "cols": size,
        "backend": backend,
        "generations": generations,
        "repeats": repeats,
        "best_seconds": best,
        "site_updates": updates,
        "updates_per_second": updates / best,
    }
    if backend == "bitplane":
        rec["collide_ops"] = stepper.kernel.collide_ops
    return rec


def run_matrix(
    sizes: list[int],
    models: list[str],
    backends: list[str],
    generations: int,
    repeats: int,
    recorder: InMemoryRecorder | None = None,
) -> dict:
    """The full measurement matrix plus the bitplane-vs-reference speedup."""
    results = []
    for model_name in models:
        for size in sizes:
            by_backend = {}
            for backend in backends:
                rec = measure_backend(
                    model_name, size, backend, generations, repeats,
                    recorder=recorder,
                )
                by_backend[backend] = rec
                results.append(rec)
            if "reference" in by_backend and "bitplane" in by_backend:
                ref = by_backend["reference"]["updates_per_second"]
                fast = by_backend["bitplane"]["updates_per_second"]
                by_backend["bitplane"]["speedup_vs_reference"] = fast / ref
    return {
        "schema": SCHEMA,
        "quantity": "R, site updates per second (paper's throughput measure)",
        "config": {
            "sizes": sizes,
            "models": models,
            "backends": backends,
            "generations": generations,
            "repeats": repeats,
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure R (site updates/sec) for the registered kernel backends."
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the schema-versioned report here")
    parser.add_argument("--sizes", default="256,512,1024",
                        help="comma-separated square grid sizes")
    parser.add_argument("--models", default="hpp,fhp6",
                        help="comma-separated: hpp, fhp6, fhp6-random, fhp7, fhp-sat")
    parser.add_argument("--backends", default="reference,bitplane",
                        help="comma-separated backend names")
    parser.add_argument("--generations", type=int, default=16,
                        help="steps per timed pass")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed passes per cell (best is quoted)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="write the bench-owned telemetry report "
                        "(per-cell pass timers) here; defaults to the "
                        "--json path with a .telemetry.json suffix")
    parser.add_argument("--assert-speedup", type=float, default=None, metavar="FACTOR",
                        help="exit 1 unless bitplane beats reference by FACTOR "
                        "in every measured cell")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s]
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    recorder = InMemoryRecorder(clock=PERF_COUNTER)
    report = run_matrix(
        sizes, models, backends, args.generations, args.repeats, recorder=recorder
    )

    table = Table(
        "R: site updates per second by backend",
        ["model", "grid", "backend", "R", "speedup"],
    )
    for rec in report["results"]:
        speedup = rec.get("speedup_vs_reference")
        table.add_row(
            rec["model"],
            f"{rec['rows']}x{rec['cols']}",
            rec["backend"],
            format_rate(rec["updates_per_second"]),
            f"{speedup:.2f}x" if speedup is not None else "-",
        )
    table.print()

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    # Telemetry rides along with every JSON report: same stem, sibling
    # .telemetry.json, so the differ always has a perf companion file.
    telemetry_path = args.telemetry
    if telemetry_path is None and args.json:
        telemetry_path = str(Path(args.json).with_suffix("")) + ".telemetry.json"
    if telemetry_path:
        TelemetryReport.from_recorder(
            recorder,
            meta={
                "command": "bench_kernels",
                "sizes": args.sizes,
                "models": args.models,
                "backends": ",".join(backends),
                "generations": args.generations,
                "repeats": args.repeats,
            },
        ).write_json(telemetry_path)
        print(f"wrote {telemetry_path}")

    if args.assert_speedup is not None:
        failed = [
            rec for rec in report["results"]
            if rec.get("speedup_vs_reference") is not None
            and rec["speedup_vs_reference"] < args.assert_speedup
        ]
        checked = [r for r in report["results"] if "speedup_vs_reference" in r]
        if not checked:
            print("assert-speedup: no (reference, bitplane) pairs measured", file=sys.stderr)
            return 1
        if failed:
            for rec in failed:
                print(
                    f"assert-speedup FAILED: {rec['model']} {rec['rows']}x{rec['cols']} "
                    f"bitplane is only {rec['speedup_vs_reference']:.2f}x reference "
                    f"(< {args.assert_speedup}x)",
                    file=sys.stderr,
                )
            return 1
        print(f"assert-speedup OK: every cell >= {args.assert_speedup}x")

    return 0


if __name__ == "__main__":
    sys.exit(main())
