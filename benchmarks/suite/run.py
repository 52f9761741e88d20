"""Run the repo benchmark: one workload, or the whole suite.

One workload, the form ``BENCHMARK.json``'s command takes::

    python3 benchmarks/suite/run.py --workload direct_fhp7 --seed 0 --seconds 12 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 if
any output check failed.

The whole suite::

    python3 benchmarks/suite/run.py --seed 0 --out run.json

runs each workload untraced in its own child process, then each traced,
prints every metric, writes all of them to ``run.json`` and the traced
runs' spans to ``run.telemetry.json`` (repro-telemetry v2, readable by
``python -m repro telemetry trace``).  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.

The program is imported from ``src/`` of the checkout this file sits in;
scratch files (checkpoints) go to ``.bench_work/`` there and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (needs the program on sys.path)

WORK = ROOT / ".bench_work"


def _fmt(entry: dict) -> str:
    text = f"{entry['value']:.6g} {entry['unit']}"
    if "n" in entry:
        text += (f"  (median of {entry['n']}; q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                 f"min {entry['min']:.6g}, max {entry['max']:.6g})")
    return text


def print_metrics(metrics: dict[str, dict]) -> None:
    width = max((len(name) for name in metrics), default=0)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {_fmt(entry)}")


def _remove(workdir: Path) -> None:
    """Delete a run's scratch directory, and ``.bench_work`` once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def run_one(name: str, seed: int, seconds: float, trace: bool, out: str | None) -> int:
    workdir = WORK / f"{name}-{os.getpid()}"
    workload = wl.WORKLOADS[name](wl.FULL_SIZES[name], seed, workdir)
    try:
        outcome = wl.measure(workload, seconds, trace)
    finally:
        _remove(workdir)
    fail_ratio = {"value": outcome.failed / outcome.attempted, "unit": "failed/attempted"}
    shown = {**outcome.metrics, **outcome.extras, "fail_ratio": fail_ratio}
    print(f"{name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print_metrics(shown)
    for problem in dict.fromkeys(outcome.problems):
        print(f"  CHECK FAILED: {problem}")
    if out:
        record = {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "metrics": shown,
        }
        if trace:
            record["telemetry"] = wl.telemetry_entries(workload, outcome)
        Path(out).write_text(json.dumps(record))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


def run_suite(seed: int, seconds: float, out: str) -> int:
    tmp = WORK / f"suite-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {name: {} for name in wl.WORKLOADS}
    entries: list[dict] = []
    status = 0
    try:
        for trace in (0, 1):
            for name in wl.WORKLOADS:
                record_path = tmp / f"{name}.{trace}.json"
                code = subprocess.run([
                    sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", str(record_path),
                ]).returncode
                status = status or code
                kind = "traced" if trace else "untraced"
                if not record_path.exists():
                    print(f"FAILED: {name} {kind} run wrote no result")
                    results[name][kind] = {"correct": False}
                    continue
                record = json.loads(record_path.read_text())
                entries += record.pop("telemetry", [])
                results[name][kind] = record
    finally:
        _remove(tmp)
    Path(out).write_text(json.dumps(
        {"schema": "repro-bench-suite/v1", "seed": seed, "seconds": seconds,
         "workloads": results}, indent=2) + "\n")
    telemetry = str(Path(out).with_suffix("")) + ".telemetry.json"
    if entries:
        wl.telemetry_report(entries, {"command": "benchmarks/suite", "seed": seed}) \
            .write_json(telemetry)
    print(f"wrote {out} and {telemetry}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run one workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--out", default=None,
                        help="write the full results here (required for the suite)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.out)
    if not args.out:
        parser.error("the whole suite needs --out")
    return run_suite(args.seed, seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
