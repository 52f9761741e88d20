"""Compare sets of benchmark suite runs, one row per (workload, end-to-end metric).

A parent commit against a change::

    python3 benchmarks/suite/compare.py --parent p*.json --change c*.json

Two sets of runs of the same code, which must agree::

    python3 benchmarks/suite/compare.py --agree --parent a.json --change b.json

Each file is the ``--out`` of ``run.py`` without ``--workload``.  A row
shows both medians with quartiles and a verdict under the bounds in
``BENCHMARK.json``:

``better``
    the change wins at least 9 of every 10 pairs (files paired in the
    order given, ties counting for neither side; at least 10 pairs) and
    the medians differ by more than the parent's quartile spread;
``unresolved``
    the parent's own quartile spread, as a share of its median, exceeds
    the bound, and not every change run beats every parent run;
``worse``
    the change's median is worse than the parent's by more than the bound;
``unchanged``
    otherwise.

``fail_ratio`` (bound 0) is worse when any change run failed more than
every parent run did; ``sim_ticks`` is unchanged only while every run
reads the same count.  Exits 1 on any ``worse`` row, and with ``--agree``
on any row that is not ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Wins a change needs per pair, and pairs it needs, to count as better.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(paths: list[str]) -> list[dict]:
    """The per-workload untraced results of each suite output file."""
    return [
        {name: runs["untraced"] for name, runs in json.loads(Path(p).read_text())["workloads"].items()}
        for p in paths
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict of one row (see the module docstring)."""
    if better == "equal":
        return "unchanged" if len(set(parent + change)) == 1 else "worse"
    if better == "fail":
        return "worse" if max(change) > max(parent) else "unchanged"
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    scale = abs(p_med) or 1.0
    gain = sign * (c_med - p_med) / scale
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "better"
    if (p_q3 - p_q1) / scale > bound and not all_better:
        return "unresolved"
    if -gain > bound:
        return "worse"
    return "unchanged"


def rows(parent: list[dict], change: list[dict], spec: dict) -> list[tuple]:
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [("fail_ratio", "fail", 0.0), ("sim_ticks", "equal", 0.0)]
    out = []
    for workload in parent[0]:
        for name, better, bound in metrics:
            try:
                p = [run[workload]["metrics"][name]["value"] for run in parent]
                c = [run[workload]["metrics"][name]["value"] for run in change]
            except KeyError:
                continue  # a metric this workload does not report
            out.append((workload, name, p, c, verdict(p, c, better, bound)))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="suite outputs of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="suite outputs of the change")
    parser.add_argument("--agree", action="store_true",
                        help="the two sets ran the same code: every row must be unchanged")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    table = rows(load(args.parent), load(args.change), spec)

    def cell(values: list[float]) -> str:
        q1, med, q3 = quartiles(values)
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<22} {'metric':<14} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} verdict")
    for workload, name, p, c, result in table:
        print(f"{workload:<22} {name:<14} {cell(p):<36} {cell(c):<36} {result}")
    results = [r[-1] for r in table]
    if args.agree:
        return 0 if results and all(r == "unchanged" for r in results) else 1
    return 1 if "worse" in results else 0


if __name__ == "__main__":
    sys.exit(main())
