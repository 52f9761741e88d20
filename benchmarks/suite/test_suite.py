"""Every benchmark workload at 64x64 for 4 generations, traced and not.

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import workloads as wl
from repro.telemetry import validate_report

SMALL = wl.Size(64, 64, 4)
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_suite():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == wl.PER_LAYER


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload(name, tmp_path):
    untraced = wl.measure(wl.WORKLOADS[name](SMALL, 0, tmp_path / "untraced"), 0.0, trace=False)
    assert untraced.correct, untraced.problems
    assert {k: v["unit"] for k, v in untraced.metrics.items()} == _declared("end_to_end")

    workload = wl.WORKLOADS[name](SMALL, 0, tmp_path / "traced")
    traced = wl.measure(workload, 0.0, trace=True)
    assert traced.correct, traced.problems
    assert {k: v["unit"] for k, v in traced.metrics.items()} == _declared("per_layer")
    assert traced.metrics["trace.attributed_fraction"]["value"] > 0.5
    finals = [p.final for p in traced.passes]
    assert all(np.array_equal(f, untraced.passes[0].final) for f in finals)

    report = wl.telemetry_report(wl.telemetry_entries(workload, traced), {"command": "test"})
    assert validate_report(report.to_dict()) == []
