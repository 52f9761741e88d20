"""Monitor overhead and campaign cost.

The resilience subsystem's pitch is "detection is cheap".  The
configuration the recovery runner uses (per-row parity check + tag +
a full conservation sweep every generation) is reported without an
assertion; the campaign tests assert its detection outcome.

Methodology: overhead is the ratio of accumulated monitor time to
accumulated step time *within one run* (best of several runs).  Timing
two separate end-to-end runs and subtracting is hopeless on a shared
machine — the bare run alone fluctuates by tens of percent between
invocations, which would drown the quantity being measured.
"""

import numpy as np
import pytest

from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.resilience.campaign import CampaignConfig, run_campaign
from repro.resilience.monitors import ConservationMonitor, ParityMonitor
from repro.telemetry import PERF_COUNTER
from repro.util.tables import Table

ROWS, COLS, GENS = 128, 128, 32
REPEATS = 5


def _make_auto() -> LatticeGasAutomaton:
    model = FHPModel(ROWS, COLS, boundary="periodic", chirality="alternate")
    state = uniform_random_state(ROWS, COLS, 6, 0.35, np.random.default_rng(9))
    return LatticeGasAutomaton(model, state)


def _two_pass_ratio() -> tuple[float, float, float]:
    """One monitored run; returns (overhead, step us/gen, monitor us/gen)."""
    auto = _make_auto()
    parity = ParityMonitor()
    conservation = ConservationMonitor(auto.model)
    conservation.arm(auto.state)
    parity.tag(auto.state)
    t_step = t_mon = 0.0
    for _ in range(GENS):
        start = PERF_COUNTER()
        assert not parity.check(auto.state, auto.time)
        mid1 = PERF_COUNTER()
        auto.step()
        mid2 = PERF_COUNTER()
        assert not conservation.check(auto.state, auto.time)
        parity.tag(auto.state)
        end = PERF_COUNTER()
        t_step += mid2 - mid1
        t_mon += (mid1 - start) + (end - mid2)
    return t_mon / t_step, t_step / GENS * 1e6, t_mon / GENS * 1e6


def test_monitor_overhead(report):
    two_pass = min((_two_pass_ratio() for _ in range(REPEATS)), key=lambda r: r[0])
    table = Table(
        f"Monitor overhead ({ROWS}x{COLS}, {GENS} generations, "
        f"best of {REPEATS})",
        ["configuration", "step us/gen", "monitor us/gen", "overhead"],
    )
    table.add_row(
        "two-pass localizing", f"{two_pass[1]:.1f}", f"{two_pass[2]:.1f}", f"{two_pass[0]:+.1%}"
    )
    report(table)


@pytest.mark.parametrize("monitors", [True, False])
def test_campaign_wall_time(report, monitors):
    start = PERF_COUNTER()
    rep = run_campaign(CampaignConfig(monitors=monitors))
    elapsed = PERF_COUNTER() - start
    summary = rep["summary"]
    table = Table(
        f"Campaign cost (monitors={'on' if monitors else 'off'})",
        ["quantity", "value"],
    )
    table.add_row("trials", len(rep["trials"]))
    table.add_row("wall time (s)", f"{elapsed:.3f}")
    table.add_row("silent-data-corruption", summary["silent-data-corruption"])
    table.add_row("detected-corrected", summary["detected-corrected"])
    report(table)
    if monitors:
        assert summary["silent-data-corruption"] == 0
    else:
        assert summary["silent-data-corruption"] > 0
