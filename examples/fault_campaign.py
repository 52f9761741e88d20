#!/usr/bin/env python
"""Fault injection, detection, and recovery — a guided tour.

Walks the resilience subsystem bottom-up:

1. inject a single memory bit flip into a reference evolution and watch
   the parity monitor localize it and the runner repair the row;
2. put a stuck-at defect on a PE output and let TMR voting outvote it
   inline;
3. stream a frame over an unreliable host channel (drop + stall) and
   recover it through checksummed retransmission with backoff;
4. run the full campaign twice — monitors on and off — and print the
   classification summaries side by side, the monitored arm showing
   zero silent data corruption.

Run:  python examples/fault_campaign.py
"""

import numpy as np

from repro import machines
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ReliableRowTransport,
    ResilientAutomatonRunner,
    TMRVoter,
    UnreliableRowChannel,
)
from repro.resilience.campaign import CampaignConfig, run_campaign
from repro.util.tables import Table

ROWS, COLS, GENS = 16, 16, 8


def memory_flip_demo() -> None:
    model = FHPModel(ROWS, COLS, boundary="periodic", chirality="alternate")
    init = uniform_random_state(ROWS, COLS, 6, 0.3, np.random.default_rng(1))
    golden = LatticeGasAutomaton(model, init).run(GENS)

    injector = FaultInjector(
        [FaultSpec("seu", "bit_flip", "memory", 4, row=7, col=5, channel=2)]
    )
    runner = ResilientAutomatonRunner(
        LatticeGasAutomaton(model, init), injector, checkpoint_interval=4
    )
    final = runner.run(GENS)
    rep = runner.report
    table = Table("1. Memory upset vs parity + row recompute", ["quantity", "value"])
    table.add_row("fault", "bit flip, memory word (7,5) bit 2, generation 4")
    table.add_row("detections", len(rep.detections))
    table.add_row("detected rows", str(list(rep.detections[0].rows)))
    table.add_row("row recomputes", rep.row_recomputes)
    table.add_row("final matches golden", np.array_equal(final, golden))
    table.print()


def tmr_demo() -> None:
    model = FHPModel(ROWS, COLS, boundary="null", chirality="alternate")
    init = uniform_random_state(ROWS, COLS, 6, 0.3, np.random.default_rng(2))
    golden, _ = machines.create("serial", model).run(init, GENS)

    injector = FaultInjector(
        [
            FaultSpec(
                "stuck", "stuck_at", "pe", 3, channel=1, stuck_value=0, duration=2
            )
        ]
    )
    voter = TMRVoter(injector.post_collide_hook())
    engine = machines.create(
        "serial", model, post_collide=voter.as_post_collide()
    )
    final, _ = engine.run(init, GENS)
    table = Table("2. Stuck PE output vs TMR voting", ["quantity", "value"])
    table.add_row("fault", "collision output bit 1 stuck at 0, generations 3-4")
    table.add_row("replica disagreements", len(voter.detections))
    table.add_row("final matches golden", np.array_equal(final, golden))
    table.print()


def transport_demo() -> None:
    frame = uniform_random_state(ROWS, COLS, 6, 0.3, np.random.default_rng(3))
    injector = FaultInjector(
        [
            FaultSpec("drop", "drop_row", "host", 0, row=9),
            FaultSpec("stall", "stall", "host", 0, duration=2),
        ]
    )
    channel = UnreliableRowChannel(frame, injector, generation=0)
    received, rep = ReliableRowTransport(channel).receive()
    table = Table("3. Unreliable host vs checksummed retransmit", ["quantity", "value"])
    table.add_row("faults", "row 9 dropped; host stalls twice on retransmit")
    table.add_row("detections", len(rep.detections))
    table.add_row("retransmits", rep.retransmits)
    table.add_row("backoff delays", str(rep.backoff_delays))
    table.add_row("frame intact", np.array_equal(received, frame))
    table.print()


def campaign_demo() -> None:
    on = run_campaign(CampaignConfig(monitors=True))["summary"]
    off = run_campaign(CampaignConfig(monitors=False))["summary"]
    table = Table("4. Campaign summary", ["outcome", "monitors on", "monitors off"])
    for outcome in on:
        table.add_row(outcome, on[outcome], off[outcome])
    table.print()
    print(
        "With monitors every fault is caught or outvoted; without them the "
        "same faults pass straight into the results."
    )


def main() -> None:
    memory_flip_demo()
    tmr_demo()
    transport_demo()
    campaign_demo()


if __name__ == "__main__":
    main()
