#!/usr/bin/env python
"""Flow past a cylinder with the FHP lattice gas.

The paper proposes lattice gases as "microscopic models for fluid
dynamics"; this example runs the canonical wake experiment: a uniform +x
flow meets a solid disk, bounce-back walls top and bottom, and the
coarse-grained velocity field develops a stagnation point and a velocity
deficit behind the body.  The momentum the gas loses per step is the
drag on the cylinder.

Run:  python examples/fhp_cylinder_flow.py
"""

import numpy as np

from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import channel_flow_state, cylinder_obstacle
from repro.lgca.observables import (
    mean_velocity_field,
    reynolds_number,
)
from repro.util.render import speed_map

ROWS, COLS = 64, 128
RADIUS = 6.0
STEPS = 300
WINDOW = 8  # coarse-graining block


def main() -> None:
    rng = np.random.default_rng(7)
    model = FHPModel(ROWS, COLS, boundary="periodic")
    state = channel_flow_state(ROWS, COLS, model.velocities, 0.25, 0.25, rng)
    body = cylinder_obstacle(ROWS, COLS, center=(ROWS / 2, COLS / 4), radius=RADIUS)
    gas = LatticeGasAutomaton(model, state, obstacles=body)

    re = reynolds_number(2 * RADIUS, 0.25, 0.25 / 1.0)
    print(f"FHP cylinder flow: {ROWS}x{COLS}, r={RADIUS}, Re ≈ {re:.1f}")
    print(f"initial momentum: {gas.momentum().round(1)}")

    p_prev = gas.momentum()
    drag_samples = []
    for step in range(STEPS):
        gas.step()
        if step % 50 == 49:
            p_now = gas.momentum()
            drag = (p_prev - p_now) / 50.0
            drag_samples.append(drag[0])
            p_prev = p_now
            print(
                f"  t={step + 1:4d}  momentum={p_now.round(1)}  "
                f"mean drag/step (last 50): {drag[0]:+.2f}"
            )

    u = mean_velocity_field(gas.state, model.velocities, 6, window=WINDOW)
    obstacle_blocks = (
        body.mask.reshape(ROWS // WINDOW, WINDOW, COLS // WINDOW, WINDOW)
        .mean(axis=(1, 3))
        > 0.5
    )
    print("\ncoarse-grained speed field (|u|, '#' = body):\n")
    print(speed_map(u, overlay=obstacle_blocks))

    # Wake diagnostics: x-velocity ahead of vs behind the body.
    cyl_block_col = int(COLS / 4 / WINDOW)
    mid = ROWS // (2 * WINDOW)
    ahead = u[mid, max(cyl_block_col - 3, 0), 0]
    behind = u[mid, min(cyl_block_col + 2, u.shape[1] - 1), 0]
    print(f"\ncenterline u_x ahead of body:  {ahead:+.3f}")
    print(f"centerline u_x behind body:    {behind:+.3f}  (velocity deficit)")
    mean_drag = float(np.mean(drag_samples))
    print(f"mean drag per step: {mean_drag:+.3f} (momentum absorbed by the body)")


if __name__ == "__main__":
    main()
