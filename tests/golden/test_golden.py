"""Absolute oracle: committed digests of exact lattice-gas trajectories.

Every other equivalence test compares two implementations with each
other (bitplane with reference, sharded with whole-lattice, recorded
with silent), so a change that moves all of them together — to a
collision table, the chirality draw or the boundary handling — passes
them all.  Lattice-gas prediction has no shortcut oracle; the exact
trajectory *is* the specification.  This module pins it: each case
(model, size, boundary, chirality, obstacles, seed, generations) maps
in ``digests.json`` to the sha256 of the final state, plus its exact
mass and per-channel particle counts and its momentum, so a failure
says whether the physics or only the trajectory moved.

Every path that evolves a lattice is checked against the same digests:
both kernel backends through ``LatticeGasAutomaton.step`` and ``.run``,
every machine engine at a pipeline depth smaller than the generation
count, ``ShardRunner`` slabs at 1–3 shards, and real supervised runs at
1–3 worker processes, with and without a worker crash.

The digests were recorded once and are not regenerated to make a test
pass.  Only a deliberate change of semantics may rewrite them, with the
reason stated in the change:

    PYTHONPATH=src python tests/golden/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro import machines
from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.lgca.bits import unpack_channels
from repro.lgca.observables import total_momentum
from repro.runtime import InducedFault, SupervisorConfig, supervised_run
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import ShardRunner, block_end, plan_shards
from repro.util.backoff import BackoffPolicy

DIGESTS = Path(__file__).with_name("digests.json")

ROWS, COLS = 12, 70  # even rows (periodic FHP); columns straddle a 64-bit word
GENERATIONS = 20
DENSITY = 0.3
OBSTACLE_DENSITY = 0.08


class Case(NamedTuple):
    kind: str
    boundary: str
    chirality: str
    obstacles: bool
    seed: int

    @property
    def key(self) -> str:
        solid = "obstacles" if self.obstacles else "open"
        return (
            f"{self.kind}-{ROWS}x{COLS}-{self.boundary}-{self.chirality}-"
            f"{solid}-s{self.seed}-g{GENERATIONS}"
        )

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(self.kind, ROWS, COLS, self.boundary, self.chirality)

    def mask(self) -> np.ndarray | None:
        if not self.obstacles:
            return None
        return np.random.default_rng(self.seed + 1).random((ROWS, COLS)) < OBSTACLE_DENSITY

    def initial_state(self) -> np.ndarray:
        state = self.spec.initial_state(DENSITY, self.seed)
        mask = self.mask()
        if mask is not None:
            state[mask] = 0
        return state

    def model(self):
        """The whole-lattice model; random chirality is keyed by the case seed."""
        model = self.spec.build()
        if self.chirality == "random":
            model = dataclasses.replace(model, seed=self.seed)
        return model

    def automaton(self, backend: str) -> LatticeGasAutomaton:
        mask = self.mask()
        return LatticeGasAutomaton(
            self.model(),
            self.initial_state(),
            obstacles=None if mask is None else ObstacleMap(mask),
            backend=backend,
        )


BOUNDARIES = ("periodic", "null", "reflecting")
CASES = (
    [Case(kind, b, "alternate", True, 11) for kind in ("hpp", "fhp6", "fhp7") for b in BOUNDARIES]
    + [Case(kind, b, "random", True, 23) for kind in ("fhp6", "fhp7") for b in BOUNDARIES]
    + [Case(kind, "null", "alternate", False, 37) for kind in ("hpp", "fhp7")]
)
BACKENDS = ("reference", "bitplane")
#: The engines stream null-boundary lattices without obstacles.
ENGINE_CASES = [c for c in CASES if c.boundary == "null" and not c.obstacles]
#: ``ShardRunner`` shards periodic and null lattices with deterministic chirality.
SHARD_CASES = [
    c for c in CASES if c.boundary in ("periodic", "null") and c.chirality != "random"
]
#: Real supervised runs spawn processes, so they cover each model kind and
#: boundary once instead of every shard case.
SUPERVISED_CASES = [
    c for c in SHARD_CASES if c.obstacles and (c.kind, c.boundary) in
    (("hpp", "periodic"), ("fhp6", "null"), ("fhp7", "periodic"))
]


def digest(state: np.ndarray, case: Case) -> dict:
    """The record ``digests.json`` stores for a final ``state``."""
    state = np.ascontiguousarray(state, dtype=np.uint8)
    model = case.spec.build()
    counts = [int(c.sum()) for c in unpack_channels(state, model.num_channels)]
    return {
        "sha256": hashlib.sha256(state.tobytes()).hexdigest(),
        "mass": sum(counts),
        "channel_counts": counts,
        "momentum": [round(float(p), 9) for p in total_momentum(state, model.velocities)],
    }


def initial_sha256(case: Case) -> str:
    return hashlib.sha256(case.initial_state().tobytes()).hexdigest()


def _expected(case: Case) -> dict:
    record = json.loads(DIGESTS.read_text())[case.key]
    # A changed input is a different failure from a changed trajectory.
    assert initial_sha256(case) == record["initial_sha256"], "initial state changed"
    return record


def _check(state: np.ndarray, case: Case) -> None:
    expected = _expected(case)
    got = digest(state, case)
    assert got["mass"] == expected["mass"]
    assert got["channel_counts"] == expected["channel_counts"]
    np.testing.assert_allclose(got["momentum"], expected["momentum"], rtol=0, atol=1e-6)
    assert got["sha256"] == expected["sha256"]


def _ids(cases):
    return [c.key for c in cases]


def test_digest_file_covers_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_ids(CASES))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_automaton_step(case, backend):
    auto = case.automaton(backend)
    for _ in range(GENERATIONS):
        auto.step()
    _check(auto.state, case)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_automaton_run(case, backend):
    auto = case.automaton(backend)
    auto.run(7)  # two calls: the second continues from time 7
    auto.run(GENERATIONS - 7)
    assert auto.time == GENERATIONS
    _check(auto.state, case)


def _check_engine(machine: str, case: Case, backend: str | None) -> None:
    """Run ``machine``'s PE stream and check it against the digest.

    With a ``backend``, the result must also equal the automaton evolved
    on that backend — the comparison ``repro simulate --engine MACHINE
    --backend BACKEND`` makes.  Engines take no backend of their own.
    """
    engine = machines.create(machine, case.spec.build(), pipeline_depth=3)
    final, stats = engine.run(case.initial_state(), GENERATIONS)
    assert stats.site_updates == GENERATIONS * ROWS * COLS
    if backend is not None:
        auto = case.automaton(backend)
        auto.run(GENERATIONS)
        np.testing.assert_array_equal(final, auto.state)
    _check(final, case)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", ENGINE_CASES, ids=_ids(ENGINE_CASES))
def test_engine_run(case, backend):
    _check_engine("serial", case, backend)


@pytest.mark.parametrize("backend", [None, *BACKENDS])  # None: the digest alone
@pytest.mark.parametrize("machine", ["wsa", "spa", "wsa-e"])
@pytest.mark.parametrize("case", ENGINE_CASES, ids=_ids(ENGINE_CASES))
def test_machine_run(case, machine, backend):
    _check_engine(machine, case, backend)


def _evolve_sharded(
    case: Case, workers: int, backend: str, interval: int | None = None
) -> np.ndarray:
    """Whole-lattice evolution as ``workers`` slabs with in-process halo routing.

    Halos are refreshed every generation, or, with ``interval``, once per
    block of the supervised worker's schedule (:func:`block_end`).
    """
    spec, init, mask = case.spec, case.initial_state(), case.mask()
    runners = []
    for shard in plan_shards(ROWS, workers):
        local_mask = None if mask is None else mask[shard.local_row_indices(ROWS)]
        runners.append(
            ShardRunner(
                spec.build(rows=shard.local_rows),
                shard,
                init[shard.row_start : shard.row_stop],
                backend=backend,
                obstacles_mask=local_mask,
            )
        )
    periodic = case.boundary == "periodic"
    n = len(runners)
    depth = runners[0].shard.depth
    t = 0
    while t < GENERATIONS:
        end = t + 1 if interval is None else block_end(t, depth, interval, GENERATIONS)
        rows = [r.boundary_rows() for r in runners]
        for i, runner in enumerate(runners):
            above = rows[i - 1][1] if (i > 0 or periodic) else None
            below = rows[(i + 1) % n][0] if (i < n - 1 or periodic) else None
            runner.set_halos(above, below)
            while runner.time < end:
                runner.step()
        t = end
    return np.concatenate([r.interior for r in runners], axis=0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", SHARD_CASES, ids=_ids(SHARD_CASES))
def test_shard_runner(case, workers, backend):
    _check(_evolve_sharded(case, workers, backend), case)


@pytest.mark.parametrize("interval", [4, GENERATIONS])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", SHARD_CASES, ids=_ids(SHARD_CASES))
def test_shard_runner_blocks(case, workers, interval):
    """One halo exchange per block (depth 11, 5 and 3 at 1-3 slabs of 12
    rows), blocks cut at checkpoints every 4 or running to full depth."""
    _check(_evolve_sharded(case, workers, "bitplane", interval=interval), case)


#: Short restart delays: a crashed worker respawns within milliseconds.
FAST_BACKOFF = BackoffPolicy(max_retries=6, base_delay=0.01, max_delay=0.05)


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", SUPERVISED_CASES, ids=_ids(SUPERVISED_CASES))
def test_supervised_run(case, workers, crash):
    induced = (InducedFault(worker=workers - 1, generation=7, kind="crash"),) if crash else ()
    config = SupervisorConfig(
        spec=case.spec,
        generations=GENERATIONS,
        num_workers=workers,
        backend="bitplane",
        initial_state=case.initial_state(),
        obstacles=case.mask(),
        checkpoint_interval=4,
        backoff=FAST_BACKOFF,
        induced=induced,
    )
    state, report = supervised_run(config)
    assert report.outcome == "complete"
    assert len(report.restarts) >= crash
    _check(state, case)


def _write_digests() -> None:
    """Record every case from the reference backend's ``run``."""
    records = {}
    for case in CASES:
        auto = case.automaton("reference")
        auto.run(GENERATIONS)
        records[case.key] = {
            **case._asdict(),
            "rows": ROWS,
            "cols": COLS,
            "generations": GENERATIONS,
            "initial_sha256": initial_sha256(case),
            **digest(auto.state, case),
        }
    DIGESTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_digests()
