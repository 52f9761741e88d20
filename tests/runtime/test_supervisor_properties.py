"""Property test: the supervisor's outcome under random fault schedules.

Lattice-gas prediction is P-complete, so the exact trajectory is the
specification: whatever a fault schedule does to the workers, a run
either ends bit-identical to the unsupervised evolution, degrades with
exactly the unrecoverable shards frozen, or fails without a state.

Hypothesis draws 1-3 workers, a backend, ``allow_degraded`` and up to
three :class:`InducedFault` values (crash, stall or error, on
any worker, at any generation up to and including the last, for 1, 2
or 99 incarnations).  With a per-worker budget of ``MAX_RETRIES``
consecutive restarts, a worker is unrecoverable exactly when one of
its faults outlives that budget.  Every timeout runs on a
:class:`~repro.telemetry.StepClock`, so a stall costs event-loop
wakeups rather than its nominal hour.
"""

import multiprocessing
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton
from repro.runtime import (
    InducedFault,
    ModelSpec,
    SupervisorConfig,
    supervised_run,
)
from repro.telemetry import InMemoryRecorder, StepClock, validate_report
from repro.util.backoff import BackoffPolicy

GENS = 8
SEED = 42
MAX_RETRIES = 2
SPEC = ModelSpec(kind="fhp6", rows=24, cols=16, boundary="periodic")


@pytest.fixture(scope="module")
def trajectory():
    """The reference states at generations 0..GENS."""
    auto = LatticeGasAutomaton(
        SPEC.build(), SPEC.initial_state(0.3, SEED), backend="reference"
    )
    return [auto.state.copy()] + [auto.step() for _ in range(GENS)]


@st.composite
def schedules(draw):
    workers = draw(st.integers(1, 3))
    fault = st.builds(
        InducedFault,
        worker=st.integers(0, workers - 1),
        generation=st.integers(0, GENS),
        kind=st.sampled_from(("crash", "stall", "error")),
        incarnations=st.sampled_from((1, 2, 99)),
    )
    return (
        workers,
        draw(st.sampled_from(("reference", "bitplane"))),
        draw(st.booleans()),
        tuple(draw(st.lists(fault, max_size=3))),
    )


def run_schedule(workers, backend, allow_degraded, faults):
    """One supervised run; also returns the temporary directories it made."""
    made = []
    real_mkdtemp = tempfile.mkdtemp

    def spy_mkdtemp(*args, **kwargs):
        made.append(real_mkdtemp(*args, **kwargs))
        return made[-1]

    config = SupervisorConfig(
        spec=SPEC,
        generations=GENS,
        num_workers=workers,
        backend=backend,
        seed=SEED,
        checkpoint_interval=3,
        # 100 silent clock reads at 4 ms per idle wakeup: a stall costs
        # about 0.4 s of real time per watchdog kill.  In 40 stall-free
        # draws a healthy worker owing the barrier was silent for at
        # most 21 reads.
        watchdog_timeout=5.0,
        poll_interval=0.004,
        backoff=BackoffPolicy(
            max_retries=MAX_RETRIES, base_delay=0.05, multiplier=2.0, max_delay=0.2
        ),
        max_total_restarts=1000,
        allow_degraded=allow_degraded,
        induced=faults,
    )
    with mock.patch.object(tempfile, "mkdtemp", spy_mkdtemp):
        state, report = supervised_run(
            config, clock=StepClock(step=0.05), recorder=InMemoryRecorder()
        )
    return state, report, made


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(schedules())
def test_outcome_matches_the_fault_schedule(trajectory, schedule):
    workers, backend, allow_degraded, faults = schedule
    state, report, made = run_schedule(*schedule)

    # Only a worker the schedule faults may be restarted or dropped: a
    # healthy worker waiting on the barrier must never be reaped.
    faulted = {f.worker for f in faults}
    assert {r.worker for r in report.restarts} <= faulted, report.restarts
    assert {d["worker"] for d in report.degraded_shards} <= faulted

    lost = {f.worker for f in faults if f.incarnations > MAX_RETRIES}
    if not lost:
        assert (report.outcome, report.exit_code) == ("complete", 0), report.reason
        assert np.array_equal(state, trajectory[GENS])
    elif allow_degraded and len(lost) < workers:
        assert (report.outcome, report.exit_code) == ("degraded", 3), report.reason
        assert {d["worker"] for d in report.degraded_shards} == lost
        assert len(report.degraded_shards) == len(lost)
        if len(lost) == 1:
            [shard] = report.degraded_shards
            rows = slice(shard["row_start"], shard["row_stop"])
            assert np.array_equal(state[rows], trajectory[shard["generation"]][rows])
    else:
        assert (report.outcome, report.exit_code) == ("failed", 1), report.reason
        assert state is None

    assert multiprocessing.active_children() == []
    assert made and not any(os.path.exists(path) for path in made)

    merged = report.telemetry
    assert merged is not None
    assert validate_report(merged.to_dict()) == []
    names = [e.get("name") for e in merged.events]
    assert names.count("supervisor.restart") == len(report.restarts)
    assert names.count("supervisor.drop") == len(report.degraded_shards)
