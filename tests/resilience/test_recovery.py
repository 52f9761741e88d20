"""Tests for the recovery layer: resilient runner and reliable transport."""

import numpy as np
import pytest

from repro.engines.memory import MainMemory
from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.resilience.faults import FaultInjector, FaultSpec, UnreliableRowChannel
from repro.resilience.recovery import (
    BackoffPolicy,
    ReliableRowTransport,
    ResilientAutomatonRunner,
    assemble_raw,
)
from repro.util.errors import FaultDetectedError

ROWS, COLS = 8, 8
GENS = 6


def model():
    return FHPModel(ROWS, COLS, boundary="periodic", chirality="alternate")


def init_state():
    return uniform_random_state(ROWS, COLS, 6, 0.35, np.random.default_rng(11))


def golden():
    return LatticeGasAutomaton(model(), init_state()).run(GENS)


def make_runner(specs, **kwargs):
    injector = FaultInjector(specs) if specs is not None else None
    auto = LatticeGasAutomaton(model(), init_state())
    return ResilientAutomatonRunner(
        auto, injector, checkpoint_interval=2, **kwargs
    )


class TestBackoffPolicy:
    def test_delays_grow_exponentially(self):
        policy = BackoffPolicy(max_retries=3, base_delay=1.0, multiplier=2.0)
        assert [policy.delay(a) for a in range(3)] == [1.0, 2.0, 4.0]

    def test_rejects_nonpositive_retries(self):
        with pytest.raises(ValueError):
            BackoffPolicy(max_retries=0)


class TestResilientAutomatonRunner:
    def test_clean_run_matches_reference(self):
        runner = make_runner(None)
        final = runner.run(GENS)
        assert np.array_equal(final, golden())
        assert not runner.report.detected
        assert runner.report.checkpoint_saves >= 2

    def test_transient_flip_corrected_by_row_recompute(self):
        specs = [FaultSpec("f", "bit_flip", "memory", 3, row=4, col=4, channel=2)]
        runner = make_runner(specs)
        final = runner.run(GENS)
        assert np.array_equal(final, golden())
        assert runner.report.detected
        assert runner.report.row_recomputes == 1
        assert runner.report.rollbacks == 0
        assert not runner.report.aborted

    def test_transient_flip_corrected_by_rollback_without_parity(self):
        specs = [FaultSpec("f", "bit_flip", "memory", 3, row=4, col=4, channel=2)]
        runner = make_runner(specs, use_parity=False)
        final = runner.run(GENS)
        assert np.array_equal(final, golden())
        assert runner.report.rollbacks >= 1
        assert runner.report.backoff_delays  # retries waited
        assert not runner.report.aborted

    @pytest.mark.parametrize("use_parity", [True, False], ids=["recompute", "rollback"])
    def test_random_chirality_recovers_bit_identically(self, use_parity):
        """Replays rewind nothing: the chirality draw is a pure function of t."""
        random_model = FHPModel(ROWS, COLS, boundary="periodic", chirality="random", seed=5)
        expected = LatticeGasAutomaton(random_model, init_state()).run(GENS)
        specs = [FaultSpec("f", "bit_flip", "memory", 3, row=4, col=4, channel=2)]
        runner = ResilientAutomatonRunner(
            LatticeGasAutomaton(random_model, init_state()),
            FaultInjector(specs),
            checkpoint_interval=2,
            use_parity=use_parity,
        )
        assert np.array_equal(runner.run(GENS), expected)
        assert runner.report.corrections >= 1
        assert not runner.report.aborted

    def test_persistent_fault_without_parity_aborts(self):
        """Conservation alone cannot localize; replay re-detects the
        stuck cell every attempt, so the bounded retries exhaust."""
        specs = [
            FaultSpec(
                "f", "stuck_at", "memory", 2,
                row=3, col=3, channel=0, stuck_value=1, duration=GENS,
            )
        ]
        runner = make_runner(specs, use_parity=False)
        runner.run(GENS)
        assert runner.report.aborted
        assert "rollback" in runner.report.abort_reason

    def test_persistent_fault_abort_raises_when_asked(self):
        specs = [
            FaultSpec(
                "f", "stuck_at", "memory", 2,
                row=3, col=3, channel=0, stuck_value=1, duration=GENS,
            )
        ]
        runner = make_runner(specs, use_parity=False)
        with pytest.raises(FaultDetectedError, match="rollback"):
            runner.run(GENS, abort_raises=True)

    def test_persistent_fault_with_parity_is_scrubbed(self):
        """Parity names the rotten row every generation, so the runner
        repairs the read instead of rolling back — memory scrubbing."""
        specs = [
            FaultSpec(
                "f", "stuck_at", "memory", 2,
                row=3, col=3, channel=0, stuck_value=1, duration=3,
            )
        ]
        runner = make_runner(specs)
        final = runner.run(GENS)
        assert np.array_equal(final, golden())
        assert runner.report.row_recomputes >= 1
        assert not runner.report.aborted

    def test_unmonitored_corruption_is_silent(self):
        specs = [FaultSpec("f", "bit_flip", "memory", 3, row=4, col=4, channel=2)]
        runner = make_runner(specs, use_parity=False, use_conservation=False)
        final = runner.run(GENS)
        assert not np.array_equal(final, golden())
        assert not runner.report.detected

    def test_memory_routed_faults_are_accounted(self):
        memory = MainMemory()
        specs = [FaultSpec("f", "bit_flip", "memory", 3, row=4, col=4, channel=2)]
        injector = FaultInjector(specs)
        auto = LatticeGasAutomaton(model(), init_state())
        runner = ResilientAutomatonRunner(
            auto, injector, checkpoint_interval=2, memory=memory
        )
        final = runner.run(GENS)
        assert np.array_equal(final, golden())
        assert memory.bits_read > 0 and memory.bits_written > 0


class TestReliableRowTransport:
    def frame(self):
        return init_state()

    def channel(self, specs, generation=1):
        return UnreliableRowChannel(
            self.frame(), FaultInjector(specs), generation=generation
        )

    def test_clean_transfer(self):
        frame, report = ReliableRowTransport(self.channel([])).receive()
        assert np.array_equal(frame, self.frame())
        assert not report.detected and report.retransmits == 0

    @pytest.mark.parametrize(
        "kind", ["drop_row", "duplicate_row", "bit_flip"]
    )
    def test_single_row_faults_recovered(self, kind):
        specs = [FaultSpec("f", kind, "host", 1, row=3, col=2, channel=1)]
        frame, report = ReliableRowTransport(self.channel(specs)).receive()
        assert np.array_equal(frame, self.frame())
        assert report.detected

    def test_stall_recovered_with_backoff(self):
        specs = [
            FaultSpec("d", "drop_row", "host", 1, row=3),
            FaultSpec("s", "stall", "host", 1, duration=2),
        ]
        frame, report = ReliableRowTransport(self.channel(specs)).receive()
        assert np.array_equal(frame, self.frame())
        assert report.backoff_delays == [1.0, 2.0]

    def test_hard_stall_aborts(self):
        specs = [
            FaultSpec("d", "drop_row", "host", 1, row=3),
            FaultSpec("s", "stall", "host", 1, duration=99),
        ]
        with pytest.raises(FaultDetectedError, match="unrecoverable"):
            ReliableRowTransport(self.channel(specs)).receive()

    def test_brownout_detected_data_intact(self):
        specs = [
            FaultSpec("b", "brownout", "host", 1, bandwidth_factor=0.5)
        ]
        frame, report = ReliableRowTransport(self.channel(specs)).receive()
        assert np.array_equal(frame, self.frame())
        assert report.realized_bandwidth_factor == pytest.approx(0.5)
        assert any(d.monitor == "bandwidth" for d in report.detections)


class TestAssembleRaw:
    def test_drop_shifts_and_pads(self):
        specs = [FaultSpec("f", "drop_row", "host", 1, row=0)]
        chan = UnreliableRowChannel(
            init_state(), FaultInjector(specs), generation=1
        )
        frame = assemble_raw(chan)
        assert frame.shape == (ROWS, COLS)
        assert np.array_equal(frame[0], init_state()[1])  # shifted up
        assert np.all(frame[-1] == 0)  # zero padding

    def test_duplicate_truncates(self):
        specs = [FaultSpec("f", "duplicate_row", "host", 1, row=0)]
        chan = UnreliableRowChannel(
            init_state(), FaultInjector(specs), generation=1
        )
        frame = assemble_raw(chan)
        assert np.array_equal(frame[0], frame[1])  # duplicated row
        assert frame.shape == (ROWS, COLS)
