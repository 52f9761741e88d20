"""Tests for the corruption monitors.

Includes the subsystem's key property test: *any* single bit flip in a
conserved channel is flagged by the conservation monitor within one
generation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.lgca.ndim import NDHPPModel
from repro.resilience.monitors import (
    BandwidthMonitor,
    ConservationMonitor,
    ParityMonitor,
    TMRVoter,
    row_parity_tags,
)

ROWS, COLS = 8, 8


@pytest.fixture
def model():
    return FHPModel(ROWS, COLS, boundary="periodic", chirality="alternate")


@pytest.fixture
def state(rng):
    return uniform_random_state(ROWS, COLS, 6, 0.4, rng)


class TestRowParityTags:
    def test_shape(self, state):
        assert row_parity_tags(state).shape == (ROWS,)

    def test_stable_for_same_state(self, state):
        assert np.array_equal(row_parity_tags(state), row_parity_tags(state.copy()))

    def test_any_single_flip_changes_its_row_tag(self, state):
        tags = row_parity_tags(state)
        for r in range(ROWS):
            for c in range(COLS):
                for ch in range(6):
                    bad = state.copy()
                    bad[r, c] ^= 1 << ch
                    new = row_parity_tags(bad)
                    assert new[r] != tags[r]
                    mask = np.ones(ROWS, dtype=bool)
                    mask[r] = False
                    assert np.array_equal(new[mask], tags[mask])


class TestParityMonitor:
    def test_silent_before_tagging(self, state):
        assert ParityMonitor().check(state, 0) == []

    def test_clean_state_passes(self, state):
        monitor = ParityMonitor()
        monitor.tag(state)
        assert monitor.check(state, 1) == []

    def test_flip_detected_and_localized(self, state):
        monitor = ParityMonitor()
        monitor.tag(state)
        bad = state.copy()
        bad[5, 3] ^= 1 << 2
        detections = monitor.check(bad, 1)
        assert len(detections) == 1
        assert detections[0].rows == (5,)
        assert detections[0].monitor == "parity"

    def test_at_rest_flip_localized_after_retag(self, model, state):
        """Retagged every generation, clean frames pass and an at-rest
        flip in the latest frame is localized to its row."""
        monitor = ParityMonitor()
        auto = LatticeGasAutomaton(model, state)
        for _ in range(4):
            auto.step()
            monitor.tag(auto.state)
            assert monitor.check(auto.state, auto.time) == []
        bad = auto.state.copy()
        bad[4, 1] ^= 1 << 3
        detections = monitor.check(bad, auto.time)
        assert len(detections) == 1
        assert detections[0].rows == (4,)


class TestConservationMonitor:
    def test_requires_periodic_boundary(self):
        null_model = FHPModel(ROWS, COLS, boundary="null")
        with pytest.raises(ValueError, match="periodic"):
            ConservationMonitor(null_model)

    @pytest.mark.parametrize("boundary", ["null", "reflecting"])
    def test_requires_periodic_boundary_3d(self, boundary):
        with pytest.raises(ValueError, match="periodic"):
            ConservationMonitor(NDHPPModel((4, 4, 4), boundary=boundary))

    def test_clean_evolution_never_flags(self, model, state):
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        auto = LatticeGasAutomaton(model, state)
        for _ in range(6):
            auto.step()
            assert monitor.check(auto.state, auto.time) == []

    @given(
        r=st.integers(0, ROWS - 1),
        c=st.integers(0, COLS - 1),
        ch=st.integers(0, 5),
        steps_before=st.integers(0, 3),
    )
    def test_any_single_flip_flagged_within_one_generation(
        self, r, c, ch, steps_before
    ):
        """The mandated property: a single bit flip in any conserved
        channel, at any site, at any point of the evolution, is flagged
        within one generation — the flip changes total mass by exactly
        ±1 and the microdynamics conserve mass thereafter, so the drift
        can never re-mask itself."""
        model = FHPModel(ROWS, COLS, boundary="periodic", chirality="alternate")
        state = uniform_random_state(
            ROWS, COLS, 6, 0.4, np.random.default_rng(99)
        )
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        auto = LatticeGasAutomaton(model, state)
        auto.run(steps_before)
        auto.state[r, c] ^= np.uint8(1 << ch)
        # Flagged immediately on the corrupted frame...
        assert monitor.check(auto.state, auto.time)
        # ...and still flagged one generation later (conservation means
        # the corrupted mass count persists through the update).
        auto.step()
        assert monitor.check(auto.state, auto.time)

    def test_exhaustive_single_flips_at_one_generation(self, model, state):
        """Deterministic exhaustive sweep of the same property at t=1."""
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        auto = LatticeGasAutomaton(model, state)
        auto.step()
        base = auto.state.copy()
        for r in range(ROWS):
            for c in range(COLS):
                for ch in range(6):
                    bad = base.copy()
                    bad[r, c] ^= 1 << ch
                    assert monitor.check(bad, 1), (r, c, ch)

    def test_silent_before_arming(self, model, state):
        assert ConservationMonitor(model).check(state, 0) == []

    def test_rearm_resets_baseline(self, model, state, rng):
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        other = uniform_random_state(ROWS, COLS, 6, 0.2, rng)
        assert monitor.check(other, 1)  # different mass: flagged
        monitor.rearm(other)
        assert monitor.check(other, 2) == []

    def test_mass_preserving_substitution_caught(self, model):
        """A particle moved between channels keeps mass but not momentum."""
        state = np.zeros((ROWS, COLS), dtype=np.uint8)
        state[2, 3] = 0b000001
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        bad = state.copy()
        bad[2, 3] = 0b000010  # same popcount, different velocity
        detections = monitor.check(bad, 1)
        assert len(detections) == 1
        assert "momentum" in detections[0].detail

    def test_bits_above_the_channels_are_a_detection(self, model, state):
        """A site word with a bit above channel C is reported, not raised."""
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        bad = state.copy()
        bad[3, 4] = 0x40  # bit 6 of an FHP-6 frame
        bad[5, 1] |= 0x80
        detections = monitor.check(bad, 4)
        assert len(detections) == 1
        assert detections[0].generation == 4
        assert detections[0].detail == "2 sites have bits set above channel 5"

    def test_every_momentum_component_checked_3d(self):
        """A +z particle turned -z keeps mass and the x/y momentum."""
        model = NDHPPModel((4, 4, 4))
        state = np.zeros(model.shape, dtype=np.uint8)
        state[1, 2, 3] = 1 << 4  # +z
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        bad = state.copy()
        bad[1, 2, 3] = 1 << 5  # -z
        detections = monitor.check(bad, 1)
        assert len(detections) == 1
        assert "momentum" in detections[0].detail

    def test_clean_evolution_never_flags_3d(self, rng):
        model = NDHPPModel((4, 5, 6))
        state = rng.integers(0, 64, size=model.shape).astype(np.uint8)
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        for t in range(8):
            state = model.step(state, t)
            assert monitor.check(state, t + 1) == []

    def test_exhaustive_single_flips_3d(self, rng):
        """Every single flip of a 3-D field moves mass by exactly one."""
        model = NDHPPModel((4, 4, 4))
        state = rng.integers(0, 64, size=model.shape).astype(np.uint8)
        monitor = ConservationMonitor(model)
        monitor.arm(state)
        base = model.step(state, 0)
        for site in np.ndindex(*model.shape):
            for ch in range(6):
                bad = base.copy()
                bad[site] ^= 1 << ch
                detections = monitor.check(bad, 1)
                assert detections, (site, ch)
                assert "mass drift" in detections[0].detail


class TestTMRVoter:
    def test_vote_is_bitwise_majority(self):
        a = np.array([0b1100], dtype=np.uint8)
        b = np.array([0b1010], dtype=np.uint8)
        c = np.array([0b1001], dtype=np.uint8)
        assert TMRVoter.vote(a, b, c)[0] == 0b1000

    def test_outvotes_single_faulty_replica(self):
        def faulty(values, r, c, t):
            values[0] ^= 0b1
            return values

        voter = TMRVoter(faulty)
        hook = voter.as_post_collide()
        values = np.array([0b10, 0b11], dtype=np.uint8)
        out = hook(values.copy(), np.zeros(2, int), np.arange(2), 3)
        assert np.array_equal(out, values)
        assert len(voter.detections) == 1
        assert voter.detections[0].generation == 3

    def test_clean_replicas_no_detection(self):
        voter = TMRVoter(lambda values, r, c, t: values)
        hook = voter.as_post_collide()
        values = np.array([0b10], dtype=np.uint8)
        assert np.array_equal(hook(values.copy(), np.zeros(1, int), np.zeros(1, int), 0), values)
        assert voter.detections == []


class TestBandwidthMonitor:
    def test_above_floor_silent(self):
        assert BandwidthMonitor(floor=0.9).check_transfer(0.95, 1) == []

    def test_below_floor_flags(self):
        detections = BandwidthMonitor(floor=0.9).check_transfer(0.5, 1)
        assert len(detections) == 1
        assert "50%" in detections[0].detail

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError, match="floor"):
            BandwidthMonitor(floor=0.0)
