"""Tests for the per-backend circuit breaker (virtual clock)."""

import pytest

from repro.runtime.breaker import COOLDOWN_SECONDS, FAILURE_THRESHOLD, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make(clock):
    return CircuitBreaker("bitplane", clock=clock)


class TestClosed:
    def test_starts_closed_on_primary(self, clock):
        breaker = make(clock)
        assert breaker.state == "closed"
        assert breaker.select_backend(0) == "bitplane"

    def test_failures_below_threshold_stay_closed(self, clock):
        breaker = make(clock)
        breaker.record_failure("bitplane", 1)
        breaker.record_failure("bitplane", 2)
        assert breaker.state == "closed"
        assert breaker.select_backend(3) == "bitplane"

    def test_success_resets_the_count(self, clock):
        breaker = make(clock)
        for g in range(10):
            breaker.record_failure("bitplane", g)
            breaker.record_success("bitplane", g)
        assert breaker.state == "closed"

    def test_fallback_failures_never_count(self, clock):
        breaker = make(clock)
        for g in range(10):
            breaker.record_failure("reference", g)
        assert breaker.state == "closed"


class TestTrip:
    def test_threshold_consecutive_failures_open(self, clock):
        breaker = make(clock)
        for g in range(3):
            breaker.record_failure("bitplane", g)
        assert breaker.state == "open"
        assert breaker.select_backend(4) == "reference"
        [trip] = breaker.transitions
        assert trip.state == "open"
        assert "3 consecutive failures" in trip.reason

    def test_open_selects_fallback_until_cooldown(self, clock):
        breaker = make(clock)
        for g in range(3):
            breaker.record_failure("bitplane", g)
        clock.advance(29.0)
        assert breaker.select_backend(5) == "reference"
        assert breaker.state == "open"


class TestHalfOpen:
    def trip(self, breaker):
        for g in range(3):
            breaker.record_failure("bitplane", g)

    def test_cooldown_elapsed_allows_one_probe(self, clock):
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(31.0)
        assert breaker.select_backend(5) == "bitplane"  # the probe
        assert breaker.state == "half-open"
        # Only one probe at a time; other spawns stay on the fallback.
        assert breaker.select_backend(5) == "reference"

    def test_probe_success_closes(self, clock):
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(31.0)
        breaker.select_backend(5)
        breaker.record_success("bitplane", 6)
        assert breaker.state == "closed"
        assert breaker.select_backend(7) == "bitplane"
        assert [t.state for t in breaker.transitions] == [
            "open",
            "half-open",
            "closed",
        ]

    def test_probe_failure_reopens_and_restarts_cooldown(self, clock):
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(31.0)
        breaker.select_backend(5)
        breaker.record_failure("bitplane", 6)
        assert breaker.state == "open"
        clock.advance(29.0)  # cooldown restarted at the probe failure
        assert breaker.select_backend(7) == "reference"
        clock.advance(2.0)
        assert breaker.select_backend(8) == "bitplane"  # next probe


class TestInertAndReport:
    def test_same_fallback_is_inert(self, clock):
        breaker = CircuitBreaker("reference", clock=clock)
        for g in range(10):
            breaker.record_failure("reference", g)
        assert breaker.select_backend(11) == "reference"
        assert breaker.transitions == []

    def test_to_dict_shape(self, clock):
        breaker = make(clock)
        for g in range(3):
            breaker.record_failure("bitplane", g)
        payload = breaker.to_dict()
        assert payload["state"] == "open"
        assert payload["backend"] == "bitplane"
        assert payload["fallback"] == "reference"
        assert payload["failure_threshold"] == FAILURE_THRESHOLD == 3
        assert payload["cooldown_seconds"] == COOLDOWN_SECONDS == 30.0
        assert payload["transitions"][0]["generation"] == 2
