"""Per-backend circuit breaker for the supervised runtime.

A worker crash while running a kernel backend is evidence against that
*backend*, not just that worker: a miscompiled plane-algebra kernel or a
backend-specific numerical bug will kill every worker that touches it,
restart after restart.  The breaker watches consecutive failures
attributed to a primary backend and, once a threshold trips, routes all
subsequent worker (re)spawns to a fallback backend — the verified
``reference`` kernels — so the run completes (bit-identically, since
backends are equivalence-tested) instead of burning the restart budget.

Standard three-state protocol, with one fixed policy
(:data:`FALLBACK_BACKEND`, :data:`FAILURE_THRESHOLD`,
:data:`COOLDOWN_SECONDS`):

* **closed** — primary backend in use; consecutive failures counted.
* **open** — fallback in use; after :data:`COOLDOWN_SECONDS` the next
  spawn is allowed to probe the primary again (**half-open**).
* **half-open** — exactly one probe worker runs the primary; durable
  progress (a checkpoint) closes the breaker, another failure re-opens
  it and restarts the cooldown.

The breaker takes its clock as a callable so tests drive it virtually.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry import MONOTONIC, Clock

__all__ = [
    "COOLDOWN_SECONDS",
    "FAILURE_THRESHOLD",
    "FALLBACK_BACKEND",
    "BreakerTransition",
    "CircuitBreaker",
]

#: Backend every respawn falls back to while the breaker is open.
FALLBACK_BACKEND = "reference"
#: Consecutive primary-backend failures that open the breaker.
FAILURE_THRESHOLD = 3
#: Seconds the breaker stays open before a half-open probe.
COOLDOWN_SECONDS = 30.0


@dataclass(frozen=True)
class BreakerTransition:
    """One state change of a breaker, for the supervision report."""

    backend: str
    state: str
    generation: int
    reason: str

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "backend": self.backend,
            "state": self.state,
            "generation": self.generation,
            "reason": self.reason,
        }


class CircuitBreaker:
    """Trip a failing primary backend over to a fallback, then probe back.

    Parameters
    ----------
    backend:
        The primary backend this breaker guards.  When it is
        :data:`FALLBACK_BACKEND` the breaker is inert (there is nowhere
        to fall back to) and always selects the primary.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, backend: str, clock: Clock = MONOTONIC):
        self.backend = backend
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.transitions: list[BreakerTransition] = []
        self._opened_at = 0.0
        self._probe_outstanding = False

    def _transition(self, state: str, generation: int, reason: str) -> None:
        self.state = state
        self.transitions.append(
            BreakerTransition(
                backend=self.backend,
                state=state,
                generation=generation,
                reason=reason,
            )
        )

    def select_backend(self, generation: int) -> str:
        """The backend a worker spawning now should run.

        Called at every worker (re)spawn.  While open, the cooldown is
        checked here: once elapsed, the breaker goes half-open and this
        spawn becomes the probe.
        """
        if self.backend == FALLBACK_BACKEND or self.state == "closed":
            return self.backend
        if self.state == "open":
            if self._clock() - self._opened_at >= COOLDOWN_SECONDS:
                self._transition(
                    "half-open",
                    generation,
                    f"cooldown of {COOLDOWN_SECONDS:g}s elapsed; probing",
                )
                self._probe_outstanding = True
                return self.backend
            return FALLBACK_BACKEND
        # half-open: one probe at a time
        if self._probe_outstanding:
            return FALLBACK_BACKEND
        self._probe_outstanding = True
        return self.backend

    def record_failure(self, backend: str, generation: int) -> None:
        """Attribute one worker failure to ``backend``.

        Failures on the fallback never count against the primary.
        """
        if backend != self.backend or self.backend == FALLBACK_BACKEND:
            return
        self.consecutive_failures += 1
        if self.state == "half-open":
            self._probe_outstanding = False
            self._opened_at = self._clock()
            self._transition("open", generation, "probe failed")
        elif (
            self.state == "closed"
            and self.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._opened_at = self._clock()
            self._transition(
                "open",
                generation,
                f"{self.consecutive_failures} consecutive failures "
                f"on {self.backend!r}",
            )

    def record_success(self, backend: str, generation: int) -> None:
        """Note durable progress (a checkpoint) by a worker on ``backend``."""
        if backend != self.backend:
            return
        self.consecutive_failures = 0
        if self.state == "half-open":
            self._probe_outstanding = False
            self._transition("closed", generation, "probe made durable progress")

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable summary for the supervision report."""
        return {
            "backend": self.backend,
            "fallback": FALLBACK_BACKEND,
            "failure_threshold": FAILURE_THRESHOLD,
            "cooldown_seconds": COOLDOWN_SECONDS,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "transitions": [t.to_dict() for t in self.transitions],
        }
