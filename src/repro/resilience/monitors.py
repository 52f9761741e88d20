"""Runtime corruption detectors for lattice evolutions.

Three pluggable monitors, ordered by what they can see:

* :class:`ParityMonitor` — per-row parity/checksum tags of the stored
  lattice.  Catches corruption *at rest* (memory upsets between
  generations) and names the corrupted rows, enabling row-granular
  recomputation instead of a full rollback.
* :class:`ConservationMonitor` — exact mass and momentum drift against
  the gas's invariants (periodic boundary).  Catches *any* single bit
  flip in a conserved channel within one generation, because a flip
  changes the particle count by exactly ±1 and LGCA microdynamics are
  reversible — a wrong bit never heals itself.
* :class:`TMRVoter` — triple-modular-redundancy voting across three PE
  replicas.  Catches (and corrects, inline) faults inside the update
  computation itself, which no state-side monitor can attribute.

All monitors return :class:`Detection` records and never raise; policy
(rollback, abort) lives in :mod:`repro.resilience.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lgca.automaton import SiteModel
from repro.lgca.observables import channel_counts

__all__ = [
    "Detection",
    "row_parity_tags",
    "ParityMonitor",
    "ConservationMonitor",
    "TMRVoter",
    "BandwidthMonitor",
]


@dataclass(frozen=True)
class Detection:
    """One monitor finding.

    Attributes
    ----------
    monitor:
        Which monitor fired (``"parity"``, ``"conservation"``, …).
    generation:
        Lattice generation the check ran at.
    detail:
        Human-readable description of what diverged.
    rows:
        Affected lattice rows when the monitor can localize (parity
        can; conservation cannot).
    """

    monitor: str
    generation: int
    detail: str
    rows: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "monitor": self.monitor,
            "generation": self.generation,
            "detail": self.detail,
            "rows": list(self.rows),
        }


def row_parity_tags(state: np.ndarray) -> np.ndarray:
    """Per-row integrity tags of a site-state frame.

    Tag = exact (uint64) sum of the row's site words — one vectorized
    pass over the frame.  Any change to a single
    word shifts its row sum by a nonzero delta (site words are < 2^16,
    the sum cannot wrap), so every single-event corruption is caught
    and localized to its row; only a multi-word forgery with exactly
    cancelling deltas in one row aliases, which the single-event fault
    model excludes.
    """
    return np.asarray(state).sum(axis=1, dtype=np.uint64)


class ParityMonitor:
    """Tag rows after each verified-good generation; verify on re-read."""

    name = "parity"

    def __init__(self) -> None:
        self._tags: np.ndarray | None = None

    def tag(self, state: np.ndarray) -> None:
        """Record tags for a frame known (or assumed) good."""
        self._tags = row_parity_tags(state)

    def check(self, state: np.ndarray, generation: int) -> list[Detection]:
        """Compare the frame against the last recorded tags."""
        if self._tags is None:
            return []
        tags = row_parity_tags(state)
        bad = np.nonzero(tags != self._tags)[0]
        if not bad.size:
            return []
        rows = tuple(int(r) for r in bad)
        return [
            Detection(
                monitor=self.name,
                generation=generation,
                detail=f"row parity mismatch in rows {list(rows)}",
                rows=rows,
            )
        ]


#: Momentum drift tolerance: it only absorbs float roundoff in the
#: hexagonal momentum components (channel counts are exact integers).
_DRIFT_TOLERANCE = 1e-6


class ConservationMonitor:
    """Flag mass/momentum drift of a periodic (closed) lattice gas.

    With periodic boundaries both invariants are exact integers /
    exact algebraic sums, so the tolerance only absorbs float roundoff
    in the hexagonal momentum components.
    """

    name = "conservation"

    def __init__(self, model: SiteModel):
        boundary = getattr(model, "boundary", "periodic")
        if boundary != "periodic":
            raise ValueError(
                "conservation monitoring needs a closed (periodic) lattice; "
                f"model has boundary={boundary!r}"
            )
        self.model = model
        self._velocities = np.asarray(model.velocities, dtype=np.float64)
        self._mass: int | None = None
        self._momentum: np.ndarray | None = None

    def _invariants(self, state: np.ndarray) -> tuple[int, np.ndarray]:
        # Both invariants are linear in the exact per-channel counts:
        # one histogram pass, no per-site momentum field.
        counts = channel_counts(state, self.model.num_channels)
        return int(counts.sum()), counts @ self._velocities

    def arm(self, state: np.ndarray) -> None:
        """Record the invariants of the initial (trusted) state."""
        self._mass, self._momentum = self._invariants(state)

    def rearm(self, state: np.ndarray) -> None:
        """Re-record invariants after a trusted restore (checkpoints)."""
        self.arm(state)

    def check(self, state: np.ndarray, generation: int) -> list[Detection]:
        """Compare the frame's invariants against the armed values."""
        if self._mass is None or self._momentum is None:
            return []
        detections = []
        try:
            mass, momentum = self._invariants(state)
        except ValueError:
            # A site word with bits above its channels (a memory upset
            # outside the conserved bits) has no mass or momentum to sum.
            channels = self.model.num_channels
            stray = int(np.count_nonzero(np.asarray(state) >> channels))
            if not stray:
                raise
            return [
                Detection(
                    monitor=self.name,
                    generation=generation,
                    detail=f"{stray} sites have bits set above channel {channels - 1}",
                )
            ]
        if mass != self._mass:
            detections.append(
                Detection(
                    monitor=self.name,
                    generation=generation,
                    detail=f"mass drift: {self._mass} -> {mass} "
                    f"({mass - self._mass:+d} particles)",
                )
            )
        drift = float(np.abs(momentum - self._momentum).max())
        if drift > _DRIFT_TOLERANCE:
            detections.append(
                Detection(
                    monitor=self.name,
                    generation=generation,
                    detail=f"momentum drift |dp|={drift:.3e} "
                    f"exceeds {_DRIFT_TOLERANCE:.1e}",
                )
            )
        return detections


class TMRVoter:
    """Majority-vote three PE replicas, one of which may be faulty.

    Wraps a (possibly fault-injecting) transform as replica 0 against
    two clean replicas; the bitwise majority of three words corrects any
    fault confined to one replica, and every disagreement is recorded as
    a :class:`Detection` — TMR is the one monitor that both detects
    *and* corrects in the same clock.
    """

    name = "tmr"

    def __init__(self, faulty_hook):
        self.faulty_hook = faulty_hook
        self.detections: list[Detection] = []

    @staticmethod
    def vote(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Bitwise majority of three equally-shaped word arrays."""
        return (a & b) | (a & c) | (b & c)

    def as_post_collide(self):
        """A :data:`~repro.engines.pe.PostCollideHook` running the vote.

        The stage hands us the *clean* collided values (replicas 1, 2);
        replica 0 passes through the faulty transform.  The returned
        values are the vote — i.e. clean unless two replicas fail
        together, which the single-event fault model excludes.
        """

        def hook(values: np.ndarray, r: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
            replica0 = np.asarray(self.faulty_hook(values.copy(), r, c, t))
            voted = self.vote(replica0, values, values)
            disagree = np.nonzero(replica0 != values)[0]
            if disagree.size:
                rows = tuple(sorted({int(np.asarray(r).ravel()[i]) for i in disagree[:8]}))
                self.detections.append(
                    Detection(
                        monitor=self.name,
                        generation=t,
                        detail=f"replica disagreement at {disagree.size} site(s), "
                        "outvoted 2-to-1",
                        rows=rows,
                    )
                )
            return voted

        return hook


class BandwidthMonitor:
    """Flag host-interface bandwidth brown-outs.

    Compares a transfer's realized bandwidth factor against a floor;
    a brown-out is a *performance* fault — data stays intact, so the
    recovery action is accounting (stretched wall clock), not rollback.
    """

    name = "bandwidth"

    def __init__(self, floor: float = 0.9):
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor={floor} must be in (0, 1]")
        self.floor = floor

    def check_transfer(
        self, realized_factor: float, generation: int
    ) -> list[Detection]:
        """One detection when the realized factor dips below the floor."""
        if realized_factor >= self.floor:
            return []
        return [
            Detection(
                monitor=self.name,
                generation=generation,
                detail=f"host bandwidth at {realized_factor:.0%} of nominal "
                f"(floor {self.floor:.0%})",
            )
        ]
