"""Recovery: checkpoint/rollback, row recomputation, bounded retry.

Two recovery engines, one per side of the host interface:

* :class:`ResilientAutomatonRunner` — evolves the golden
  :class:`~repro.lgca.automaton.LatticeGasAutomaton` under fault
  injection with parity + conservation monitoring, periodic
  checkpoints, row-granular recomputation (when parity names the
  corrupted rows) and checkpoint rollback-and-replay otherwise.
  Transient faults do not recur on replay, so one rollback fixes them;
  persistent faults re-fire every replay and exhaust the bounded retry
  budget into a clean abort (:class:`~repro.util.errors.FaultDetectedError`)
  instead of silent corruption or an infinite loop.
* :class:`ReliableRowTransport` — receives a sequence-numbered,
  checksummed row stream from an
  :class:`~repro.resilience.faults.UnreliableRowChannel`, detecting
  drops, duplicates, and payload corruption by tag, re-requesting rows
  with exponential backoff when the host stalls, and flagging
  bandwidth brown-outs.

Both record everything they did in a report object — the campaign
classifier and the tests read those, not stdout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lgca.automaton import LatticeGasAutomaton
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    FaultInjector,
    HostStallError,
    UnreliableRowChannel,
)
from repro.resilience.monitors import (
    BandwidthMonitor,
    ConservationMonitor,
    Detection,
    ParityMonitor,
)
from repro.engines.memory import MainMemory
from repro.util.backoff import BackoffPolicy
from repro.util.errors import CheckpointError, FaultDetectedError
from repro.util.validation import check_nonnegative

__all__ = [
    "BackoffPolicy",  # re-exported; the class lives in repro.util.backoff
    "RunReport",
    "ResilientAutomatonRunner",
    "TransportReport",
    "ReliableRowTransport",
    "assemble_raw",
]


@dataclass
class RunReport:
    """Everything a resilient run detected and did about it."""

    generations: int = 0
    detections: list[Detection] = field(default_factory=list)
    corrections: int = 0
    row_recomputes: int = 0
    rollbacks: int = 0
    backoff_delays: list[float] = field(default_factory=list)
    checkpoint_saves: int = 0
    aborted: bool = False
    abort_reason: str = ""

    @property
    def detected(self) -> bool:
        """Whether any monitor fired during the run."""
        return bool(self.detections)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "generations": self.generations,
            "detections": [d.to_dict() for d in self.detections],
            "corrections": self.corrections,
            "row_recomputes": self.row_recomputes,
            "rollbacks": self.rollbacks,
            "backoff_delays": list(self.backoff_delays),
            "checkpoint_saves": self.checkpoint_saves,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
        }


class ResilientAutomatonRunner:
    """Monitored, checkpointed evolution of the reference automaton.

    Parameters
    ----------
    auto:
        The automaton to protect (periodic boundary for conservation
        monitoring).
    injector:
        Fault source; ``None`` runs clean (useful for overhead benches).
    use_parity / use_conservation:
        Which monitors to enable.  With both off the runner is a plain
        (unprotected) evolution — the campaign's control arm.
    checkpoint_interval:
        Generations between recovery points.
    policy:
        Bounded-retry/backoff policy for rollback replays.
    memory:
        Optional :class:`~repro.engines.memory.MainMemory` the state is
        routed through each generation, so memory faults surface through
        the real ``store_frame``/``load_frame`` hook and the traffic is
        accounted.
    """

    def __init__(
        self,
        auto: LatticeGasAutomaton,
        injector: FaultInjector | None = None,
        *,
        use_parity: bool = True,
        use_conservation: bool = True,
        checkpoint_interval: int = 4,
        policy: BackoffPolicy | None = None,
        memory: MainMemory | None = None,
    ):
        self.auto = auto
        self.injector = injector
        self.parity = ParityMonitor() if use_parity else None
        self.conservation = (
            ConservationMonitor(auto.model) if use_conservation else None
        )
        self.store = CheckpointStore(interval=checkpoint_interval)
        self.policy = policy or BackoffPolicy()
        self.memory = memory
        self.report = RunReport()
        self._gen = auto.time
        if memory is not None and injector is not None:
            memory.read_transform = injector.memory_read_transform(
                auto.shape, lambda: self._gen
            )
        # state before the most recent step, for row recomputation
        self._prev_state: np.ndarray | None = None
        self._prev_gen: int = -1

    # -- fault surfaces ----------------------------------------------------------

    def _read_frame(self, generation: int) -> np.ndarray:
        """The frame as the engine sees it this generation (post-faults)."""
        self._gen = generation
        if self.injector is None:
            return self.auto.state
        if self.memory is not None:
            self.memory.store_frame(self.auto.state.ravel())
            return self.memory.load_frame().reshape(self.auto.shape)
        return self.injector.corrupt_frame(self.auto.state, generation)

    # -- recovery actions --------------------------------------------------------

    def _recompute_rows(self, rows: tuple[int, ...], generation: int) -> bool:
        """Repair corrupted rows of the current state from the previous one.

        The state at ``generation`` was verified good when tagged; only
        the named rows rotted at rest.  Replaying the last step from the
        retained ``generation - 1`` state regenerates them bit-exactly
        (deterministic microdynamics), so only the corrupted rows are
        rewritten.  Returns False when no previous state is available
        (fall back to checkpoint rollback).
        """
        if self._prev_state is None or self._prev_gen != generation - 1:
            return False
        replay_auto = LatticeGasAutomaton(
            self.auto.model,
            self._prev_state,
            obstacles=self.auto.obstacles,
            time=generation - 1,
        )
        replay_auto.step()
        state = self.auto.state
        state[list(rows)] = replay_auto.state[list(rows)]
        self.report.row_recomputes += 1
        self.report.corrections += 1
        return True

    def _rollback_and_replay(self, target: int) -> None:
        """Restore the last checkpoint and replay up to ``target``.

        Bounded retries with exponential backoff; raises
        :class:`FaultDetectedError` when every attempt re-detects (a
        persistent fault) or no checkpoint survives.
        """
        last_detail = "unknown"
        for attempt in range(self.policy.max_retries):
            self.report.backoff_delays.append(self.policy.delay(attempt))
            try:
                cp = self.store.latest()
            except CheckpointError as exc:
                raise FaultDetectedError(
                    f"cannot recover: {exc}", tuple(self.report.detections)
                ) from exc
            self.auto.state = cp.state.copy()
            self.auto.time = cp.generation
            if self.parity is not None:
                self.parity.tag(self.auto.state)
            self._prev_state = None  # stale across a rollback
            self.report.rollbacks += 1
            clean = True
            while self.auto.time < target:
                detections = self._advance_one()
                if detections:
                    last_detail = detections[-1].detail
                    clean = False
                    break
            if clean:
                self.report.corrections += 1
                return
        raise FaultDetectedError(
            f"persistent fault survived {self.policy.max_retries} "
            f"rollback attempts (last: {last_detail})",
            tuple(self.report.detections),
        )

    # -- the per-generation pipeline ---------------------------------------------

    def _advance_one(self) -> list[Detection]:
        """One monitored generation; returns (and records) detections.

        Recovery is *not* attempted here — the caller decides (the main
        loop recovers; the replay loop treats any detection as a failed
        attempt).  Row-granular repair of at-rest corruption is the
        exception: it happens inline because it needs only the retained
        previous state, and a repaired frame continues cleanly.
        """
        t = self.auto.time
        frame = self._read_frame(t)
        detections: list[Detection] = []
        if self.parity is not None:
            at_rest = self.parity.check(frame, t)
            if at_rest:
                self.report.detections.extend(at_rest)
                self.auto.state = frame
                if self._recompute_rows(at_rest[0].rows, t):
                    frame = self.auto.state
                else:
                    return at_rest
        self.auto.state = frame
        self._prev_state = self.auto.state.copy()
        self._prev_gen = t
        self.auto.step()
        if self.conservation is not None:
            drift = self.conservation.check(self.auto.state, self.auto.time)
            if drift:
                self.report.detections.extend(drift)
                detections.extend(drift)
        if not detections:
            if self.parity is not None:
                self.parity.tag(self.auto.state)
            if self.store.due(self.auto.time):
                self.store.save(self.auto.time, self.auto.state)
                self.report.checkpoint_saves += 1
        return detections

    def run(self, generations: int, *, abort_raises: bool = False) -> np.ndarray:
        """Advance ``generations`` with monitoring and recovery.

        Returns the final state; consult :attr:`report` for what
        happened on the way.  An unrecoverable fault either raises
        :class:`FaultDetectedError` (``abort_raises=True``) or is
        recorded as ``report.aborted`` with the evolution stopped at
        the last consistent state.
        """
        generations = check_nonnegative(generations, "generations", integer=True)
        if self.conservation is not None:
            self.conservation.arm(self.auto.state)
        if self.parity is not None:
            self.parity.tag(self.auto.state)
        self.store.save(self.auto.time, self.auto.state)
        self.report.checkpoint_saves += 1
        target = self.auto.time + generations
        try:
            while self.auto.time < target:
                detections = self._advance_one()
                if detections:
                    self._rollback_and_replay(target)
        except FaultDetectedError as exc:
            if abort_raises:
                raise
            self.report.aborted = True
            self.report.abort_reason = str(exc)
        self.report.generations = self.auto.time - (target - generations)
        return self.auto.state


@dataclass
class TransportReport:
    """What one reliable frame transfer detected and did."""

    rows: int = 0
    detections: list[Detection] = field(default_factory=list)
    retransmits: int = 0
    backoff_delays: list[float] = field(default_factory=list)
    realized_bandwidth_factor: float = 1.0
    aborted: bool = False
    abort_reason: str = ""

    @property
    def detected(self) -> bool:
        """Whether any transfer anomaly was seen."""
        return bool(self.detections)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form."""
        return {
            "rows": self.rows,
            "detections": [d.to_dict() for d in self.detections],
            "retransmits": self.retransmits,
            "backoff_delays": list(self.backoff_delays),
            "realized_bandwidth_factor": self.realized_bandwidth_factor,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
        }


class ReliableRowTransport:
    """Receive a frame over an unreliable host channel, reliably.

    Every packet carries ``(seq, crc32, row)``; the receiver detects
    duplicates and corruption immediately, detects drops by the gap in
    sequence numbers at end of stream, and recovers everything through
    bounded retransmission with exponential backoff.
    """

    def __init__(
        self,
        channel: UnreliableRowChannel,
        policy: BackoffPolicy | None = None,
        bandwidth_monitor: BandwidthMonitor | None = None,
    ):
        self.channel = channel
        self.policy = policy or BackoffPolicy()
        self.bandwidth_monitor = bandwidth_monitor or BandwidthMonitor()

    def _retransmit(self, seq: int, report: TransportReport) -> np.ndarray:
        generation = self.channel.generation
        for attempt in range(self.policy.max_retries + 1):
            try:
                packet = self.channel.retransmit(seq)
            except HostStallError as exc:
                delay = self.policy.delay(attempt)
                report.backoff_delays.append(delay)
                report.detections.append(
                    Detection(
                        monitor="transport",
                        generation=generation,
                        detail=f"{exc}; backing off {delay:g} units "
                        f"(attempt {attempt + 1})",
                        rows=(seq,),
                    )
                )
                continue
            report.retransmits += 1
            if packet.intact:
                return packet.row
            report.detections.append(
                Detection(
                    monitor="transport",
                    generation=generation,
                    detail=f"retransmitted row {seq} failed its checksum",
                    rows=(seq,),
                )
            )
        raise FaultDetectedError(
            f"row {seq} unrecoverable after {self.policy.max_retries + 1} "
            "retransmit attempts",
            tuple(report.detections),
        )

    def receive(self) -> tuple[np.ndarray, TransportReport]:
        """Collect the full frame; returns ``(rows, report)``.

        Raises
        ------
        FaultDetectedError
            When a row stays unrecoverable through the whole retry
            budget (the caller aborts the generation).
        """
        expected = self.channel.rows.shape[0]
        generation = self.channel.generation
        report = TransportReport(rows=expected)
        received: dict[int, np.ndarray] = {}
        for packet in self.channel.packets():
            if packet.seq in received:
                report.detections.append(
                    Detection(
                        monitor="transport",
                        generation=generation,
                        detail=f"duplicate row {packet.seq} discarded",
                        rows=(packet.seq,),
                    )
                )
                continue
            if not packet.intact:
                report.detections.append(
                    Detection(
                        monitor="transport",
                        generation=generation,
                        detail=f"row {packet.seq} failed its checksum",
                        rows=(packet.seq,),
                    )
                )
                received[packet.seq] = self._retransmit(packet.seq, report)
                continue
            received[packet.seq] = packet.row
        for seq in range(expected):
            if seq not in received:
                report.detections.append(
                    Detection(
                        monitor="transport",
                        generation=generation,
                        detail=f"row {seq} missing from stream (dropped)",
                        rows=(seq,),
                    )
                )
                received[seq] = self._retransmit(seq, report)
        factor = expected / max(self.channel.transfer_time_units, 1e-12)
        report.realized_bandwidth_factor = min(factor, 1.0)
        report.detections.extend(
            self.bandwidth_monitor.check_transfer(
                report.realized_bandwidth_factor, generation
            )
        )
        frame = np.stack([received[seq] for seq in range(expected)])
        return frame, report


def assemble_raw(channel: UnreliableRowChannel) -> np.ndarray:
    """The unprotected receiver: take the wire as-is.

    Dropped rows shift everything up, duplicates shift it down, and the
    frame is padded with zero rows / truncated to the expected height —
    exactly what a host DMA engine with no sequence checking would do.
    """
    expected, cols = channel.rows.shape
    rows = [packet.row for packet in channel.packets()]
    while len(rows) < expected:
        rows.append(np.zeros(cols, dtype=channel.rows.dtype))
    return np.stack(rows[:expected])
