"""Fault injection, detection, and recovery for the lattice engines.

Layering:

* :mod:`repro.resilience.faults` — seeded fault specs, the injector,
  and the unreliable host channel;
* :mod:`repro.resilience.monitors` — parity tags, conservation drift,
  TMR voting, bandwidth floor;
* :mod:`repro.resilience.checkpoint` — self-verifying recovery points;
* :mod:`repro.resilience.recovery` — the resilient automaton runner and
  the reliable row transport (rollback, recompute, bounded retry);
* :mod:`repro.resilience.campaign` — the sweep runner and its
  deterministic report.  It drives the engine simulators through
  :mod:`repro.machines`, so it is not imported here: import it as
  ``repro.resilience.campaign`` (a supervised worker, which only needs
  checkpoints, then never loads the machine registry).
"""

from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_LOCATIONS,
    FaultInjector,
    FaultSpec,
    HostStallError,
    RowPacket,
    UnreliableRowChannel,
    row_checksum,
)
from repro.resilience.monitors import (
    BandwidthMonitor,
    ConservationMonitor,
    Detection,
    ParityMonitor,
    TMRVoter,
    row_parity_tags,
)
from repro.resilience.recovery import (
    BackoffPolicy,
    ReliableRowTransport,
    ResilientAutomatonRunner,
    RunReport,
    TransportReport,
    assemble_raw,
)

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "FAULT_KINDS",
    "FAULT_LOCATIONS",
    "FaultInjector",
    "FaultSpec",
    "HostStallError",
    "RowPacket",
    "UnreliableRowChannel",
    "row_checksum",
    "BandwidthMonitor",
    "ConservationMonitor",
    "Detection",
    "ParityMonitor",
    "TMRVoter",
    "row_parity_tags",
    "BackoffPolicy",
    "ReliableRowTransport",
    "ResilientAutomatonRunner",
    "RunReport",
    "TransportReport",
    "assemble_raw",
]
