"""Supervised multi-process runtime for sharded lattice runs.

This package scales the in-process resilience story
(:mod:`repro.resilience`) up one level, to whole *processes*: the
lattice is split into row slabs (:mod:`repro.runtime.sharding`), each
slab evolves in its own worker process (:mod:`repro.runtime.worker`),
and a supervisor (:mod:`repro.runtime.supervisor`) runs the halo-exchange
barrier once per block of generations, watches heartbeats, restarts
dead or hung workers from durable checkpoints, and reports everything
in a schema-versioned supervision report.  Every worker of a run, and every restart, runs the run's one
kernel backend.

The headline invariant: a supervised run that loses no shard
permanently — however many workers crashed and restarted along the way —
produces a final lattice **bit-identical** to the unsupervised
single-process evolution.
"""

from repro.runtime.modelspec import MODEL_KINDS, ModelSpec
from repro.runtime.sharding import (
    BOUNDARY_ROWS,
    HALO_GENERATIONS,
    Shard,
    ShardRunner,
    block_end,
    plan_shards,
)
from repro.runtime.supervisor import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    RestartEvent,
    SupervisionReport,
    SupervisorConfig,
    supervised_run,
)
from repro.runtime.worker import InducedFault, WorkerConfig, worker_main

__all__ = [
    "BOUNDARY_ROWS",
    "HALO_GENERATIONS",
    "InducedFault",
    "MODEL_KINDS",
    "ModelSpec",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "RestartEvent",
    "Shard",
    "ShardRunner",
    "SupervisionReport",
    "SupervisorConfig",
    "WorkerConfig",
    "block_end",
    "plan_shards",
    "supervised_run",
    "worker_main",
]
