"""Fold worker spools + the coordinator recorder into one v2 report.

The supervised runtime is the repo's stand-in for the paper's
multi-engine configuration, and its telemetry is born scattered: the
coordinator holds an :class:`~repro.telemetry.core.InMemoryRecorder`,
each worker incarnation leaves a crash-safe spool
(:mod:`repro.telemetry.spool`).  This module folds them into a single
schema-v2 :class:`~repro.telemetry.report.TelemetryReport`:

* **top-level sections are the cross-process aggregate** — counters
  summed by name, timer histograms merged bucket-wise (so `min`/`max`/
  bucket shape survive, unlike averaging means), spans concatenated
  with indices re-based per process block (the ``parent < index``
  invariant holds by construction), events on one timeline;
* **``processes`` carries the attribution** — one entry per process
  (coordinator + every worker incarnation) with its own counters and
  timers, plus identity: pid, worker index, incarnation, backend, shard
  row range, and the clock offset applied;
* **clocks are aligned via the handshake offset** — each worker sends a
  reading of its monotonic clock in its ``ready`` message and the
  supervisor timestamps the receipt with the *recorder's* clock; the
  difference shifts that incarnation's span/event times onto the
  coordinator timeline (skewed late by at most the message latency,
  bounded by the supervisor poll interval).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.telemetry.core import InMemoryRecorder
from repro.telemetry.report import (
    TelemetryError,
    TelemetryReport,
    run_metadata,
)
from repro.telemetry.spool import WorkerSpool

__all__ = [
    "ProcessTelemetry",
    "coordinator_process",
    "spool_process",
    "load_worker_spools",
    "merge_timers",
    "merge_processes",
]


@dataclass
class ProcessTelemetry:
    """One process's contribution to a merged report.

    ``clock_offset`` (seconds, coordinator minus worker clock at the
    ready handshake) is *added* to this process's span and event times
    during the merge; the coordinator contributes with offset 0.
    """

    name: str
    kind: str  # "coordinator" | "worker"
    snapshot: dict[str, object]
    pid: int | None = None
    worker: int | None = None
    incarnation: int | None = None
    backend: str | None = None
    shard: dict[str, object] | None = None
    clock_offset: float = 0.0
    spool_status: str | None = None
    spool_generation: int | None = None
    frames_skipped: int = 0

    def entry(self) -> dict[str, object]:
        """The ``processes[]`` entry: identity plus own counters/timers."""
        e: dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "pid": self.pid,
            "worker": self.worker,
            "incarnation": self.incarnation,
            "backend": self.backend,
            "shard": self.shard,
            "clock_offset_seconds": self.clock_offset,
            "counters": dict(self.snapshot.get("counters", {})),  # type: ignore[arg-type]
            "timers": dict(self.snapshot.get("timers", {})),  # type: ignore[arg-type]
            "spans": len(self.snapshot.get("spans", [])),  # type: ignore[arg-type]
            "events": len(self.snapshot.get("events", [])),  # type: ignore[arg-type]
        }
        if self.spool_status is not None:
            e["spool_status"] = self.spool_status
        if self.spool_generation is not None:
            e["spool_generation"] = self.spool_generation
        if self.frames_skipped:
            e["frames_skipped"] = self.frames_skipped
        return e


def coordinator_process(
    recorder: InMemoryRecorder, name: str = "coordinator"
) -> ProcessTelemetry:
    """Wrap the supervisor's own recorder as the offset-zero process."""
    return ProcessTelemetry(
        name=name,
        kind="coordinator",
        snapshot=recorder.snapshot(),
        pid=os.getpid(),
    )


def spool_process(
    spool: WorkerSpool, clock_offset: float = 0.0
) -> ProcessTelemetry:
    """Turn one parsed worker spool into a :class:`ProcessTelemetry`.

    Identity comes from the spool's ``open`` frame; a worker that died
    before its first snapshot still yields a process entry (with empty
    sections), so the merged report accounts for every life.
    """
    meta = spool.meta
    worker = meta.get("worker")
    incarnation = meta.get("incarnation")
    name = f"worker-{worker}.{incarnation}"
    shard = meta.get("shard")
    return ProcessTelemetry(
        name=name,
        kind="worker",
        snapshot=dict(spool.snapshot or {}),
        pid=meta.get("pid") if isinstance(meta.get("pid"), int) else None,
        worker=worker if isinstance(worker, int) else None,
        incarnation=incarnation if isinstance(incarnation, int) else None,
        backend=meta.get("backend") if isinstance(meta.get("backend"), str) else None,
        shard=dict(shard) if isinstance(shard, Mapping) else None,
        clock_offset=clock_offset,
        spool_status=spool.status,
        spool_generation=spool.generation,
        frames_skipped=spool.skipped,
    )


def load_worker_spools(
    directory: str | Path,
    offsets: Mapping[tuple[int, int], float] | None = None,
) -> list[ProcessTelemetry]:
    """Parse every worker spool under ``directory`` (sorted by filename).

    ``offsets`` maps ``(worker, incarnation)`` to the handshake clock
    offset; missing entries fall back to 0.  Unusable spool files
    (no intact open frame) are skipped — a merge must not fail a run
    that already survived its workers dying.
    """
    offsets = offsets or {}
    processes: list[ProcessTelemetry] = []
    root = Path(directory)
    if not root.is_dir():
        return processes
    for path in sorted(root.glob("worker-*.jsonl")):
        try:
            spool = WorkerSpool.load(path)
        except TelemetryError:
            continue
        key = (spool.meta.get("worker"), spool.meta.get("incarnation"))
        offset = offsets.get(key, 0.0)  # type: ignore[arg-type]
        processes.append(spool_process(spool, clock_offset=offset))
    return processes


def merge_timers(histograms: list[Mapping[str, object]]) -> dict[str, object]:
    """Merge timer histograms exactly: sums, extrema, bucket-wise add.

    This is the honest cross-process aggregate — the merged mean is
    recomputed from the merged totals, never averaged from per-process
    means (which would weight a 2-generation incarnation equal to a
    200-generation one).
    """
    count = 0
    total = 0.0
    lo = float("inf")
    hi = 0.0
    buckets: dict[str, int] = {}
    name = ""
    for t in histograms:
        name = str(t.get("name", name)) or name
        n = int(t["count"])  # type: ignore[index]
        count += n
        total += float(t["total_seconds"])  # type: ignore[index]
        if n:
            lo = min(lo, float(t["min_seconds"]))  # type: ignore[index]
            hi = max(hi, float(t["max_seconds"]))  # type: ignore[index]
        for key, bn in dict(t.get("buckets", {})).items():  # type: ignore[arg-type]
            buckets[str(key)] = buckets.get(str(key), 0) + int(bn)
    return {
        "name": name,
        "count": count,
        "total_seconds": total,
        "min_seconds": lo if count else 0.0,
        "max_seconds": hi,
        "mean_seconds": total / count if count else 0.0,
        "buckets": buckets,
    }


def _shifted_spans(
    proc: ProcessTelemetry, base_index: int
) -> list[dict[str, object]]:
    """Re-based, clock-aligned copies of one process's spans.

    Indices shift by ``base_index`` and parents follow, so the merged
    list preserves the schema invariant (parent is -1 or an earlier index)
    per process block; ``process`` tags every span with its origin.
    """
    out: list[dict[str, object]] = []
    offset = proc.clock_offset
    for s in proc.snapshot.get("spans", []):  # type: ignore[union-attr]
        span = dict(s)
        span["index"] = int(span["index"]) + base_index
        parent = int(span.get("parent", -1))
        span["parent"] = parent + base_index if parent >= 0 else -1
        span["start"] = float(span["start"]) + offset
        if span.get("end") is not None:
            span["end"] = float(span["end"]) + offset
        span["process"] = proc.name
        out.append(span)
    return out


def _shifted_events(proc: ProcessTelemetry) -> list[dict[str, object]]:
    """Clock-aligned, origin-tagged copies of one process's events."""
    out: list[dict[str, object]] = []
    for e in proc.snapshot.get("events", []):  # type: ignore[union-attr]
        event = dict(e)
        if isinstance(event.get("time"), (int, float)):
            event["time"] = float(event["time"]) + proc.clock_offset
        event["process"] = proc.name
        out.append(event)
    return out


def merge_processes(
    processes: list[ProcessTelemetry],
    meta: Mapping[str, object] | None = None,
    producer: str = "repro.telemetry.merge",
) -> TelemetryReport:
    """Fold process contributions into one schema-v2 report.

    Top-level counters/timers are exact aggregates; spans and events
    are concatenated on the aligned timeline with per-process tags;
    ``processes`` keeps the per-process attribution.  Events are sorted
    by aligned time (ties keep process order) so the merged stream
    reads as one timeline.
    """
    counters: dict[str, int] = {}
    timer_parts: dict[str, list[Mapping[str, object]]] = {}
    spans: list[dict[str, object]] = []
    events: list[dict[str, object]] = []
    for proc in processes:
        proc_counters = dict(proc.snapshot.get("counters", {}))  # type: ignore[arg-type]
        for name, value in proc_counters.items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, t in dict(proc.snapshot.get("timers", {})).items():  # type: ignore[arg-type]
            timer_parts.setdefault(name, []).append(t)
        spans.extend(_shifted_spans(proc, base_index=len(spans)))
        events.extend(_shifted_events(proc))
    events.sort(
        key=lambda e: e["time"] if isinstance(e.get("time"), (int, float)) else 0.0
    )
    merged_meta = dict(meta or {})
    if "run" not in merged_meta:
        merged_meta["run"] = run_metadata(producer)
    return TelemetryReport(
        counters=dict(sorted(counters.items())),
        timers={name: merge_timers(parts) for name, parts in sorted(timer_parts.items())},
        spans=spans,
        events=events,
        meta=merged_meta,
        processes=[p.entry() for p in processes],
    )
