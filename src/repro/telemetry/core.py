"""The instrumentation core: recorders, counters, timers, spans, clocks.

The paper's whole argument is quantitative — site-update rate R, ticks,
I/O bits, the R = O(B·S^(1/d)) bound — so the reproduction routes every
measurement through one spine instead of four disconnected mechanisms.
This module is that spine's core:

* :class:`Counter` — a pre-bindable monotonic event counter;
* :class:`Timer` — a histogram timer with fixed power-of-two buckets
  (scalar accumulators only, so recording is allocation-free and
  legal inside the streaming kernels, whose warm allocation the test
  suite gates under ``tracemalloc``);
* spans — nested wall-clock intervals with tick/generation attribution;
* :class:`Recorder` — the protocol every measuring layer programs
  against, with two implementations:

  :class:`NullRecorder`
      The zero-overhead default.  Its clock is a constant (no syscall),
      its timers and spans are no-ops, and its *counters are real* —
      fresh, unregistered :class:`Counter` objects — so code that
      derives statistics from counter handles (the engines) works
      identically whether or not anything is listening.
  :class:`InMemoryRecorder`
      Registers counters and timers by name, keeps the span tree and
      event list, and snapshots into a
      :class:`~repro.telemetry.report.TelemetryReport`.

Clocks are injectable everywhere (:data:`MONOTONIC` is the one place in
the package allowed to touch ``time.monotonic`` — lint rule RPR103
forbids raw clock reads outside :mod:`repro.telemetry`), and
:class:`StepClock` is the deterministic fake the runtime tests drive.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Protocol, runtime_checkable

__all__ = [
    "Clock",
    "MONOTONIC",
    "PERF_COUNTER",
    "StepClock",
    "Counter",
    "Timer",
    "SpanRecord",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "NULL_RECORDER",
]

#: A monotonic time source: ``clock() -> seconds``.
Clock = Callable[[], float]

#: The real monotonic clock.  This module is the single sanctioned
#: importer of the raw stdlib clocks (lint rule RPR103); every other
#: layer takes a :data:`Clock` and defaults to this one.
MONOTONIC: Clock = time.monotonic

#: The high-resolution clock the benchmarks inject for short intervals.
PERF_COUNTER: Clock = time.perf_counter


class StepClock:
    """A deterministic fake clock that advances a fixed step per read.

    The supervised-runtime event loop is synchronous — nothing can
    advance a manual clock *between* its clock reads — so the fake
    advances itself: every call returns the current time and moves it
    forward by ``step``.  Watchdogs and deadlines then trip after a
    bounded number of reads instead of real seconds.  ``advance()``
    jumps the clock explicitly for direct unit tests.
    """

    def __init__(self, start: float = 0.0, step: float = 0.0):
        self.now = float(start)
        self.step = float(step)
        self.reads = 0

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        self.reads += 1
        return value

    def advance(self, seconds: float) -> None:
        """Jump the clock forward without counting a read."""
        self.now += seconds


class Counter:
    """A monotonic event counter, pre-bound once and bumped from hot code.

    Plain integer arithmetic on two slots — no dict lookup, no
    allocation — so handles are safe to call per tick.  A counter is a
    *handle*: the null recorder hands out fresh unregistered instances
    (their values are read by the caller and reported nowhere), the
    in-memory recorder registers them by name.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (must be non-negative; unchecked for speed)."""
        self.value += n

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {"name": self.name, "value": self.value}


#: ``Timer`` bucket count: bucket ``i`` holds durations whose
#: nanosecond count has bit length ``i`` (i.e. ``[2^(i-1), 2^i) ns``),
#: with the last bucket absorbing everything >= ~134 s.
NUM_TIMER_BUCKETS = 38


class Timer:
    """A histogram timer: scalar accumulators plus fixed 2^n ns buckets.

    ``record`` touches only floats, ints, and a preallocated list slot,
    so it is allocation-free in steady state and legal inside a hot
    path.  Like :class:`Counter`, a timer is a pre-bound
    handle — resolve it once outside the loop, call ``record`` inside.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.buckets = [0] * NUM_TIMER_BUCKETS

    def record(self, seconds: float) -> None:
        """Fold one duration (in seconds) into the histogram."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        ns = int(seconds * 1e9)
        idx = ns.bit_length()
        if idx >= NUM_TIMER_BUCKETS:
            idx = NUM_TIMER_BUCKETS - 1
        self.buckets[idx] += 1

    @property
    def mean(self) -> float:
        """Mean recorded duration in seconds (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form; only non-empty buckets are materialized.

        Bucket keys are the inclusive upper bound of the bucket in
        nanoseconds (``"le_ns"``), so the histogram round-trips through
        JSON without float formatting surprises.
        """
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "mean_seconds": self.mean,
            "buckets": {
                str((1 << i) - 1 if i else 0): n
                for i, n in enumerate(self.buckets)
                if n
            },
        }


class SpanRecord:
    """One completed (or open) span: a named interval with attribution.

    ``parent`` is the index of the enclosing span in the recorder's span
    list (-1 at the root), which preserves the nesting tree through JSON
    without recursion.  ``tick`` and ``generation`` attribute the
    interval to simulated time; either may be ``None``.
    """

    __slots__ = ("name", "index", "parent", "depth", "start", "end", "tick", "generation")

    def __init__(
        self,
        name: str,
        index: int,
        parent: int,
        depth: int,
        start: float,
        tick: int | None = None,
        generation: int | None = None,
    ):
        self.name = name
        self.index = index
        self.parent = parent
        self.depth = depth
        self.start = start
        self.end: float | None = None
        self.tick = tick
        self.generation = generation

    @property
    def seconds(self) -> float:
        """Span duration (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "tick": self.tick,
            "generation": self.generation,
        }


@runtime_checkable
class Recorder(Protocol):
    """What every measuring layer programs against.

    Implementations promise that :meth:`counter` returns a *working*
    :class:`Counter` (so statistics can be derived from handle values
    under any recorder) and that :attr:`clock` is cheap enough to
    pre-bind into hot loops.
    """

    #: The recorder's time source (pre-bind into locals in hot code).
    clock: Clock

    def counter(self, name: str) -> Counter:
        """A counter handle for ``name`` (always functional)."""
        ...

    def timer(self, name: str) -> Timer:
        """A timer handle for ``name`` (may be a shared no-op)."""
        ...

    def span(self, name: str, tick: int | None = None, generation: int | None = None):
        """A context manager timing a nested, attributed interval."""
        ...

    def event(self, name: str, **fields: object) -> None:
        """Record one structured event (no-op on the null recorder)."""
        ...


def _zero_clock() -> float:
    """The null recorder's clock: a constant, so no syscall in hot loops."""
    return 0.0


class _NullTimer(Timer):
    """A timer whose ``record`` does nothing; shared by all null handles."""

    __slots__ = ()

    def record(self, seconds: float) -> None:  # noqa: ARG002 - protocol no-op
        pass


class _NullSpan:
    """A reusable no-op span context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_TIMER = _NullTimer("null")
_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default recorder.

    * ``clock`` returns a constant — no syscall;
    * ``timer`` returns one shared no-op handle;
    * ``span`` returns one shared no-op context manager;
    * ``event`` discards everything;
    * ``counter`` returns a **fresh, real** :class:`Counter` — callers
      that derive statistics from counter values (the engine cores)
      work identically under the null recorder; the counts are simply
      reported nowhere.

    Stateless, so one module-level instance (:data:`NULL_RECORDER`)
    serves every default.
    """

    enabled = False
    clock: Clock = staticmethod(_zero_clock)

    def counter(self, name: str) -> Counter:
        return Counter(name)

    def timer(self, name: str) -> Timer:  # noqa: ARG002 - shared no-op handle
        return _NULL_TIMER

    def span(
        self, name: str, tick: int | None = None, generation: int | None = None
    ) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields: object) -> None:
        return None


#: The shared default recorder every instrumented layer falls back to.
NULL_RECORDER = NullRecorder()


class _ActiveSpan:
    """Context manager driving one :class:`SpanRecord` on a recorder."""

    __slots__ = ("_recorder", "record")

    def __init__(self, recorder: "InMemoryRecorder", record: SpanRecord):
        self._recorder = recorder
        self.record = record

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, *exc: object) -> None:
        self._recorder._close_span(self.record)


class InMemoryRecorder:
    """The collecting recorder: named registries, span tree, event list.

    Counters and timers are registered by name — asking twice returns
    the same handle, so long-lived components pre-bind once and
    repeated runs accumulate (callers wanting per-run numbers read the
    handle value before and after, as ``StreamingEngineCore.run`` does).
    ``snapshot()`` returns the JSON-ready payload a
    :class:`~repro.telemetry.report.TelemetryReport` wraps.
    """

    enabled = True

    def __init__(self, clock: Clock = MONOTONIC):
        self.clock: Clock = clock
        self.counters: dict[str, Counter] = {}
        self.timers: dict[str, Timer] = {}
        self.spans: list[SpanRecord] = []
        self.events: list[dict[str, object]] = []
        self._stack: list[SpanRecord] = []

    def counter(self, name: str) -> Counter:
        handle = self.counters.get(name)
        if handle is None:
            handle = self.counters[name] = Counter(name)
        return handle

    def timer(self, name: str) -> Timer:
        handle = self.timers.get(name)
        if handle is None:
            handle = self.timers[name] = Timer(name)
        return handle

    def span(
        self, name: str, tick: int | None = None, generation: int | None = None
    ) -> _ActiveSpan:
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            index=len(self.spans),
            parent=parent.index if parent is not None else -1,
            depth=parent.depth + 1 if parent is not None else 0,
            start=self.clock(),
            tick=tick,
            generation=generation,
        )
        self.spans.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _close_span(self, record: SpanRecord) -> None:
        record.end = self.clock()
        # Exits run innermost-first under normal ``with`` nesting; pop
        # defensively by identity so a leaked span cannot corrupt others.
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        elif record in self._stack:
            self._stack.remove(record)

    def event(self, name: str, **fields: object) -> None:
        entry: dict[str, object] = {"name": name, "time": self.clock()}
        entry.update(fields)
        self.events.append(entry)

    def open_spans(self) -> Iterator[SpanRecord]:
        """Spans entered but not yet exited (normally empty at rest)."""
        return iter(self._stack)

    def snapshot(self) -> dict[str, object]:
        """JSON-ready payload of everything recorded so far."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "timers": {
                name: t.to_dict() for name, t in sorted(self.timers.items())
            },
            "spans": [s.to_dict() for s in self.spans],
            "events": list(self.events),
        }
