"""Kernel backend registry: uniform selection of LGCA stepping engines.

Three backends ship with the repo:

``"reference"``
    The verified per-site kernels (:mod:`repro.lgca.hpp`,
    :mod:`repro.lgca.fhp`): one ``uint8`` per site, table-lookup
    collision.  This is the golden semantics everything else is tested
    against.
``"bitplane"``
    The multi-spin coded kernels (:mod:`repro.lgca.bitplane`): one site
    per *bit* of a ``uint64`` word, collision as boolean plane algebra
    compiled from the same verified tables.  Bit-identical to the
    reference (enforced by the property tests) and much faster.
``"parallel"``
    Row-slab tiles of the bit-plane kernels on a persistent thread pool
    (:mod:`repro.lgca.parallel`), with direct-write halo exchange.
    Bit-identical to ``"bitplane"`` at every worker count; takes the
    ``workers`` option (a positive int or ``"auto"``).

All are exposed through the same :class:`KernelStepper` interface —
stateless functional kernels over site-state fields — so
:class:`repro.lgca.automaton.LatticeGasAutomaton`, the engine simulators
in :mod:`repro.engines`, and the CLI select a backend by name without
knowing its storage format.  Steppers preallocate their double buffers
at construction, so steady-state stepping performs no array allocation;
the arrays they return are views of internal buffers, invalidated by the
next call — callers that retain states must copy.

A caller that steps one lattice many times but touches only a few of
its rows between generations (a shard of the supervised runtime reads
and writes two halo rows per side) asks the stepper for a
:class:`ResidentState` instead: the lattice then stays in the backend's
own storage — bit-planes for ``"bitplane"`` — and only the rows read or
written cross the site-field boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.lgca.bitplane import BitplaneKernel
from repro.lgca.bits import bounce_back_table
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path

__all__ = [
    "KernelStepper",
    "ResidentState",
    "FieldResident",
    "PlaneResident",
    "Backend",
    "ReferenceStepper",
    "BitplaneStepper",
    "register_backend",
    "get_backend",
    "available_backends",
    "check_backend_options",
    "make_stepper",
    "DEFAULT_BACKEND",
]

#: The backend used when none is requested.
DEFAULT_BACKEND = "reference"


@runtime_checkable
class KernelStepper(Protocol):
    """A stateless stepping kernel over site-state fields.

    Implementations hold preallocated working storage but no gas state:
    ``step``/``run`` are pure functions of their arguments (plus the RNG
    stream).  Returned arrays may alias internal buffers and are only
    valid until the next call.  Gas state that should outlive a call
    lives in the separate object ``resident`` returns.
    """

    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Advance ``state`` one generation (collide at time ``t``, propagate)."""
        ...

    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Advance ``state`` by ``generations`` steps starting at time ``t0``."""
        ...

    def resident(self, state: np.ndarray) -> ResidentState:
        """Hold a copy of ``state`` in this backend's storage (see :class:`ResidentState`)."""
        ...


class ResidentState(Protocol):
    """One lattice kept in a stepper's own storage across generations.

    Built by :meth:`KernelStepper.resident`.  :meth:`advance` steps it in
    place; the row methods are the only site-field traffic, so a caller
    that exchanges a few rows per generation pays a conversion of those
    rows only, never of the whole lattice.  Row arguments are local row
    indices ``[start, stop)``; written rows are ``(n, cols)`` site values
    the caller vouches for (they are not re-validated).
    """

    def advance(self, t: int, rng: np.random.Generator | None = None) -> None:
        """One generation (collide at time ``t``, propagate), in place."""
        ...

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """A fresh site-field copy of rows ``[start, stop)``."""
        ...

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        """Overwrite rows ``start, start + 1, ...`` with site values ``rows``."""
        ...

    def clear_rows(self, start: int, stop: int) -> None:
        """Empty rows ``[start, stop)`` (no particles)."""
        ...


class FieldResident:
    """A lattice held as a site field and advanced through ``stepper.step``.

    The storage of every backend whose native format *is* the site field
    (``"reference"``), and of ``"parallel"``, whose tiles re-pack at each
    call anyway.  The stepper's output is copied back into the field, so
    the field never aliases the stepper's buffers.
    """

    def __init__(self, stepper: KernelStepper, state: np.ndarray):
        self._stepper = stepper
        self._field = stepper.model.check_state(state).copy()  # type: ignore[attr-defined]

    @hot_path
    def advance(self, t: int, rng: np.random.Generator | None = None) -> None:
        np.copyto(self._field, self._stepper.step(self._field, t, rng))

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        return self._field[start:stop].copy()

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        self._field[start : start + len(rows)] = rows

    def clear_rows(self, start: int, stop: int) -> None:
        self._field[start:stop] = 0


class PlaneResident:
    """A lattice held as ``(C, rows, W)`` bit-planes between generations.

    Packed once at construction; :meth:`advance` is one allocation-free
    :meth:`BitplaneKernel.step_into` between two private plane buffers,
    timed on the same ``kernel.bitplane.*`` handles as
    :class:`BitplaneStepper`.  Bit-plane rows are lattice rows, so
    reading or writing ``n`` rows unpacks or packs ``n`` rows and nothing
    else.
    """

    def __init__(self, kernel: BitplaneKernel, state: np.ndarray, recorder: Recorder):
        self._kernel = kernel
        self._clk = recorder.clock
        self._tick_timer = recorder.timer("kernel.bitplane.tick_seconds")
        self._generations = recorder.counter("kernel.bitplane.generations")
        self._src = kernel.alloc_planes()
        self._dst = kernel.alloc_planes()
        self._src[...] = kernel.pack(kernel.model.check_state(state))

    @hot_path
    def advance(self, t: int, rng: np.random.Generator | None = None) -> None:
        t_start = self._clk()
        self._kernel.step_into(self._src, self._dst, t, rng)
        self._tick_timer.record(self._clk() - t_start)
        self._generations.add(1)
        self._src, self._dst = self._dst, self._src

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        return self._kernel.unpack(self._src[:, start:stop])

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        self._src[:, start : start + len(rows)] = self._kernel.pack(rows)

    def clear_rows(self, start: int, stop: int) -> None:
        self._src[:, start:stop] = 0


@dataclass(frozen=True)
class Backend:
    """A named stepper factory in the registry.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"bitplane"``.
    description:
        One line for ``--help`` output and docs.
    factory:
        ``factory(model, obstacles, **options)`` returning a
        :class:`KernelStepper`.
    options:
        Keyword options the factory accepts beyond model and obstacles
        (e.g. ``("workers",)`` for ``"parallel"``).  Callers are
        validated against this tuple by :func:`check_backend_options`,
        so every layer rejects unsupported options with the same
        :class:`~repro.util.errors.ConfigError`.
    """

    name: str
    description: str
    factory: Callable[..., KernelStepper]
    options: tuple[str, ...] = ()


class ReferenceStepper:
    """The verified per-site kernels behind the :class:`KernelStepper` interface.

    Semantically identical to the historical ``LatticeGasAutomaton.step``
    loop (collide via table lookup, solid sites bounce back the
    *pre-collision* state, then propagate), restructured around two
    preallocated state buffers so steady-state stepping does not
    allocate.

    ``recorder`` (optional) receives per-generation kernel timings on
    the ``kernel.reference.tick_seconds`` timer and a generation count;
    handles and the clock are pre-bound here so the hot loop stays
    allocation-free, and the default :data:`~repro.telemetry.NULL_RECORDER`
    makes recording a no-op.
    """

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        recorder: Recorder | None = None,
    ):
        self.model = model
        rows, cols = model.rows, model.cols  # type: ignore[attr-defined]
        self._buffers = (
            np.empty((rows, cols), dtype=np.uint8),
            np.empty((rows, cols), dtype=np.uint8),
        )
        self._collided = np.empty((rows, cols), dtype=np.uint8)
        mask = getattr(obstacles, "mask", obstacles)
        if mask is not None and np.any(mask):
            self._solid: np.ndarray | None = np.asarray(mask, dtype=bool)
            nc: int = model.num_channels  # type: ignore[attr-defined]
            self._bounce = bounce_back_table(nc).astype(np.uint8)
            self._bounced = np.empty((rows, cols), dtype=np.uint8)
        else:
            self._solid = None
        self._out_sel = 0
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.reference.tick_seconds")
        self._generations = rec.counter("kernel.reference.generations")

    def _next_buffer(self, state: np.ndarray) -> np.ndarray:
        """The write target for the next generation, never ``state`` itself.

        The same ping-pong idiom as ``PipelineStage.process``: the two
        preallocated buffers alternate between calls, so chained steps
        (``s = stepper.step(stepper.step(s))`` or ``step`` then ``run``)
        never collide into the array they are reading.  Returned states
        are views of this pair, valid until the next-but-one call —
        callers that retain them must copy.
        """
        sel = self._out_sel
        if self._buffers[sel] is state:
            sel = 1 - sel
        self._out_sel = 1 - sel
        return self._buffers[sel]

    @hot_path
    def _advance(
        self,
        state: np.ndarray,
        out: np.ndarray,
        t: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """One pre-validated generation from ``state`` into ``out``."""
        clk = self._clk
        t_start = clk()
        collided = self._collided
        self.model.collide(state, t, rng, out=collided, check=False)  # type: ignore[attr-defined]
        if self._solid is not None:
            np.take(self._bounce, state, out=self._bounced)
            np.copyto(collided, self._bounced, where=self._solid)
        result = self.model.propagate(collided, out=out, check=False)  # type: ignore[attr-defined]
        self._tick_timer.record(clk() - t_start)
        self._generations.add(1)
        return result

    @hot_path
    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        return self._advance(state, self._next_buffer(state), t, rng)

    @hot_path
    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        cur: np.ndarray = state
        for i in range(generations):
            cur = self._advance(cur, self._next_buffer(cur), t0 + i, rng)
        return cur

    def resident(self, state: np.ndarray) -> FieldResident:
        return FieldResident(self, state)


class BitplaneStepper:
    """Multi-spin coded stepping behind the :class:`KernelStepper` interface.

    ``step`` pays a pack/unpack conversion per call; ``run`` packs once,
    advances all generations as word-level plane operations on two
    preallocated plane buffers, and unpacks once — that is the fast path
    the benchmarks measure.  ``resident`` keeps a lattice packed across
    calls (:class:`PlaneResident`), for callers that step one generation
    at a time but only touch a few rows in between.

    ``recorder`` (optional) receives per-generation kernel timings on
    the ``kernel.bitplane.tick_seconds`` timer through pre-bound
    handles; the default null recorder makes recording a no-op.
    """

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        recorder: Recorder | None = None,
    ):
        self.model = model
        self.kernel = BitplaneKernel(model, obstacles)  # type: ignore[arg-type]
        self._planes = (self.kernel.alloc_planes(), self.kernel.alloc_planes())
        self._field = np.empty((model.rows, model.cols), dtype=np.uint8)  # type: ignore[attr-defined]
        rec = recorder if recorder is not None else NULL_RECORDER
        self._recorder = rec
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.bitplane.tick_seconds")
        self._generations = rec.counter("kernel.bitplane.generations")

    @hot_path
    def step(
        self,
        state: np.ndarray,
        t: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        return self.run(state, 1, t, rng)

    @hot_path
    def run(
        self,
        state: np.ndarray,
        generations: int,
        t0: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        if generations == 0:
            return state
        clk = self._clk
        tick_timer = self._tick_timer
        src, dst = self._planes
        src[...] = self.kernel.pack(state)
        for i in range(generations):
            t_start = clk()
            self.kernel.step_into(src, dst, t0 + i, rng)
            tick_timer.record(clk() - t_start)
            src, dst = dst, src
        self._generations.add(generations)
        return self.kernel.unpack(src, out=self._field)

    def resident(self, state: np.ndarray) -> PlaneResident:
        return PlaneResident(self.kernel, state, self._recorder)


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend to the registry (name must be unused); returns it.

    Raises
    ------
    ConfigError
        When the name is already registered — silently replacing a
        backend would let a stale import swap the semantics everything
        else was validated against.
    """
    if backend.name in _REGISTRY:
        raise ConfigError(
            f"backend {backend.name!r} is already registered; "
            f"registered backends: {', '.join(sorted(_REGISTRY))}"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend by name, with a helpful error listing the choices."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return backend


def available_backends() -> tuple[Backend, ...]:
    """All registered backends, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def check_backend_options(
    backend: Backend | str, options: Mapping[str, object]
) -> dict[str, object]:
    """Validate per-backend options; returns the ones that are actually set.

    ``None`` values mean "not requested" and are dropped, so callers can
    plumb a uniform keyword set (e.g. ``workers=None``) through every
    layer.  Any *set* option the backend does not declare raises the
    same :class:`~repro.util.errors.ConfigError` everywhere.
    """
    if isinstance(backend, str):
        backend = get_backend(backend)
    given = {key: value for key, value in options.items() if value is not None}
    unknown = sorted(set(given) - set(backend.options))
    if unknown:
        accepted = ", ".join(backend.options) if backend.options else "none"
        raise ConfigError(
            f"backend {backend.name!r} does not accept option(s) "
            f"{', '.join(unknown)}; accepted: {accepted}"
        )
    return given


def make_stepper(
    model: object,
    obstacles: object = None,
    backend: str = DEFAULT_BACKEND,
    recorder: Recorder | None = None,
    **options: object,
) -> KernelStepper:
    """Build a stepper for ``model`` (and optional obstacles) by backend name.

    Extra keywords are per-backend options (``workers`` for
    ``"parallel"``); unset (``None``) options are ignored and options a
    backend does not declare raise
    :class:`~repro.util.errors.ConfigError`.  ``recorder`` is a
    *universal* keyword, not a backend option: every shipped stepper
    accepts it and reports kernel/halo timings through it (it is only
    forwarded when set, so third-party factories without the parameter
    keep working under the default null recorder).
    """
    chosen = get_backend(backend)
    given = check_backend_options(chosen, options)
    if recorder is not None:
        given["recorder"] = recorder
    return chosen.factory(model, obstacles, **given)


def _parallel_factory(
    model: object,
    obstacles: object = None,
    workers: object = "auto",
    recorder: Recorder | None = None,
) -> KernelStepper:
    """Build a :class:`~repro.lgca.parallel.ParallelStepper` (lazy import)."""
    from repro.lgca.parallel import ParallelStepper

    return ParallelStepper(model, obstacles, workers=workers, recorder=recorder)  # type: ignore[arg-type]


register_backend(
    Backend(
        name="reference",
        description="verified per-site table-lookup kernels (golden semantics)",
        factory=ReferenceStepper,
    )
)
register_backend(
    Backend(
        name="bitplane",
        description="multi-spin coded kernels: 64 sites per word, boolean-algebra collision",
        factory=BitplaneStepper,
    )
)
register_backend(
    Backend(
        name="parallel",
        description="bit-plane kernels tiled over row slabs on a persistent thread pool",
        factory=_parallel_factory,
        options=("workers",),
    )
)
