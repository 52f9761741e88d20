"""Kernel backends: one stepper per backend, holding its lattice.

Two backends ship with the repo:

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

Both implement one :class:`KernelStepper` protocol.  A stepper *is* a
lattice held in its backend's own storage — two site fields for
``"reference"``, two bit-plane buffers for ``"bitplane"`` — like the
paper's engines and CAM-8, which keep the lattice in the machine and
stream across the host boundary only what must cross.  :meth:`load
<KernelStepper.load>` converts a whole lattice in, :meth:`advance
<KernelStepper.advance>` steps it one generation in place without
allocating, and the row methods are the only other site-field traffic:
a shard of the supervised runtime exchanges its halo rows once per
block of generations and converts nothing else.

:func:`evolve` is the one "load, advance ``n``, read back" loop; the
automaton (:class:`repro.lgca.automaton.LatticeGasAutomaton`), the
engine simulators in :mod:`repro.engines` and the kernel bench use it,
so they select a backend by name without knowing its storage format.

There is no thread-level backend: the supervised runtime
(:mod:`repro.runtime`) is the one parallelism layer, partitioning the
lattice into row slabs across worker processes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.lgca.bitplane import BitplaneKernel
from repro.lgca.bits import bounce_back_table
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BitplaneStepper",
    "KernelStepper",
    "ReferenceStepper",
    "check_backend",
    "evolve",
    "make_stepper",
]

#: The backend used when none is requested.
DEFAULT_BACKEND = "reference"


@runtime_checkable
class KernelStepper(Protocol):
    """One lattice kept in a backend's own storage, stepped in place.

    Row arguments are row indices ``[start, stop)``; written rows are
    ``(n, cols)`` site values the caller vouches for (only :meth:`load`
    validates).  A stepper that was never loaded holds an empty lattice.
    """

    model: object

    def load(self, state: np.ndarray) -> None:
        """Validate ``state`` and convert a copy of the whole lattice in."""
        ...

    def advance(self, t: int) -> None:
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


class ReferenceStepper:
    """The verified per-site kernels behind the :class:`KernelStepper` protocol.

    Semantically identical to the historical ``LatticeGasAutomaton.step``
    loop (collide via table lookup, solid sites bounce back the
    *pre-collision* state, then propagate).  The lattice lives in two
    preallocated site fields: :meth:`advance` collides and propagates
    ``src → dst`` and swaps them, so steady-state stepping does not
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
        self._src = np.zeros((rows, cols), dtype=np.uint8)
        self._dst = np.empty((rows, cols), dtype=np.uint8)
        self._collided = np.empty((rows, cols), dtype=np.uint8)
        mask = getattr(obstacles, "mask", obstacles)
        if mask is not None and np.any(mask):
            self._solid: np.ndarray | None = np.asarray(mask, dtype=bool)
            nc: int = model.num_channels  # type: ignore[attr-defined]
            self._bounce = bounce_back_table(nc).astype(np.uint8)
            self._bounced = np.empty((rows, cols), dtype=np.uint8)
            # np.take copies a non-intp index to intp on every call.
            self._bounce_index = np.empty((rows, cols), dtype=np.intp)
        else:
            self._solid = None
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.reference.tick_seconds")
        self._generations = rec.counter("kernel.reference.generations")

    def load(self, state: np.ndarray) -> None:
        np.copyto(self._src, self.model.check_state(state))  # type: ignore[attr-defined]

    def advance(self, t: int) -> None:
        clk = self._clk
        t_start = clk()
        src, collided = self._src, self._collided
        self.model.collide(src, t, out=collided, check=False)  # type: ignore[attr-defined]
        if self._solid is not None:
            np.copyto(self._bounce_index, src)
            np.take(self._bounce, self._bounce_index, out=self._bounced, mode="clip")
            np.copyto(collided, self._bounced, where=self._solid)
        self.model.propagate(collided, out=self._dst, check=False)  # type: ignore[attr-defined]
        self._src, self._dst = self._dst, src
        self._tick_timer.record(clk() - t_start)
        self._generations.add(1)

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        return self._src[start:stop].copy()

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        self._src[start : start + len(rows)] = rows

    def clear_rows(self, start: int, stop: int) -> None:
        self._src[start:stop] = 0


class BitplaneStepper:
    """Multi-spin coded stepping behind the :class:`KernelStepper` protocol.

    The lattice lives as ``(C, rows, W)`` bit-planes in two private plane
    buffers: :meth:`load` packs once, and :meth:`advance` is one
    allocation-free :meth:`BitplaneKernel.step_into` between them.
    Bit-plane rows are lattice rows, so reading or writing ``n`` rows
    unpacks or packs ``n`` rows and nothing else.  :attr:`kernel` is the
    compiled :class:`~repro.lgca.bitplane.BitplaneKernel`.

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
        self._src = self.kernel.alloc_planes()
        self._dst = self.kernel.alloc_planes()
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.bitplane.tick_seconds")
        self._generations = rec.counter("kernel.bitplane.generations")

    def load(self, state: np.ndarray) -> None:
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        self.kernel.pack(state, out=self._src)

    def advance(self, t: int) -> None:
        t_start = self._clk()
        self.kernel.step_into(self._src, self._dst, t)
        self._src, self._dst = self._dst, self._src
        self._tick_timer.record(self._clk() - t_start)
        self._generations.add(1)

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        return self.kernel.unpack(self._src[:, start:stop])

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        self.kernel.pack(rows, out=self._src[:, start : start + len(rows)])

    def clear_rows(self, start: int, stop: int) -> None:
        self._src[:, start:stop] = 0


_STEPPERS: dict[str, type[ReferenceStepper] | type[BitplaneStepper]] = {
    "reference": ReferenceStepper,
    "bitplane": BitplaneStepper,
}

#: Backend names, sorted.
BACKENDS: tuple[str, ...] = tuple(sorted(_STEPPERS))


def check_backend(name: str) -> str:
    """``name`` if it is a backend; else a ConfigError listing the choices."""
    if name not in _STEPPERS:
        raise ConfigError(f"unknown backend {name!r}; available: {', '.join(BACKENDS)}")
    return name


def make_stepper(
    model: object,
    obstacles: object = None,
    backend: str = DEFAULT_BACKEND,
    recorder: Recorder | None = None,
) -> KernelStepper:
    """Build ``backend``'s stepper for ``model`` (and optional obstacles).

    The stepper holds an empty lattice until :meth:`KernelStepper.load`.
    An unknown name raises :class:`~repro.util.errors.ConfigError`
    listing the backends.
    """
    return _STEPPERS[check_backend(backend)](model, obstacles, recorder)


def evolve(
    stepper: KernelStepper, state: np.ndarray, generations: int, t0: int = 0
) -> np.ndarray:
    """Load ``state``, advance ``generations`` from time ``t0``, read it back.

    Returns a fresh array; ``state`` is never modified.
    """
    stepper.load(state)
    for t in range(t0, t0 + generations):
        stepper.advance(t)
    return stepper.read_rows(0, stepper.model.rows)  # type: ignore[attr-defined]
