"""The reference synchronous LGCA driver.

:class:`LatticeGasAutomaton` couples a model (HPP or FHP kernels), a
mutable state field and an optional obstacle map, and advances the gas
generation by generation.  **This is the golden reference** —
every engine simulator in :mod:`repro.engines` is required (by the
integration tests) to produce bit-identical evolutions to this class for
deterministic configurations.

Obstacles are realized as bounce-back sites: at an obstacle site the
collision step is replaced by velocity reversal (``i -> i + n/2``), the
standard no-slip body condition for lattice gases, which conserves mass
(momentum is deliberately exchanged with the body — that is what drag
*is*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.lgca.backends import KernelStepper, evolve, make_stepper
from repro.lgca.bits import bounce_back_table
from repro.util.validation import check_nonnegative

__all__ = ["LatticeGasAutomaton", "ObstacleMap", "bounce_back_table"]


class SiteModel(Protocol):
    """The kernel interface of :class:`repro.lgca.model.TableModel`."""

    rows: int
    cols: int

    @property
    def num_channels(self) -> int: ...

    @property
    def bits_per_site(self) -> int: ...

    @property
    def velocities(self) -> np.ndarray: ...

    def check_state(self, state: np.ndarray) -> np.ndarray: ...

    def collide(self, state: np.ndarray, t: int = 0) -> np.ndarray: ...

    def propagate(self, state: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class ObstacleMap:
    """A boolean mask of solid (bounce-back) sites.

    Composable: ``a | b`` unions two maps of equal shape.
    """

    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("obstacle mask must be 2-D")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        # Computed once: the automaton consults it on every step, and a
        # frozen mask cannot change behind our back.
        object.__setattr__(self, "_num_solid", int(mask.sum()))

    @classmethod
    def empty(cls, rows: int, cols: int) -> "ObstacleMap":
        return cls(np.zeros((rows, cols), dtype=bool))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.mask.shape)  # type: ignore[return-value]

    @property
    def num_solid(self) -> int:
        return int(getattr(self, "_num_solid"))

    def __or__(self, other: "ObstacleMap") -> "ObstacleMap":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return ObstacleMap(self.mask | other.mask)


@dataclass
class LatticeGasAutomaton:
    """Reference LGCA evolution: state + model + obstacles.

    Parameters
    ----------
    model:
        A :class:`repro.lgca.model.TableModel`: an
        :class:`repro.lgca.hpp.HPPModel` or :class:`repro.lgca.fhp.FHPModel`.
    state:
        Initial site-state field, shape ``(model.rows, model.cols)``.
    obstacles:
        Optional solid-site mask of the same shape.
    backend:
        Kernel backend name from :mod:`repro.lgca.backends`
        (``"reference"`` or ``"bitplane"``).  Both produce
        bit-identical evolutions; ``"bitplane"`` packs 64 sites per
        machine word and is much faster for :meth:`run` on large grids.
    recorder:
        Optional :class:`~repro.telemetry.Recorder` forwarded to the
        backend stepper, which reports per-generation kernel timings
        through it.  Recording never changes the evolution —
        trajectories are bit-identical with any recorder
        (property-tested).
    """

    model: SiteModel
    state: np.ndarray
    obstacles: ObstacleMap | None = None
    time: int = 0
    backend: str = "reference"
    recorder: object = None
    _stepper: KernelStepper = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.state = self.model.check_state(self.state).copy()
        self.time = check_nonnegative(self.time, "time", integer=True)
        if self.obstacles is not None and self.obstacles.shape != self.state.shape:
            raise ValueError(
                f"obstacle shape {self.obstacles.shape} != state shape {self.state.shape}"
            )
        self._stepper = make_stepper(
            self.model,
            obstacles=self.obstacles,
            backend=self.backend,
            recorder=self.recorder,  # type: ignore[arg-type]
        )

    # -- observable shortcuts -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.model.rows, self.model.cols)

    @property
    def num_sites(self) -> int:
        return self.model.rows * self.model.cols

    def particle_count(self) -> int:
        from repro.lgca.observables import total_mass

        return total_mass(self.state, self.model.num_channels)

    def momentum(self) -> np.ndarray:
        from repro.lgca.observables import total_momentum

        return total_momentum(self.state, self.model.velocities)

    # -- evolution ------------------------------------------------------------

    def step(self) -> np.ndarray:
        """Advance one generation; returns the new state (also stored).

        The returned array is fresh, so callers may hold on to
        successive states.
        """
        return self.run(1)

    def run(self, generations: int) -> np.ndarray:
        """Advance ``generations`` steps; returns the final state.

        This is the fast path: the backend stepper converts the state in
        once, advances all generations in its own storage without
        allocating, and the result is read back once at the end.
        """
        generations = check_nonnegative(generations, "generations", integer=True)
        if generations == 0:
            return self.state
        self.state = evolve(self._stepper, self.state, generations, self.time)
        self.time += generations
        return self.state

    def history(self, generations: int) -> np.ndarray:
        """Run and record: array of shape ``(generations + 1, rows, cols)``.

        Index 0 is the current state; index t is the state after t steps.
        """
        generations = check_nonnegative(generations, "generations", integer=True)
        out = np.empty((generations + 1,) + self.shape, dtype=self.state.dtype)
        out[0] = self.state
        for t in range(1, generations + 1):
            out[t] = self.step()
        return out

    def site_update_count(self, generations: int) -> int:
        """Number of site updates ``generations`` steps perform.

        This is the work unit of the paper's throughput measure R
        (site updates per second).
        """
        generations = check_nonnegative(generations, "generations", integer=True)
        return generations * self.num_sites
