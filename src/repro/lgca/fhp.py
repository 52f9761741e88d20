"""The FHP lattice gas (Frisch, Hasslacher, Pomeau) — reference [3].

Six unit-velocity channels on a hexagonal lattice (plus an optional rest
particle, the 7-bit variant), the model the paper singles out because "in
a two-dimensional hexagonally connected lattice, it has been shown that
the Navier-Stokes equation is satisfied in the limit of large lattice
size".

Collision rules implemented:

* **FHP-6 (FHP-I)** — head-on two-body collisions ``{i, i+3}`` scatter to
  the pair rotated ±60° (the chirality must be chosen per collision; the
  model alternates it deterministically or draws it pseudo-randomly),
  and symmetric three-body collisions ``{i, i+2, i+4} <-> {i+1, i+3, i+5}``.
* **FHP-7 (FHP-II)** — FHP-6 rules with the rest particle as a spectator,
  plus the rest-particle pair creation/annihilation
  ``{rest, i} <-> {i-1, i+1}``.

Each fixed-chirality table is a *permutation* of the state space (checked
in tests) and conserves mass and momentum (checked at construction by
:class:`repro.lgca.collision.CollisionTable`).

Storage layout: the hexagonal lattice lives on a rectangular grid with
odd rows shifted half a cell right (see
:class:`repro.lattice.geometry.HexagonalLattice`).  Channel order is
counter-clockwise from +x; see ``FHP_VELOCITIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lattice.geometry import _EVEN_ROW_OFFSETS, _ODD_ROW_OFFSETS, FHP_DIRECTIONS
from repro.lgca.bits import occupancy_table
from repro.lgca.collision import CollisionTable
from repro.lgca.model import Stencil, TableModel
from repro.util.validation import check_nonnegative

__all__ = [
    "FHP_VELOCITIES",
    "FHP_STENCIL",
    "fhp6_collision_tables",
    "fhp7_collision_tables",
    "fhp_saturated_tables",
    "FHPModel",
]

#: (6, 2) physical velocity vectors per moving channel (ccw from +x).
FHP_VELOCITIES = FHP_DIRECTIONS

#: Velocity table for the 7-bit model: 6 movers + rest particle (bit 6).
FHP7_VELOCITIES = np.vstack([FHP_DIRECTIONS, [(0.0, 0.0)]])

#: Storage-grid moves of the six movers on the offset-hexagonal grid
#: (odd rows sit half a cell right); the rest particle, if any, stays.
FHP_STENCIL = Stencil.from_offsets(_EVEN_ROW_OFFSETS, _ODD_ROW_OFFSETS)

_REST_BIT = 1 << 6
_TRIAD_A = 0b010101  # channels {0, 2, 4}
_TRIAD_B = 0b101010  # channels {1, 3, 5}


def _rotate_moving(state: int, amount: int) -> int:
    """Rotate the 6 moving-channel bits of ``state`` by ``amount`` (ccw)."""
    moving = state & 0b111111
    amount %= 6
    rotated = ((moving << amount) | (moving >> (6 - amount))) & 0b111111
    return (state & ~0b111111) | rotated


def fhp6_collision_tables() -> tuple[CollisionTable, CollisionTable]:
    """The two fixed-chirality FHP-I tables ``(left, right)``.

    ``left`` rotates head-on pairs +60° (counter-clockwise), ``right``
    −60°.  Averaging the two chiralities restores the hexagonal-lattice
    parity symmetry the hydrodynamic limit needs.
    """
    tables = []
    for name, chirality in (("fhp6/left", 1), ("fhp6/right", -1)):
        table = np.arange(64, dtype=np.uint16)
        # Rotation maps head-on classes onto head-on classes, so assigning
        # all six {i, i+3} pairs covers every colliding two-body state.
        for i in range(6):
            pair = (1 << i) | (1 << ((i + 3) % 6))
            table[pair] = _rotate_moving(pair, chirality)
        table[_TRIAD_A] = _TRIAD_B
        table[_TRIAD_B] = _TRIAD_A
        tables.append(
            CollisionTable(name=name, table=table, velocities=FHP_VELOCITIES)
        )
    return tables[0], tables[1]


def fhp7_collision_tables() -> tuple[CollisionTable, CollisionTable]:
    """The two fixed-chirality FHP-II tables (rest particle at bit 6)."""
    tables = []
    for name, chirality in (("fhp7/left", 1), ("fhp7/right", -1)):
        table = np.arange(128, dtype=np.uint16)
        for rest in (0, _REST_BIT):
            # Head-on pairs, rest particle (if any) is a spectator.
            for i in range(3):
                pair = (1 << i) | (1 << (i + 3))
                table[pair | rest] = _rotate_moving(pair, chirality) | rest
            # Symmetric three-body, rest spectator.
            table[_TRIAD_A | rest] = _TRIAD_B | rest
            table[_TRIAD_B | rest] = _TRIAD_A | rest
        # Rest-particle creation/annihilation: {rest, i} <-> {i-1, i+1}.
        for i in range(6):
            mover = (1 << i) | _REST_BIT
            split = (1 << ((i - 1) % 6)) | (1 << ((i + 1) % 6))
            table[mover] = split
            table[split] = mover
        tables.append(
            CollisionTable(name=name, table=table, velocities=FHP7_VELOCITIES)
        )
    return tables[0], tables[1]


def fhp_saturated_tables() -> tuple[CollisionTable, CollisionTable]:
    """Collision-saturated 7-bit tables in the spirit of FHP-III.

    FHP-III maximizes the collision rate by letting *every* state that
    shares its (mass, momentum) invariants with another state scatter.
    We realize that deterministically: states are grouped into
    equivalence classes by exact (particle count, momentum vector); each
    class of size > 1 is permuted by one cyclic step of its canonical
    ordering (``left``) or the inverse step (``right``).  Both tables
    are permutations of the state space, conserve mass and momentum
    exactly (by construction — and re-verified at table construction),
    and leave *no* collision on the table: every state that can legally
    change, does.

    The resulting gas has a strictly higher collision rate — and
    therefore lower viscosity and higher achievable Reynolds number per
    site — than FHP-I/II, which is exactly why Frisch et al. introduced
    the saturated variant.  The specific in-class pairing differs from
    the historical FHP-III listing (any in-class permutation shares the
    conservation laws); benchmarks quote collision rates, not the exact
    microdynamics.
    """
    occupancy = occupancy_table(7)
    momenta = occupancy @ FHP7_VELOCITIES
    # group states by (mass, momentum); momenta are multiples of 1/2 in
    # x and of sqrt(3)/2 in y, so the scaled components are integers
    keys = np.column_stack(
        [
            occupancy.sum(axis=1),
            np.rint(momenta[:, 0] * 2),
            np.rint(momenta[:, 1] / (math.sqrt(3) / 2)),
        ]
    ).astype(np.int64)
    classes: dict[tuple[int, ...], list[int]] = {}
    for state, key in enumerate(keys.tolist()):
        classes.setdefault(tuple(key), []).append(state)
    left = np.arange(128, dtype=np.uint16)
    right = np.arange(128, dtype=np.uint16)
    for members in classes.values():
        if len(members) < 2:
            continue
        for i, state in enumerate(members):
            left[state] = members[(i + 1) % len(members)]
            right[state] = members[(i - 1) % len(members)]
    return (
        CollisionTable(name="fhp-sat/left", table=left, velocities=FHP7_VELOCITIES),
        CollisionTable(name="fhp-sat/right", table=right, velocities=FHP7_VELOCITIES),
    )


@dataclass
class FHPModel(TableModel):
    """The FHP gas on the offset-hexagonal grid: :data:`FHP_STENCIL` and
    an FHP-I, FHP-II or collision-saturated table pair.

    Parameters
    ----------
    rows, cols:
        Storage-grid shape.  ``rows`` must be even when ``boundary`` is
        periodic (the hexagonal row-offset pattern must tile the torus).
    rest_particles:
        Use the 7-bit FHP-II variant instead of the 6-bit FHP-I.
    boundary:
        ``"periodic"``, ``"null"``, or ``"reflecting"`` (bounce-back).
    chirality:
        ``"alternate"`` — deterministic checkerboard-in-time chirality
        (what a deterministic VLSI engine does, and what the equivalence
        tests against the engine simulators rely on); ``"random"`` —
        per-site i.i.d. chirality, a pure function of ``(seed, t, row,
        col)`` (see :meth:`chirality_words`); ``"left"`` / ``"right"`` —
        fixed.
    saturated:
        Use the collision-saturated 7-bit tables
        (:func:`fhp_saturated_tables`); needs ``rest_particles``.
    seed:
        Key of the ``"random"`` chirality draw; unused by the other
        policies.
    """

    rows: int
    cols: int
    rest_particles: bool = False
    boundary: str = "periodic"
    chirality: str = "alternate"
    saturated: bool = False
    seed: int = 0

    stencil = FHP_STENCIL

    def __post_init__(self) -> None:
        self.seed = check_nonnegative(self.seed, "seed", integer=True)
        super().__post_init__()
        if self.boundary == "periodic" and self.rows % 2:
            raise ValueError(
                "periodic FHP lattices need an even number of rows "
                "(the half-cell row offset must tile the torus)"
            )

    def _tables(self) -> tuple[CollisionTable, CollisionTable]:
        if self.saturated:
            if not self.rest_particles:
                raise ValueError(
                    "the collision-saturated table is 7-bit; set rest_particles=True"
                )
            return fhp_saturated_tables()
        if self.rest_particles:
            return fhp7_collision_tables()
        return fhp6_collision_tables()
