"""The HPP lattice gas (Hardy, Pomeau, de Pazzis 1973) — reference [4].

Four unit-velocity channels on an orthogonal lattice.  The only
interaction is the head-on two-body collision: two particles meeting
nose-to-nose with the perpendicular pair empty scatter into the
perpendicular pair.  The paper notes this model "does not lead to
isotropic solutions" — benchmark E12 demonstrates exactly that by
propagating a density pulse and comparing against FHP.

Channel numbering (physical axes; the storage grid is matrix-indexed
with row increasing downward, so +y is row−1):

====  =========  ============
bit   velocity   (drow, dcol)
====  =========  ============
0     +x         (0, +1)
1     +y         (−1, 0)
2     −x         (0, −1)
3     −y         (+1, 0)
====  =========  ============
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lgca.collision import CollisionTable
from repro.lgca.model import Stencil, TableModel

__all__ = ["HPP_VELOCITIES", "HPP_STENCIL", "hpp_collision_table", "HPPModel"]

#: (4, 2) physical velocity vectors (vx, vy) per channel.
HPP_VELOCITIES = np.array(
    [
        (1.0, 0.0),
        (0.0, 1.0),
        (-1.0, 0.0),
        (0.0, -1.0),
    ]
)

#: Storage-grid moves (drow, dcol) per channel; +y is row−1.
HPP_STENCIL = Stencil.from_offsets([(0, 1), (-1, 0), (0, -1), (1, 0)])

_HEAD_ON_X = 0b0101  # particles in +x and -x
_HEAD_ON_Y = 0b1010  # particles in +y and -y


def hpp_collision_table() -> CollisionTable:
    """The verified 16-entry HPP collision table.

    Exactly two states change: the x head-on pair becomes the y head-on
    pair and vice versa.  The rule is an involution.
    """
    table = np.arange(16, dtype=np.uint16)
    table[_HEAD_ON_X] = _HEAD_ON_Y
    table[_HEAD_ON_Y] = _HEAD_ON_X
    return CollisionTable(name="hpp", table=table, velocities=HPP_VELOCITIES)


@dataclass
class HPPModel(TableModel):
    """The HPP gas on a ``rows x cols`` grid: :data:`HPP_STENCIL` and the
    involutive :func:`hpp_collision_table`, which serves as both
    chiralities, so the chirality is fixed (``"right"``) and the rule is
    deterministic.

    Parameters
    ----------
    rows, cols:
        Grid shape.
    boundary:
        ``"periodic"`` (toroidal), ``"null"`` (particles leaving the edge
        vanish, none enter), or ``"reflecting"`` (bounce-back walls).
    """

    rows: int
    cols: int
    boundary: str = "periodic"

    stencil = HPP_STENCIL
    chirality = "right"

    def _tables(self) -> tuple[CollisionTable, CollisionTable]:
        table = hpp_collision_table()
        return table, table
