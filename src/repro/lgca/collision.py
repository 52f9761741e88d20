"""Collision-rule tables and conservation verification.

Section 2 of the paper requires collision rules to "satisfy certain
physically plausible laws, especially particle-number (mass) conservation
and momentum conservation".  :class:`CollisionTable` encodes a rule set
as a full lookup table over all ``2^D`` site states — which is exactly
how the paper's VLSI processing elements implement them — and
:func:`verify_conservation` machine-checks the conservation laws for
*every* entry, so a table that violates the physics cannot be constructed
silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lgca.bits import occupancy_table
from repro.util.validation import check_positive

__all__ = ["CollisionTable", "ConservationError", "verify_conservation"]


class ConservationError(ValueError):
    """A collision table violates mass or momentum conservation."""


#: Momentum tolerance of the per-state check (hex velocities are irrational).
_MOMENTUM_TOLERANCE = 1e-12


def verify_conservation(
    table: np.ndarray,
    velocities: np.ndarray,
    *,
    check_momentum: bool = True,
    ignore_mask: int = 0,
) -> None:
    """Check mass (and optionally momentum) conservation of a lookup table.

    Parameters
    ----------
    table:
        ``(2^C,)`` integer array mapping input state to output state.
    velocities:
        ``(C, d)`` per-channel velocity vectors in any dimension ``d``;
        a rest particle has the zero vector.
    check_momentum:
        FHP/HPP tables must conserve momentum; boundary/bounce-back
        tables conserve only mass, so callers may disable it.
    ignore_mask:
        Bits (e.g. an obstacle flag) excluded from the conservation sums.

    Raises
    ------
    ConservationError
        naming the first offending state.
    """
    velocities = np.asarray(velocities, dtype=np.float64)
    if velocities.ndim != 2:
        raise ValueError("velocities must have shape (C, d)")
    num_channels = velocities.shape[0]
    expected_size = 1 << num_channels
    table = np.asarray(table)
    if table.shape != (expected_size,):
        raise ValueError(
            f"table has shape {table.shape}, expected ({expected_size},) "
            f"for {num_channels} channels"
        )
    if table.min() < 0 or table.max() >= expected_size:
        raise ConservationError("table maps to states outside the channel space")

    keep = np.int64(~ignore_mask & (expected_size - 1))
    states_in = np.arange(expected_size, dtype=np.int64) & keep
    states_out = table.astype(np.int64) & keep
    occupancy = occupancy_table(num_channels)
    mass = occupancy.sum(axis=1)
    bad = np.nonzero(mass[states_in] != mass[states_out])[0]
    if bad.size:
        s = int(bad[0])
        raise ConservationError(
            f"mass broken at state {s:#x}: {int(mass[states_in[s]])} particles "
            f"-> state {int(table[s]):#x} with {int(mass[states_out[s]])}"
        )
    if check_momentum:
        momenta = occupancy @ velocities
        p_in = momenta[states_in]
        p_out = momenta[states_out]
        err = np.abs(p_in - p_out).max(axis=1)
        bad = np.nonzero(err > _MOMENTUM_TOLERANCE)[0]
        if bad.size:
            s = int(bad[0])
            raise ConservationError(
                f"momentum broken at state {s:#x}: p={p_in[s]} -> "
                f"state {int(table[s]):#x} with p={p_out[s]}"
            )


@dataclass(frozen=True)
class CollisionTable:
    """A verified site-update lookup table.

    This is the paper's PE "microcode": the function *f* in
    ``v(a, t+1) = f(N(a), t)`` restricted to the on-site collision step
    (propagation supplies the neighborhood).  Construction verifies the
    conservation laws, so holding a :class:`CollisionTable` is a proof
    the physics is right.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"fhp6/left"``.
    table:
        ``(2^C,)`` uint16 lookup array.
    velocities:
        ``(C, d)`` channel velocity vectors.
    conserves_momentum:
        Whether momentum conservation was verified (False for wall rules).
    """

    name: str
    table: np.ndarray
    velocities: np.ndarray
    conserves_momentum: bool = True
    ignore_mask: int = 0

    def __post_init__(self) -> None:
        velocities = np.asarray(self.velocities, dtype=np.float64)
        table = np.asarray(self.table, dtype=np.uint16)
        verify_conservation(
            table,
            velocities,
            check_momentum=self.conserves_momentum,
            ignore_mask=self.ignore_mask,
        )
        table = table.copy()
        table.setflags(write=False)
        velocities = velocities.copy()
        velocities.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "_table_cache", {})

    def _table_for(self, dtype: np.dtype) -> np.ndarray:
        """The lookup table cast to ``dtype`` (cached, read-only).

        Only cast when every table value fits the requested dtype;
        otherwise return the canonical uint16 table.
        """
        cache: dict[np.dtype, np.ndarray] = getattr(self, "_table_cache")
        cached = cache.get(dtype)
        if cached is None:
            if self.num_states - 1 <= int(np.iinfo(dtype).max):
                cached = self.table.astype(dtype)
                cached.setflags(write=False)
            else:
                cached = self.table
            cache[dtype] = cached
        return cached

    @property
    def num_channels(self) -> int:
        return int(self.velocities.shape[0])

    @property
    def num_states(self) -> int:
        return int(self.table.size)

    def __call__(
        self, states: np.ndarray | int, out: np.ndarray | None = None
    ) -> np.ndarray | int:
        """Apply the collision rule to a state or field of states.

        The result preserves the input dtype (a ``uint8`` field stays
        ``uint8`` — no ``.astype`` copy needed by callers), and ``out``
        accepts a preallocated result buffer of the same shape and dtype.
        ``out`` must not alias ``states``.  Indices are not bounds-checked
        on that path (``mode="clip"``): numpy's default ``mode="raise"``
        buffers the whole output in a temporary, and the callers have
        validated the states.  Even with ``out`` the call allocates:
        ``np.take`` first copies any index array that is not platform-int
        (``np.intp``) to one, 8 bytes per site for a ``uint8`` field.
        Steady-state kernels therefore index through a preallocated
        ``np.intp`` buffer themselves (:meth:`repro.lgca.model.TableModel.collide`).
        """
        if np.isscalar(states):
            return int(self.table[int(states)])
        states = np.asarray(states)
        if not np.issubdtype(states.dtype, np.integer):
            return self.table[states]
        table = self._table_for(states.dtype)
        if out is None:
            return table[states]
        return np.take(table, states, out=out, mode="clip")

    def is_identity(self) -> bool:
        """Whether the table is a no-op (useful in tests)."""
        return bool(np.array_equal(self.table, np.arange(self.num_states)))

    def fixed_points(self) -> np.ndarray:
        """States the rule leaves unchanged."""
        states = np.arange(self.num_states, dtype=np.uint16)
        return states[self.table == states]

    def is_involution(self) -> bool:
        """Whether applying the rule twice is the identity.

        Two-body FHP/HPP collisions with a fixed chirality are
        involutions; this is a structural invariant tests rely on.
        """
        return bool(np.array_equal(self.table[self.table], np.arange(self.num_states)))

    def compose(self, other: "CollisionTable", name: str | None = None) -> "CollisionTable":
        """The rule "apply ``other``, then ``self``" as a single table."""
        if other.num_channels != self.num_channels:
            raise ValueError("cannot compose tables over different channel sets")
        return CollisionTable(
            name=name or f"{self.name}∘{other.name}",
            table=self.table[other.table],
            velocities=self.velocities,
            conserves_momentum=self.conserves_momentum and other.conserves_momentum,
            ignore_mask=self.ignore_mask | other.ignore_mask,
        )


def identity_table(
    num_channels: int, velocities: np.ndarray, name: str = "identity"
) -> CollisionTable:
    """The no-collision rule (propagation only)."""
    num_channels = check_positive(num_channels, "num_channels", integer=True)
    return CollisionTable(
        name=name,
        table=np.arange(1 << num_channels, dtype=np.uint16),
        velocities=velocities,
    )
