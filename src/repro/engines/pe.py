"""The processing element's site-update rule in stream coordinates.

A pipeline stage sees the lattice as a raster (row-major) stream.  To
emit site ``(r, c)`` of generation ``t+1`` it must gather, for every
velocity channel, the *collided* value of the neighbor that sends a
particle into ``(r, c)`` — i.e. apply the data dependency
``v(a, t+1) = f(N(a), t)`` of section 3 with the neighborhood expressed
as *stream offsets*.

:class:`StreamStencil` holds those offsets for a frame: :func:`make_rule`
copies them from the model's :class:`repro.lgca.model.Stencil` (HPP's
orthogonal one, FHP's parity-dependent hexagonal one alike) and takes
the collision from its table pair, so one path builds every gas's rule.
:class:`SiteUpdateRule` bundles the collision step with the stencil.
Both the tick-accurate and the vectorized stage implementations consume
these, so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.lgca.model import TableModel, chiral_lookup
from repro.util.validation import check_positive

__all__ = ["StreamStencil", "SiteUpdateRule", "PostCollideHook", "make_rule"]

#: Fault-injection hook applied to the collided value leaving a PE —
#: the point where the physical pipeline register sits, so a transient
#: upset or a stuck-at defect on the collision-rule output is modeled by
#: transforming ``(values, r, c, t) -> values`` right here.
PostCollideHook = Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class StreamStencil:
    """Per-channel source offsets for a raster-streamed lattice.

    Attributes
    ----------
    rows, cols:
        Frame shape.
    row_offsets:
        ``(C,)`` source row offsets per channel: source row = r − dr.
    col_offsets_even / col_offsets_odd:
        ``(C,)`` source column offsets, selected by the *source row's*
        parity (identical arrays for orthogonal lattices).
    self_channels:
        Channels that do not move (e.g. the FHP rest particle).
    """

    rows: int
    cols: int
    row_offsets: tuple[int, ...]
    col_offsets_even: tuple[int, ...]
    col_offsets_odd: tuple[int, ...]
    self_channels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_positive(self.rows, "rows", integer=True)
        check_positive(self.cols, "cols", integer=True)
        n = len(self.row_offsets)
        if not (len(self.col_offsets_even) == len(self.col_offsets_odd) == n):
            raise ValueError("offset tuples must have equal length")

    @property
    def num_moving_channels(self) -> int:
        """Channels that propagate (rest particles excluded)."""
        return len(self.row_offsets)

    def window_reach(self) -> int:
        """Largest |stream offset| any channel needs.

        ``cols + 1`` for the hexagonal/orthogonal 2-D stencils — this is
        what makes the paper's delay line ``2L + 3`` sites long
        (reach on both sides plus the center).
        """
        reach = 0
        for i in range(self.num_moving_channels):
            dr = self.row_offsets[i]
            for dc in (self.col_offsets_even[i], self.col_offsets_odd[i]):
                reach = max(reach, abs(dr * self.cols + dc))
        return reach

    def window_sites(self) -> int:
        """Delay-line length the stage needs: 2·reach + 1."""
        return 2 * self.window_reach() + 1

    def source_index(self, r: int, c: int, channel: int) -> tuple[int, int] | None:
        """Source site (row, col) feeding channel ``channel`` of (r, c).

        None when the source falls outside the frame (null boundary).
        """
        dr = self.row_offsets[channel]
        r_src = r - dr
        if not 0 <= r_src < self.rows:
            return None
        dc = self.col_offsets_odd[channel] if r_src % 2 else self.col_offsets_even[channel]
        c_src = c - dc
        if not 0 <= c_src < self.cols:
            return None
        return (r_src, c_src)


@dataclass(frozen=True)
class SiteUpdateRule:
    """What one PE computes: collide the neighborhood, gather one site.

    Attributes
    ----------
    num_channels:
        Total state bits (moving + rest).
    stencil:
        Stream-coordinate neighborhood.
    collide:
        ``collide(states, r, c, t, out=None) -> states`` — vectorized
        collision of site values at coordinates ``(r, c)`` and generation
        ``t`` (coordinates matter for FHP's alternating chirality).  With
        ``out`` (same shape as ``states``, not aliasing it) and the same
        read-only coordinate arrays every call, it collides without
        allocating; see :class:`_TableCollide`.
    """

    num_channels: int
    stencil: StreamStencil
    collide: Callable[..., np.ndarray]

    @property
    def bits_per_site(self) -> int:
        """D — site state width in bits."""
        return self.num_channels


def _read_only(a: object) -> bool:
    return isinstance(a, np.ndarray) and not a.flags.writeable


class _TableCollide:
    """A PE's collision: one lookup per site in a verified table.

    ``lookup`` holds both chiralities' ``2·2^C`` entries (see
    :func:`repro.lgca.model.chiral_lookup`); a site's index is
    ``state | left << C``, where ``left`` is 0, 1, or for ``"alternate"``
    the parity of ``r + c + t``.

    Calls with ``out`` keep their platform-int index buffer (``np.take``
    would copy any other index dtype to one first); calls without it
    allocate.  The ``"alternate"`` offsets are cached per ``t % 2`` for
    the latest *read-only* coordinate arrays, which are taken to be
    constant: :meth:`repro.engines.streaming_core.PipelineStage.process`
    passes its frame coordinates that way, so its collide allocates
    nothing.
    """

    def __init__(self, lookup: np.ndarray, shift: int, chirality: str) -> None:
        self._lookups = {lookup.dtype: lookup}
        self._shift = shift
        self._chirality = chirality
        self._fixed = np.uint8((chirality == "left") << shift)
        self._index = np.empty(0, dtype=np.intp)
        self._coords: tuple[object, object] = (None, None)
        self._offsets: dict[int, np.ndarray] = {}

    def _lookup(self, dtype: np.dtype) -> np.ndarray:
        lookup = self._lookups.get(dtype)
        if lookup is None:
            lookup = next(iter(self._lookups.values())).astype(dtype)
            self._lookups[dtype] = lookup
        return lookup

    def _offset(self, r: np.ndarray, c: np.ndarray, t: int):
        if self._chirality != "alternate":
            return self._fixed
        if not (_read_only(r) and _read_only(c)):
            return ((np.asarray(r) + np.asarray(c) + t) & 1) << self._shift
        if self._coords[0] is not r or self._coords[1] is not c:
            self._coords = (r, c)
            self._offsets = {}
        offset = self._offsets.get(t % 2)
        if offset is None:
            offset = (((r + c + t) & 1) << self._shift).astype(np.uint8)
            offset.setflags(write=False)
            self._offsets[t % 2] = offset
        return offset

    def __call__(
        self,
        states: np.ndarray,
        r: np.ndarray,
        c: np.ndarray,
        t: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        states = np.asarray(states)
        offset = self._offset(r, c, t)
        if out is None:
            index = np.bitwise_or(states, offset, dtype=np.intp)
            return np.take(self._lookup(states.dtype), index)
        if self._index.shape != states.shape:
            self._index = np.empty(states.shape, dtype=np.intp)
        np.bitwise_or(states, offset, out=self._index)
        return np.take(self._lookup(out.dtype), self._index, out=out, mode="clip")


def make_rule(model: TableModel) -> SiteUpdateRule:
    """Build the PE rule for a reference model (engines never re-derive
    physics — they reuse the model's stencil and verified collision
    tables).

    Fault injection happens downstream of the rule, at
    :attr:`repro.engines.streaming_core.PipelineStage.post_collide`.
    """
    if not isinstance(model, TableModel):
        raise TypeError(f"no PE rule for model type {type(model).__name__}")
    if model.boundary != "null":
        raise ValueError(
            "streamed engines implement null boundaries; "
            f"model has boundary={model.boundary!r}"
        )
    if model.chirality == "random":
        raise ValueError("streamed engines require deterministic chirality")
    stencil = model.stencil
    return SiteUpdateRule(
        num_channels=model.num_channels,
        stencil=StreamStencil(
            rows=model.rows,
            cols=model.cols,
            row_offsets=stencil.row_offsets,
            col_offsets_even=stencil.col_offsets_even,
            col_offsets_odd=stencil.col_offsets_odd,
            self_channels=tuple(range(stencil.num_moving, model.num_channels)),
        ),
        collide=_TableCollide(
            chiral_lookup(*model.collision_tables), model.num_channels, model.chirality
        ),
    )
