"""One lattice-gas model: a collision table pair and a propagation stencil.

Every engine of the paper is one machine — a processing element applying
a table rule over a fixed neighborhood — and CAM-8 likewise runs any gas
as one lookup-table rule plus per-field shifts.  :class:`TableModel` is
that machine in software: HPP and FHP differ only in *data*, a
:class:`Stencil` (where each moving channel goes) and a pair of
collision tables (one per chirality), while check, collide, propagate,
step, walls and the chirality draw exist once, here.  The bit-plane
kernel (:class:`repro.lgca.bitplane.BitplaneKernel`) and the PE rule
(:func:`repro.engines.pe.make_rule`) read the same two attributes,
:attr:`TableModel.stencil` and :attr:`TableModel.collision_tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.lattice.boundary import shift_plane_into
from repro.lgca.bits import opposite_channels, pack_channels, unpack_channels
from repro.lgca.collision import CollisionTable
from repro.util.validation import check_positive

__all__ = ["Stencil", "TableModel", "chiral_lookup"]

_BOUNDARIES = ("periodic", "null", "reflecting")
_CHIRALITIES = ("alternate", "random", "left", "right")


@dataclass(frozen=True)
class Stencil:
    """Storage-grid moves of the moving channels of a lattice gas.

    A particle in channel ``ch`` at source site ``(r, c)`` moves to
    ``(r + row_offsets[ch], c + dc)``, where ``dc`` is
    ``col_offsets_even[ch]`` or ``col_offsets_odd[ch]`` by the parity of
    the *source* row ``r`` (the offset-hexagonal layout shifts odd rows
    half a cell right; orthogonal stencils repeat one tuple).  A model's
    channels past ``len(row_offsets)`` rest.
    """

    row_offsets: tuple[int, ...]
    col_offsets_even: tuple[int, ...]
    col_offsets_odd: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.row_offsets)
        if not (len(self.col_offsets_even) == len(self.col_offsets_odd) == n):
            raise ValueError("offset tuples must have equal length")

    @classmethod
    def from_offsets(
        cls,
        even: Sequence[tuple[int, int]],
        odd: Sequence[tuple[int, int]] | None = None,
    ) -> "Stencil":
        """From per-channel ``(drow, dcol)`` pairs for even source rows,
        and for odd ones (default: the same)."""
        odd = even if odd is None else odd
        rows = tuple(dr for dr, _ in even)
        if rows != tuple(dr for dr, _ in odd):
            raise ValueError("a channel's row offset cannot depend on row parity")
        return cls(rows, tuple(dc for _, dc in even), tuple(dc for _, dc in odd))

    @property
    def num_moving(self) -> int:
        """Channels that propagate; any further channels rest."""
        return len(self.row_offsets)

    @property
    def moves(self) -> Iterator[tuple[int, int, int]]:
        """``(drow, dcol_even, dcol_odd)`` per moving channel, in order."""
        return zip(self.row_offsets, self.col_offsets_even, self.col_offsets_odd)


def chiral_lookup(left: CollisionTable, right: CollisionTable) -> np.ndarray:
    """Both chiralities as one uint8 table, indexed by ``state | left << C``.

    One ``np.take`` then collides every site under any chirality mask:
    entry ``s`` is ``right(s)`` and entry ``s | 1 << C`` is ``left(s)``.
    """
    lookup = np.concatenate([right.table, left.table]).astype(np.uint8)
    lookup.setflags(write=False)
    return lookup


class TableModel:
    """Collision + propagation kernels of a table-driven lattice gas.

    The model is *stateless with respect to the gas*: it transforms
    state fields, and :class:`repro.lgca.automaton.LatticeGasAutomaton`
    couples it with a state, obstacles and a backend.  Subclasses are
    dataclasses with ``rows``, ``cols`` and ``boundary`` fields; they
    give a class-level :attr:`stencil` and a ``chirality``, and return
    their ``(left, right)`` tables from :meth:`_tables`.

    ``boundary`` is ``"periodic"`` (toroidal), ``"null"`` (particles
    leaving the edge vanish, none enter) or ``"reflecting"``
    (bounce-back walls: a particle that would leave the grid stays at
    its edge site with its velocity reversed).  ``chirality`` picks the
    table per site and generation: ``"left"`` / ``"right"`` fixed,
    ``"alternate"`` a checkerboard in space and time, ``"random"`` a
    Philox draw keyed by ``seed`` (see :meth:`chirality_words`).
    """

    stencil: Stencil
    rows: int
    cols: int
    boundary: str
    chirality: str
    seed: int

    def __post_init__(self) -> None:
        self.rows = check_positive(self.rows, "rows", integer=True)
        self.cols = check_positive(self.cols, "cols", integer=True)
        if self.boundary not in _BOUNDARIES:
            raise ValueError(
                f"boundary={self.boundary!r} must be periodic, null, or reflecting"
            )
        if self.chirality not in _CHIRALITIES:
            raise ValueError(
                f"chirality={self.chirality!r} must be alternate, random, left, or right"
            )
        self._left, self._right = self._tables()
        self._lookup = chiral_lookup(self._left, self._right)
        if self.boundary == "reflecting":
            self._bounce = self._bounce_masks()
        self._offset_cache: dict[int, np.ndarray] = {}
        self._scratch_buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def _tables(self) -> tuple[CollisionTable, CollisionTable]:
        """The ``(left, right)`` collision tables of this gas."""
        raise NotImplementedError

    # -- public metadata ----------------------------------------------------

    @property
    def num_channels(self) -> int:
        return self._left.num_channels

    @property
    def bits_per_site(self) -> int:
        """D of the paper's pin constraint ``2D·P <= Π`` for this model."""
        return self.num_channels

    @property
    def velocities(self) -> np.ndarray:
        return self._left.velocities.copy()

    @property
    def collision_tables(self) -> tuple[CollisionTable, CollisionTable]:
        """The ``(left, right)`` chirality tables (equal for a model
        with a single, involutive table such as HPP)."""
        return self._left, self._right

    def check_state(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state)
        if state.shape != (self.rows, self.cols):
            raise ValueError(
                f"state shape {state.shape} != grid shape {(self.rows, self.cols)}"
            )
        if state.max(initial=0) >= 1 << self.num_channels:
            raise ValueError(f"states must fit in {self.num_channels} bits")
        return state.astype(np.uint8, copy=False)

    # -- chirality ----------------------------------------------------------

    def chirality_words(self, t: int) -> np.ndarray:
        """The ``"random"`` chirality of generation ``t`` as packed words.

        A ``(rows, W)`` uint64 array in the bit-plane layout of
        :mod:`repro.lgca.bitplane` (bit ``j`` of word ``w`` is column
        ``64*w + j``); a set bit selects the *left* table, and the tail
        bits past ``cols`` are clear.  The words are the Philox stream
        keyed by ``seed`` with counter ``[0, t, 0, 0]``, so every bit is
        a pure function of ``(seed, t, row, col)``: no state carries
        from one generation, call or process to the next, and word ``i``
        can be drawn alone from counter ``[i // 4, t, 0, 0]`` (four
        words per Philox block).
        """
        from repro.lgca.bitplane import _tail_mask, num_words

        words = num_words(self.cols)
        draw = np.random.Philox(key=self.seed, counter=[0, t, 0, 0])
        out = draw.random_raw(self.rows * words).reshape(self.rows, words)
        out[:, -1] &= _tail_mask(self.cols)
        return out

    def chirality_field(self, t: int) -> np.ndarray:
        """Boolean field: True where the *left* table applies at time ``t``."""
        if self.chirality == "left":
            return np.ones((self.rows, self.cols), dtype=bool)
        if self.chirality == "right":
            return np.zeros((self.rows, self.cols), dtype=bool)
        if self.chirality == "random":
            from repro.lgca.bitplane import unpack_plane

            return unpack_plane(self.chirality_words(t), self.cols).astype(bool)
        # "alternate": site-checkerboard XOR time parity.  Deterministic,
        # zero storage in hardware (one XOR of coordinate/time parities),
        # and unbiased over any two consecutive steps.
        r = ((np.arange(self.rows) + t) & 1).astype(np.uint8)
        c = (np.arange(self.cols) & 1).astype(np.uint8)
        return np.bitwise_xor(r[:, None], c[None, :]).view(bool)

    def _chirality_offset(self, t: int) -> np.ndarray | np.uint8:
        """``left << C`` per site at time ``t``: the chirality half of the
        :func:`chiral_lookup` index.  A scalar for the fixed policies;
        cached per time parity for ``"alternate"``; for ``"random"``,
        unpacked into a scratch buffer that the next call overwrites.
        Steady-state stepping allocates only the random draw's words.
        Callers must not mutate the result."""
        shift = self.num_channels
        if self.chirality in ("left", "right"):
            return np.uint8((self.chirality == "left") << shift)
        if self.chirality == "random":
            from repro.lgca.bitplane import _unpack_plane_into

            lanes = self._scratch("chirality_lanes", np.uint8)
            offset = _unpack_plane_into(self.chirality_words(t), self.cols, lanes)
            offset <<= np.uint8(shift)
            return offset
        offset = self._offset_cache.get(t % 2)
        if offset is None:
            offset = np.left_shift(self.chirality_field(t).view(np.uint8), shift)
            offset.setflags(write=False)
            self._offset_cache[t % 2] = offset
        return offset

    # -- dynamics -----------------------------------------------------------

    def collide(
        self,
        state: np.ndarray,
        t: int = 0,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Apply the collision tables under the chirality policy at time ``t``.

        One lookup in both chiralities' table (:func:`chiral_lookup`),
        indexed through a preallocated platform-int buffer, because
        ``np.take`` copies any other index dtype to one first.  ``out``
        (which must not alias ``state``) receives the result without
        allocating; ``check=False`` skips input validation when the
        caller has already validated.
        """
        if check:
            state = self.check_state(state)
        index = self._scratch("collide_index", np.intp)
        np.bitwise_or(state, self._chirality_offset(t), out=index)
        if out is None:
            out = np.empty(state.shape, dtype=np.uint8)
        return np.take(self._lookup, index, out=out, mode="clip")

    def propagate(
        self,
        state: np.ndarray,
        *,
        out: np.ndarray | None = None,
        check: bool = True,
    ) -> np.ndarray:
        """Move every particle one step along its channel's stencil offset.

        Each moving channel plane is shifted by :func:`shift_plane_into`
        (reflecting walls shift with null semantics, then bounce) and
        rest channels are copied.  ``out`` (not aliasing ``state``)
        receives the packed result; channel-plane scratch is reused
        across calls, so steady-state stepping does not allocate.
        """
        if check:
            state = self.check_state(state)
        channels = unpack_channels(
            state, self.num_channels, out=self._scratch("ch_in", np.uint8)
        )
        planes = self._scratch("ch_out", np.uint8)
        stage = self._scratch("stage", np.uint8)
        periodic = self.boundary == "periodic"
        moving = self.stencil.num_moving
        for ch, (dr, dc_even, dc_odd) in enumerate(self.stencil.moves):
            shift_plane_into(channels[ch], planes[ch], dr, dc_even, dc_odd, periodic, stage)
        np.copyto(planes[moving:], channels[moving:])  # rest particles stay put
        if self.boundary == "reflecting":
            bounced = stage  # the shifts are done with it
            opposite = opposite_channels(self.num_channels)
            for ch in range(moving):
                np.bitwise_and(channels[ch], self._bounce[ch], out=bounced)
                planes[opposite[ch]] |= bounced
        if out is None:
            out = np.zeros_like(state)
        return pack_channels(planes, out=out, check=False)

    def step(self, state: np.ndarray, t: int = 0) -> np.ndarray:
        """One generation: collide (at time ``t``), then propagate
        (validates input once, not per sub-kernel)."""
        state = self.check_state(state)
        return self.propagate(self.collide(state, t, check=False), check=False)

    def _scratch(self, key: str, dtype: np.dtype | type) -> np.ndarray:
        """Lazily allocated per-model scratch buffers (keyed by use)."""
        dt = np.dtype(dtype)
        buf = self._scratch_buffers.get((key, dt))
        if buf is None:
            if key in ("ch_in", "ch_out"):
                shape: tuple[int, ...] = (self.num_channels, self.rows, self.cols)
            elif key == "chirality_lanes":  # whole words: 64 sites apiece
                from repro.lgca.bitplane import WORD_BITS, num_words

                shape = (self.rows, WORD_BITS * num_words(self.cols))
            else:
                shape = (self.rows, self.cols)
            buf = np.empty(shape, dtype=dt)
            self._scratch_buffers[(key, dt)] = buf
        return buf

    # -- walls --------------------------------------------------------------

    def _bounce_masks(self) -> np.ndarray:
        """``(moving channels, rows, cols)`` uint8: 1 where a channel's
        particle would leave the grid, so a reflecting wall bounces it.

        Only edge cells can be set: the first or last row for a row
        offset, and the first or last column of each row interleave for
        that interleave's column offset.
        """
        masks = np.zeros((self.stencil.num_moving, self.rows, self.cols), dtype=np.uint8)
        for mask, (dr, dc_even, dc_odd) in zip(masks, self.stencil.moves):
            if dr > 0:
                mask[max(self.rows - dr, 0) :] = 1
            elif dr < 0:
                mask[:-dr] = 1
            for parity, dc in ((0, dc_even), (1, dc_odd)):
                if dc > 0:
                    mask[parity::2, max(self.cols - dc, 0) :] = 1
                elif dc < 0:
                    mask[parity::2, :-dc] = 1
        return masks
