"""Multi-spin coded (bit-plane) LGCA kernels: 64 sites per machine word.

The reference kernels store one site per ``uint8`` and look collisions up
in a ``2^C`` table.  Real CA hardware — and the fastest software
implementations — instead store one lattice site per *bit*: the state
field becomes ``C`` *bit-planes* (one per velocity channel), each a
``(rows, ceil(cols/64))`` array of ``uint64`` words holding 64
column-sites apiece.  Collision becomes pure boolean algebra evaluated
64 sites at a time, and propagation becomes word-level shifts with carry
bits exchanged between adjacent words.  This is the multi-spin coding of
the lattice-gas literature and the natural software analogue of the
paper's bit-serial PE arrays.

The collision logic is **derived mechanically** from the verified
:class:`repro.lgca.collision.CollisionTable`: every state ``s`` the table
changes contributes one *flip term* (``s`` and the channels
``s ^ table[s]``).  :func:`compile_network` groups the terms by flip
set, merges each group's states into cubes, shares products across
cubes and flip ORs across channels, and emits one straight-line program
of full-plane ops (a :class:`CollisionNetwork`) that writes each output
channel as ``in ^ flip``.  The kernel runs that program over
cache-sized row blocks; construction re-checks it by running the same
program over all ``2^C`` states (:func:`verify_plane_logic`).  Any
conserving rule set — HPP, the FHP chirality variants, the
collision-saturated tables — compiles this way.  Propagation is one
loop over the model's :class:`repro.lgca.model.Stencil`, so the kernel
never asks which gas it runs.

Storage layout: bit ``j`` of word ``w`` of row ``r`` in a plane is lattice
site ``(r, 64*w + j)``.  Bits at column positions ``>= cols`` (the tail
padding of the last word) are kept zero as a module invariant; every
kernel preserves it.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from repro.lgca.bits import opposite_channels
from repro.lgca.collision import CollisionTable
from repro.lgca.model import TableModel

__all__ = [
    "WORD_BITS",
    "num_words",
    "pack_plane",
    "unpack_plane",
    "pack_state",
    "unpack_state",
    "FlipTerm",
    "flip_terms",
    "split_chirality_terms",
    "BLOCK_BYTES",
    "CollisionNetwork",
    "compile_network",
    "verify_plane_logic",
    "BitplaneKernel",
]

#: Sites stored per machine word (one lattice site per bit of a uint64).
WORD_BITS = 64

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def num_words(cols: int) -> int:
    """Words per bit-plane row: ``ceil(cols / 64)``."""
    if cols < 1:
        raise ValueError(f"cols={cols} must be positive")
    return (cols + WORD_BITS - 1) // WORD_BITS


def _tail_mask(cols: int) -> np.uint64:
    """Mask of valid bits in the last word of a row (all-ones iff 64 | cols)."""
    rem = cols % WORD_BITS
    if rem == 0:
        return _FULL
    return np.uint64((1 << rem) - 1)


_LITTLE_ENDIAN = sys.byteorder == "little"


def _bytes_to_words(buf: np.ndarray) -> np.ndarray:
    """Reinterpret ``(..., W*8)`` little-endian bytes as ``(..., W)`` uint64.

    On little-endian hosts (the overwhelmingly common case) this is a
    free ``view``; elsewhere the words are assembled with explicit byte
    shifts so the bit layout is identical on every platform.
    """
    if _LITTLE_ENDIAN:
        return buf.view(np.uint64)
    grouped = buf.reshape(buf.shape[:-1] + (buf.shape[-1] // 8, 8))
    words = np.zeros(grouped.shape[:-1], dtype=np.uint64)
    for i in range(8):
        words |= grouped[..., i].astype(np.uint64) << np.uint64(8 * i)
    return words


def _words_to_bytes(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_bytes_to_words` (the last axis must be contiguous)."""
    if _LITTLE_ENDIAN:
        return words.view(np.uint8)
    buf = np.empty(words.shape[:-1] + (words.shape[-1] * 8,), dtype=np.uint8)
    grouped = buf.reshape(words.shape + (8,))
    for i in range(8):
        np.right_shift(words, np.uint64(8 * i), out=grouped[..., i], casting="unsafe")
    return buf


def pack_plane(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 plane of shape ``(rows, cols)`` into ``(rows, W)`` uint64.

    Bit ``j`` of word ``w`` is column ``64*w + j``; tail padding is zero.
    The layout is little-endian within the word on every platform.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("plane must be 2-D")
    rows, cols = bits.shape
    if bits.dtype != bool:
        bits = bits.astype(np.uint8, copy=False)
    words = np.empty((rows, num_words(cols)), dtype=np.uint64)
    _store_bytes(np.packbits(bits, axis=1, bitorder="little"), words)
    return words


def _store_bytes(packed: np.ndarray, words: np.ndarray) -> None:
    """Write little-endian bytes ``(..., n)`` into ``words`` ``(..., W)``.

    Bytes past ``n`` (up to ``8*W``) are zeroed.  ``words`` may be any
    view whose last axis is contiguous, such as a row range of planes.
    """
    n = packed.shape[-1]
    if _LITTLE_ENDIAN:
        dst = words.view(np.uint8)
        dst[..., :n] = packed
        if n < dst.shape[-1]:
            dst[..., n:] = 0
        return
    buf = np.zeros(packed.shape[:-1] + (words.shape[-1] * 8,), dtype=np.uint8)
    buf[..., :n] = packed
    words[...] = _bytes_to_words(buf)


def _complement_into(words: np.ndarray, cols: int, out: np.ndarray) -> np.ndarray:
    """``out = ~words`` with the tail padding kept clear; returns ``out``."""
    np.invert(words, out=out)
    out[:, -1] &= _tail_mask(cols)
    return out


def unpack_plane(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_plane`: ``(rows, W)`` words to 0/1 uint8."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    rows, w = words.shape
    if num_words(cols) != w:
        raise ValueError(f"{w} words cannot hold {cols} columns")
    return _unpack_plane_into(
        words, cols, np.empty((rows, w * WORD_BITS), dtype=np.uint8)
    )


#: One set bit per byte lane of a uint64 — the {0,1}-byte SIMD mask.
_LANES = np.uint64(0x0101010101010101)

#: Bit ``j`` kept in the ``j``-th byte (in memory order) of a uint64.
_LANE_BITS = np.uint64(
    0x8040201008040201 if _LITTLE_ENDIAN else 0x0102040810204080
)

#: Added to a byte lane holding 0 or ``1 << j``: sets its top bit iff nonzero.
_LANE_CARRY = np.uint64(0x7F7F7F7F7F7F7F7F)


def _unpack_plane_into(words: np.ndarray, cols: int, out: np.ndarray) -> np.ndarray:
    """:func:`unpack_plane` into ``out``; returns its ``(rows, cols)`` view.

    ``words`` is C-contiguous ``(rows, W)`` uint64 and ``out`` a
    C-contiguous ``(rows, 64*W)`` uint8 buffer.  Each group of eight
    output bytes is one uint64 lane word built from one input byte:
    replicate the byte into every lane, keep bit ``j`` in lane ``j``,
    then move it to the lane's bit 0.  No temporary grows with the
    plane (``np.unpackbits`` has no ``out=``).
    """
    lanes = out.view(np.uint64)
    np.multiply(_words_to_bytes(words), _LANES, out=lanes)
    lanes &= _LANE_BITS
    lanes += _LANE_CARRY
    lanes >>= np.uint64(7)
    lanes &= _LANES
    return out[:, :cols]


def _split_channels(state: np.ndarray, bits: np.ndarray) -> None:
    """Extract channel bit ``ch`` of every site byte into ``bits[ch]``.

    ``state`` is a C-contiguous uint8 field, ``bits`` is ``(C, n)``
    uint8.  Bulk work happens on uint64 views — each 64-bit lane holds 8
    site bytes, and because every extracted byte is in {0, 1}, shifts by
    ``ch < 8`` never carry across byte lanes (endian-independent).
    """
    num_channels = bits.shape[0]
    flat = state.reshape(-1)
    n = flat.size
    n8 = n - n % 8
    for ch in range(num_channels):
        if n8:
            d64 = bits[ch, :n8].view(np.uint64)
            np.right_shift(flat[:n8].view(np.uint64), np.uint64(ch), out=d64)
            d64 &= _LANES
        if n8 < n:
            np.right_shift(flat[n8:], np.uint8(ch), out=bits[ch, n8:])
            bits[ch, n8:] &= np.uint8(1)


def _join_channels(bits: np.ndarray, out: np.ndarray) -> None:
    """Inverse of :func:`_split_channels`; consumes (mutates) ``bits``."""
    num_channels = bits.shape[0]
    flat = out.reshape(-1)
    flat[...] = 0
    n = flat.size
    n8 = n - n % 8
    for ch in range(num_channels):
        if n8:
            b64 = bits[ch, :n8].view(np.uint64)
            np.left_shift(b64, np.uint64(ch), out=b64)
            flat[:n8].view(np.uint64)[...] |= b64
        if n8 < n:
            np.left_shift(bits[ch, n8:], np.uint8(ch), out=bits[ch, n8:])
            flat[n8:] |= bits[ch, n8:]


#: Sites per row block of :func:`pack_state` and :func:`unpack_state`.
#: A block's channel bytes (``C`` per site, under 0.5 MiB) are all the
#: memory a conversion takes beyond its output.
_CONVERT_SITES = 1 << 16


def _convert_blocks(rows: int, cols: int) -> range:
    """Start rows of the conversion row blocks (``_CONVERT_SITES`` each)."""
    return range(0, rows, max(1, _CONVERT_SITES // cols))


def pack_state(
    state: np.ndarray, num_channels: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Pack an integer site-state field into ``(C, rows, W)`` bit-planes.

    ``out``, if given, is written instead of a fresh array; any view of
    that shape with contiguous rows will do (a row range of a plane
    buffer, say).  The field is converted in row blocks, so the only
    other memory taken is one block's channel bytes.
    """
    state = np.asarray(state)
    if state.ndim != 2:
        raise ValueError("state must be 2-D")
    rows, cols = state.shape
    shape = (num_channels, rows, num_words(cols))
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    starts = _convert_blocks(rows, cols)
    bits = np.empty((num_channels, min(starts.step, rows) * cols), dtype=np.uint8)
    for r0 in starts:
        r1 = min(r0 + starts.step, rows)
        block = bits[:, : (r1 - r0) * cols]
        if num_channels <= 8:
            # Byte-lane channel split of the whole block at once.
            _split_channels(np.ascontiguousarray(state[r0:r1], dtype=np.uint8), block)
        else:
            for ch in range(num_channels):
                chbits = block[ch].reshape(r1 - r0, cols)
                np.right_shift(state[r0:r1], ch, out=chbits, casting="unsafe")
                chbits &= np.uint8(1)
        packed = np.packbits(
            block.reshape(num_channels, r1 - r0, cols), axis=2, bitorder="little"
        )
        _store_bytes(packed, out[:, r0:r1])
    return out


def unpack_state(
    planes: np.ndarray, cols: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`pack_state`: bit-planes to a packed site field.

    Returns dtype uint8 for <= 8 channels, uint16 otherwise.  ``planes``
    may be any view with contiguous rows and ``out`` must be
    C-contiguous.  Like :func:`pack_state`, it converts in row blocks.
    """
    planes = np.asarray(planes, dtype=np.uint64)
    num_channels, rows, w = planes.shape
    dtype: type = np.uint8 if num_channels <= 8 else np.uint16
    if out is None:
        out = np.empty((rows, cols), dtype=dtype)
    else:
        if out.shape != (rows, cols):
            raise ValueError(f"out has shape {out.shape}, expected {(rows, cols)}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        dtype = out.dtype.type
    starts = _convert_blocks(rows, cols)
    for r0 in starts:
        r1 = min(r0 + starts.step, rows)
        # count=cols keeps the unpacked planes contiguous (tail bits dropped).
        bits = np.unpackbits(
            _words_to_bytes(planes[:, r0:r1]), axis=2, bitorder="little", count=cols
        )
        if dtype == np.uint8:
            _join_channels(bits.reshape(num_channels, -1), out[r0:r1])
            continue
        block = out[r0:r1]
        block[...] = 0
        for ch in range(num_channels):
            block |= bits[ch].astype(dtype) << dtype(ch)
    return out


# -- compiled collision logic -------------------------------------------------


@dataclass(frozen=True)
class FlipTerm:
    """One changing table entry as plane logic.

    The minterm of ``state`` (AND of ``pos`` planes and ``neg``
    complements) is XOR-ed into every channel in ``flip_channels``.
    ``pos`` is never empty: mass conservation forces ``table[0] == 0``,
    so every changing state holds at least one particle — which also
    guarantees the minterm never sets tail-padding bits.
    """

    state: int
    flips: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]
    flip_channels: tuple[int, ...]


def _make_term(state: int, out_state: int, num_channels: int) -> FlipTerm:
    flips = state ^ out_state
    pos = tuple(ch for ch in range(num_channels) if (state >> ch) & 1)
    neg = tuple(ch for ch in range(num_channels) if not (state >> ch) & 1)
    if not pos:
        raise ValueError("state 0 cannot change under a mass-conserving table")
    return FlipTerm(
        state=state,
        flips=flips,
        pos=pos,
        neg=neg,
        flip_channels=tuple(ch for ch in range(num_channels) if (flips >> ch) & 1),
    )


def flip_terms(table: CollisionTable) -> tuple[FlipTerm, ...]:
    """Compile a collision table to its flip terms (changing states only)."""
    num_channels = table.num_channels
    return tuple(
        _make_term(s, int(table.table[s]), num_channels)
        for s in range(table.num_states)
        if int(table.table[s]) != s
    )


def split_chirality_terms(
    left: CollisionTable, right: CollisionTable
) -> tuple[tuple[FlipTerm, ...], tuple[FlipTerm, ...], tuple[FlipTerm, ...]]:
    """Factor a chirality pair into (common, left-only, right-only) terms.

    States both tables move identically (e.g. the three-body triads) are
    evaluated once instead of once per chirality.
    """
    if left.num_channels != right.num_channels:
        raise ValueError("chirality tables must share a channel set")
    num_channels = left.num_channels
    common: list[FlipTerm] = []
    only_left: list[FlipTerm] = []
    only_right: list[FlipTerm] = []
    for s in range(left.num_states):
        out_l = int(left.table[s])
        out_r = int(right.table[s])
        if out_l == s and out_r == s:
            continue
        if out_l == out_r:
            common.append(_make_term(s, out_l, num_channels))
            continue
        if out_l != s:
            only_left.append(_make_term(s, out_l, num_channels))
        if out_r != s:
            only_right.append(_make_term(s, out_r, num_channels))
    return tuple(common), tuple(only_left), tuple(only_right)


# -- the collision network ----------------------------------------------------

#: Bytes of one plane's row block: 256 rows at 2048 columns.  The
#: network runs block by block, so the input, output, mask and temporary
#: planes of a block (37 of them, about 2.3 MiB, for FHP-7) stay in the
#: L2 and nearby L3 across the program's passes.  Blocks of 32, 48, 96
#: and 128 KiB measured no faster.
BLOCK_BYTES = 64 * 1024

#: Mask registers after the ``2·C`` input and output planes.
_LEFT, _RIGHT, _SOLID, _NOT_SOLID = range(4)
_NUM_MASKS = 4

#: A product term ``(value, care)``: it covers state ``s`` iff
#: ``s & care == value``; channels outside ``care`` are don't-cares.
Cube = tuple[int, int]


def _prime_implicants(states: set[int], num_channels: int) -> list[Cube]:
    """Quine–McCluskey: the cubes of ``states`` no larger cube contains."""
    full = (1 << num_channels) - 1
    level = {(s, full) for s in states}
    primes: set[Cube] = set()
    while level:
        merged: set[Cube] = set()
        used: set[Cube] = set()
        for (v1, c1), (v2, c2) in itertools.combinations(sorted(level), 2):
            diff = v1 ^ v2
            if c1 == c2 and diff & (diff - 1) == 0:
                merged.add((v1 & ~diff, c1 & ~diff))
                used.update(((v1, c1), (v2, c2)))
        primes |= level - used
        level = merged
    return sorted(primes)


def _minimum_cover(on: set[int], dont_care: set[int], num_channels: int) -> list[Cube]:
    """Exact two-level minimisation: fewest cubes, then fewest literals.

    Prime implicants of ``on | dont_care`` are searched by increasing
    count for a cover of ``on``; the ``<= 8``-bit tables keep the prime
    sets small enough for the exhaustive search.
    """
    primes = [
        (value, care)
        for value, care in _prime_implicants(on | dont_care, num_channels)
        if any(s & care == value for s in on)
    ]
    for count in range(1, len(primes) + 1):
        covers = [
            combo
            for combo in itertools.combinations(primes, count)
            if all(any(s & care == value for value, care in combo) for s in on)
        ]
        if covers:
            return list(min(covers, key=lambda c: sum(bin(care).count("1") for _, care in c)))
    raise ValueError("no cover of an empty on-set")


def _flip_groups(
    common: tuple[FlipTerm, ...],
    left: tuple[FlipTerm, ...],
    right: tuple[FlipTerm, ...],
) -> dict[int, tuple[set[int], set[int], set[int]]]:
    """States by flip set: ``flips -> (common, left-only, right-only)``."""
    groups: dict[int, tuple[set[int], set[int], set[int]]] = {}
    for side, terms in enumerate((common, left, right)):
        for term in terms:
            groups.setdefault(term.flips, (set(), set(), set()))[side].add(term.state)
    return groups


def _pair(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


class _Emitter:
    """Records the network as a hash-consed DAG, then emits it in demand order.

    Values are ints.  Registers (input planes and masks) are leaves; each
    computed value ``v`` has one definition ``defs[v] = (ufunc, a, b)``,
    ``b < 0`` marking the complement.  :meth:`op` returns the existing
    value for an op it has seen, so a product or OR requested twice is
    computed once.
    """

    def __init__(self, first_value: int):
        self.defs: dict[int, tuple[np.ufunc, int, int]] = {}
        self._memo: dict[tuple[np.ufunc, int, int], int] = {}
        self._next = first_value

    def op(self, fn: np.ufunc, a: int, b: int = -1) -> int:
        if b >= 0 and a > b:  # every binary op here commutes
            a, b = b, a
        key = (fn, a, b)
        if key not in self._memo:
            self._memo[key] = self._next
            self.defs[self._next] = key
            self._next += 1
        return self._memo[key]

    def extract(self, fn: np.ufunc, sets: list[set[int]]) -> list[int]:
        """Reduce each set of values to one value under the associative ``fn``.

        Greedy common-subexpression extraction: while some pair of values
        occurs together in two or more sets, the most frequent pair
        (smallest values on ties) becomes one new value, which replaces
        the pair in every set holding both.  Pair counts are updated
        incrementally and the next pair comes off a lazy max-heap.  Each
        set's remaining values are then chained, computed values first,
        so every op of a chain has a temporary operand to overwrite.
        """
        sets = [set(s) for s in sets]
        holding: dict[int, set[int]] = {}  # value -> indices of the sets holding it
        counts: dict[tuple[int, int], int] = {}
        for i, s in enumerate(sets):
            for v in s:
                holding.setdefault(v, set()).add(i)
            for pair in itertools.combinations(sorted(s), 2):
                counts[pair] = counts.get(pair, 0) + 1
        heap = [(-n, pair) for pair, n in counts.items() if n > 1]
        heapq.heapify(heap)
        while heap:
            n, pair = heapq.heappop(heap)
            if counts[pair] != -n:  # stale: the pair has lost sets since
                if counts[pair] > 1:
                    heapq.heappush(heap, (-counts[pair], pair))
                continue
            a, b = pair
            value = self.op(fn, a, b)
            won = set()
            holders = holding.setdefault(value, set())
            for i in holding[a] & holding[b] - holders:
                s = sets[i]
                holding[a].discard(i)
                holding[b].discard(i)
                holders.add(i)
                s -= {a, b}
                counts[pair] -= 1
                for x in s:
                    counts[_pair(a, x)] -= 1
                    counts[_pair(b, x)] -= 1
                    key = _pair(value, x)
                    counts[key] = counts.get(key, 0) + 1
                    won.add(key)
                s.add(value)
            for key in won:
                if counts[key] > 1:
                    heapq.heappush(heap, (-counts[key], key))
        reduced = []
        for s in sets:
            first, *rest = sorted(s, key=lambda v: (v not in self.defs, -v))
            for v in rest:
                first = self.op(fn, first, v)
            reduced.append(first)
        return reduced

    def schedule(self, sinks: list[tuple[np.ufunc, int, int, int]]) -> list:
        """Ops computing ``sinks``, each a ``(ufunc, a, b, register)``, in order.

        Every value is emitted depth-first on its first demand, just
        before the sink that first needs it, so a shared value is
        computed no earlier than it must be.
        """
        ops: list = []

        def visit(v: int) -> None:
            if v in self.defs and v not in emitted:
                emitted.add(v)
                fn, a, b = self.defs[v]
                visit(a)
                visit(b)
                ops.append((fn, a, b, v))

        emitted: set[int] = set()
        for fn, a, b, dst in sinks:
            visit(a)
            visit(b)
            ops.append((fn, a, b, dst))
        return ops


@dataclass(frozen=True)
class CollisionNetwork:
    """A collision compiled to one straight-line program of full-plane ops.

    ``ops`` are ``(ufunc, a, b, dst)`` over a register file that holds,
    for one row block: the ``C`` input planes, the ``C`` output planes,
    the left, right, solid and not-solid masks, then ``num_temps``
    temporaries; ``b < 0`` marks the unary complement.
    """

    num_channels: int
    ops: tuple[tuple[np.ufunc, int, int, int], ...]
    num_temps: int

    def __len__(self) -> int:
        return len(self.ops)

    def alloc_temps(self, rows: int, words: int) -> np.ndarray:
        """Temporaries for one :data:`BLOCK_BYTES` row block of a plane."""
        height = min(rows, max(1, BLOCK_BYTES // (8 * words)))
        return np.empty((self.num_temps, height, words), dtype=np.uint64)

    def run(
        self,
        planes_in: np.ndarray,
        planes_out: np.ndarray,
        masks: tuple[np.ndarray | None, ...],
        temps: np.ndarray,
    ) -> None:
        """Run the program from ``planes_in`` into ``planes_out``.

        ``masks`` is ``(left, right, solid, not_solid)``, ``None`` where
        the program reads no such plane; ``temps`` comes from
        :meth:`alloc_temps`, and its height is the row-block size.
        """
        c = self.num_channels
        first_mask = 2 * c
        first_temp = first_mask + _NUM_MASKS
        rows = planes_in.shape[1]
        block = temps.shape[1]
        # One register table per call, rebound to views block by block.
        regs: list = [None] * (first_temp + self.num_temps)
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            for ch in range(c):
                regs[ch] = planes_in[ch, r0:r1]
                regs[c + ch] = planes_out[ch, r0:r1]
            for k, mask in enumerate(masks):
                if mask is not None:
                    regs[first_mask + k] = mask[r0:r1]
            for k in range(self.num_temps):
                regs[first_temp + k] = temps[k, : r1 - r0]
            for fn, a, b, dst in self.ops:
                if b < 0:
                    fn(regs[a], regs[dst])
                else:
                    fn(regs[a], regs[b], regs[dst])


def _allocate(ops: list, num_channels: int) -> CollisionNetwork:
    """Map computed values onto a temporary pool by liveness.

    Ints below the first temporary are registers; larger ones are values
    of :class:`_Emitter`.  A value's temporary returns to the pool at its
    last read, and an op whose operand dies there writes over that
    operand (NumPy element-wise ops allow it), which saves the op a
    third plane stream.
    """
    first_temp = 2 * num_channels + _NUM_MASKS
    last_read: dict[int, int] = {}
    for i, (_, a, b, _) in enumerate(ops):
        for v in (a, b):
            if v >= first_temp:
                last_read[v] = i
    slots: dict[int, int] = {}
    free: list[int] = []
    num_temps = 0
    program = []
    for i, (fn, a, b, dst) in enumerate(ops):
        ra, rb = (first_temp + slots[v] if v >= first_temp else v for v in (a, b))
        dying = [
            slots.pop(v) for v in dict.fromkeys((a, b)) if v >= first_temp and last_read[v] == i
        ]
        if dst >= first_temp:
            if dying:
                slots[dst] = dying.pop(0)
            elif free:
                slots[dst] = heapq.heappop(free)
            else:
                slots[dst] = num_temps
                num_temps += 1
            dst = first_temp + slots[dst]
        for slot in dying:
            heapq.heappush(free, slot)
        program.append((fn, ra, rb, dst))
    return CollisionNetwork(num_channels, tuple(program), num_temps)


def compile_network(
    common: tuple[FlipTerm, ...],
    left: tuple[FlipTerm, ...],
    right: tuple[FlipTerm, ...],
    num_channels: int,
    opposite: tuple[int, ...] | None = None,
) -> CollisionNetwork:
    """Compile (common, left-only, right-only) flip terms to a network.

    States are grouped by flip set, and each group's states merged into
    a minimum set of cubes.  A chiral side may also cover the common
    states of its flip set, which the common part flips anyway; a common
    state both sides cover is flipped under either mask and gets no
    common cube.  The network is then built as a DAG in three shared
    layers:

    - **Products.**  Every distinct cube is the AND of its literals,
      and :meth:`_Emitter.extract` shares the literal pairs that occur
      in the most cubes, across all groups.
    - **Terms.**  A group's terms are its common cubes and one term
      per chiral side, ``(OR of the side's cubes) & mask``, the side
      ORs extracted together.
    - **Flips.**  ``flip[ch]`` is the OR of the terms of every group
      flipping ``ch``, extracted across channels, and ``out[ch] =
      in[ch] ^ flip[ch]``.  At most one group's terms are set at any
      site as long as the masks ``L`` and ``R`` partition the sites,
      so OR is the sum of the flips.

    With ``opposite`` (an obstacle map is present), solid sites then
    take the bounce-back ``in[opposite[ch]]``.  The DAG is emitted in
    demand order (:meth:`_Emitter.schedule`) and its values mapped to
    temporaries by liveness (:func:`_allocate`).
    """
    c = num_channels
    masks = 2 * c
    em = _Emitter(masks + _NUM_MASKS)
    covers: list[tuple[int, int | None, list[Cube]]] = []  # (flips, mask, cubes)
    for flips, (on_common, on_left, on_right) in _flip_groups(common, left, right).items():
        reached = []  # the common states each side's cubes also cover
        for on, mask in ((on_left, _LEFT), (on_right, _RIGHT)):
            cover = _minimum_cover(on, on_common, c) if on else []
            if cover:
                covers.append((flips, masks + mask, cover))
            reached.append({s for s in on_common if any(s & k == v for v, k in cover)})
        # A common state both sides cover is flipped under either mask.
        rest = on_common - (reached[0] & reached[1])
        if rest:
            covers.append((flips, None, _minimum_cover(rest, on_common - rest, c)))

    def literals(cube: Cube) -> set[int]:
        value, care = cube
        return {
            ch if value >> ch & 1 else em.op(np.bitwise_not, ch)
            for ch in range(c)
            if care >> ch & 1
        }

    cubes = sorted({cube for *_, cover in covers for cube in cover})
    product = dict(zip(cubes, em.extract(np.bitwise_and, [literals(q) for q in cubes])))
    terms = [
        (flips, product[q]) for flips, mask, cover in covers if mask is None for q in cover
    ]
    sides = [(flips, mask, cover) for flips, mask, cover in covers if mask is not None]
    side_any = em.extract(np.bitwise_or, [{product[q] for q in cover} for *_, cover in sides])
    terms += [
        (flips, em.op(np.bitwise_and, v, mask)) for (flips, mask, _), v in zip(sides, side_any)
    ]
    flip_sets = [{v for flips, v in terms if flips >> ch & 1} for ch in range(c)]
    flipped = [ch for ch in range(c) if flip_sets[ch]]
    flip = dict(zip(flipped, em.extract(np.bitwise_or, [flip_sets[ch] for ch in flipped])))
    sinks = [
        (np.bitwise_xor, ch, flip[ch], c + ch) if ch in flip
        else (np.bitwise_or, ch, ch, c + ch)  # a channel no state flips: plain copy
        for ch in range(c)
    ]
    if opposite is not None:
        for ch in range(c):
            out = c + ch
            bounced = em.op(np.bitwise_and, opposite[ch], masks + _SOLID)
            sinks += [
                (np.bitwise_and, out, masks + _NOT_SOLID, out),
                (np.bitwise_or, out, bounced, out),
            ]
    return _allocate(em.schedule(sinks), c)


def verify_plane_logic(
    table: CollisionTable,
    logic: tuple[FlipTerm, ...] | CollisionNetwork,
    right: CollisionTable | None = None,
) -> None:
    """Check compiled collision logic against its tables over **all** states.

    ``logic`` is a compiled network, or flip terms to compile into one.
    On a one-row field enumerating every state, :meth:`CollisionNetwork.run`
    — the program and row-block loop the kernel runs — executes once
    with masks (all-ones, zeros) against ``table`` and once with (zeros,
    all-ones) against ``right`` (default: ``table``).  Outputs are
    compared word for word, tail padding included.  Raises
    ``ValueError`` on any divergence, so a kernel holding a network is
    as trustworthy as the verified tables it came from.
    """
    num_channels = table.num_channels
    if not isinstance(logic, CollisionNetwork):
        logic = compile_network(logic, (), (), num_channels)
    n = table.num_states
    states = np.arange(n, dtype=np.uint16).reshape(1, n)
    planes = pack_state(states, num_channels)
    out = np.empty_like(planes)
    temps = logic.alloc_temps(1, planes.shape[2])
    ones = np.full(planes.shape[1:], _FULL, dtype=np.uint64)
    zeros = np.zeros_like(ones)
    right = table if right is None else right
    for expected_table, chirality in ((table, (ones, zeros)), (right, (zeros, ones))):
        logic.run(planes, out, (*chirality, zeros, ones), temps)
        got = unpack_state(out, n)
        expected = expected_table.table[states].astype(got.dtype)
        if not np.array_equal(got, expected):
            bad = int(np.nonzero(got != expected)[1][0])
            raise ValueError(
                f"plane-compiled logic diverges from table {expected_table.name!r} "
                f"at state {bad:#x}: {int(got[0, bad]):#x} != {int(expected[0, bad]):#x}"
            )
        if not np.array_equal(out, pack_state(expected, num_channels)):
            raise ValueError(
                f"plane-compiled logic for table {expected_table.name!r} diverges "
                "in the tail padding"
            )


# -- word-level shifts --------------------------------------------------------


def _shift_cols_into(
    src: np.ndarray,
    dst: np.ndarray,
    dc: int,
    cols: int,
    periodic: bool,
    carry: np.ndarray,
) -> None:
    """Shift plane columns by ``dc`` (|dc| <= 1) into ``dst`` (no aliasing).

    Word-level shift with carry bits exchanged between adjacent words;
    ``carry`` is a scratch array of the same shape.  Non-periodic shifts
    zero-fill (null semantics); tail padding stays clear.
    """
    if dc == 0:
        np.copyto(dst, src)
        return
    last = np.uint64((cols - 1) % WORD_BITS)
    if dc == 1:
        np.left_shift(src, _ONE, out=dst)
        np.right_shift(src, np.uint64(WORD_BITS - 1), out=carry)
        dst[:, 1:] |= carry[:, :-1]
        if periodic:
            np.right_shift(src[:, -1], last, out=carry[:, 0])
            carry[:, 0] &= _ONE
            dst[:, 0] |= carry[:, 0]
        dst[:, -1] &= _tail_mask(cols)
    elif dc == -1:
        np.right_shift(src, _ONE, out=dst)
        np.left_shift(src, np.uint64(WORD_BITS - 1), out=carry)
        dst[:, :-1] |= carry[:, 1:]
        if periodic:
            np.bitwise_and(src[:, 0], _ONE, out=carry[:, 0])
            np.left_shift(carry[:, 0], last, out=carry[:, 0])
            dst[:, -1] |= carry[:, 0]
    else:
        raise ValueError(f"column shift dc={dc} not in {{-1, 0, 1}}")


def _shift_rows_into(
    src: np.ndarray, dst: np.ndarray, dr: int, periodic: bool
) -> None:
    """Shift plane rows by ``dr`` (|dr| <= 1) into ``dst`` (no aliasing)."""
    if dr == 0:
        np.copyto(dst, src)
    elif dr == 1:
        dst[1:] = src[:-1]
        if periodic:
            dst[0] = src[-1]
        else:
            dst[0] = 0
    elif dr == -1:
        dst[:-1] = src[1:]
        if periodic:
            dst[-1] = src[0]
        else:
            dst[-1] = 0
    else:
        raise ValueError(f"row shift dr={dr} not in {{-1, 0, 1}}")


# -- the kernel ---------------------------------------------------------------


class BitplaneKernel:
    """Bit-plane collide/propagate kernels compiled from a reference model.

    Wraps a :class:`repro.lgca.model.TableModel` (HPP or FHP), reusing
    its *verified* collision tables, stencil, boundary setting and
    chirality policy, and evolves states held as ``(C, rows, W)`` uint64
    bit-planes.  All working storage is preallocated at construction, so
    :meth:`step_into` performs no array allocation in steady state.

    Parameters
    ----------
    model:
        The reference model to compile.
    obstacles:
        Optional solid-site mask (an ``ObstacleMap`` or boolean array);
        solid sites bounce back exactly like the reference automaton.

    Attributes
    ----------
    network:
        The verified :class:`CollisionNetwork` :meth:`collide_into` runs,
        obstacle bounce-back included.
    """

    def __init__(self, model: TableModel, obstacles: object = None):
        if not isinstance(model, TableModel):
            raise TypeError(
                f"no bit-plane kernel for model type {type(model).__name__}"
            )
        self.model = model
        self.rows = model.rows
        self.cols = model.cols
        self.words = num_words(model.cols)
        self.num_channels = model.num_channels
        self.boundary = model.boundary
        rows, w = self.rows, self.words
        shape = (rows, w)

        # -- collision terms ----------------------------------------------------
        left, right = model.collision_tables
        self._chirality: str | None = None
        if model.chirality in ("left", "right"):
            left = right = left if model.chirality == "left" else right
            terms = (flip_terms(left), (), ())
        else:
            self._chirality = model.chirality
            terms = split_chirality_terms(left, right)

        # -- masks -------------------------------------------------------------
        if self._chirality == "alternate":
            lefts = [pack_plane(model.chirality_field(t)) for t in (0, 1)]
            self._alt_masks = tuple(
                (left, _complement_into(left, self.cols, np.empty_like(left))) for left in lefts
            )
        mask = getattr(obstacles, "mask", obstacles)
        self._solid: np.ndarray | None = None
        self._not_solid: np.ndarray | None = None
        opposite: tuple[int, ...] | None = None
        if mask is not None and np.any(mask):
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (rows, self.cols):
                raise ValueError(
                    f"obstacle shape {mask.shape} != grid shape {(rows, self.cols)}"
                )
            self._solid = pack_plane(mask)
            self._not_solid = _complement_into(self._solid, self.cols, np.empty_like(self._solid))
            opposite = opposite_channels(self.num_channels)

        # -- the collision network, compiled and cross-checked ---------------
        self.network = compile_network(*terms, self.num_channels, opposite)
        verify_plane_logic(left, self.network, right)
        self._temps = self.network.alloc_temps(rows, w)

        if self.boundary == "reflecting":
            # (packed bounce mask, opposite channel) per moving channel
            self._bounce = list(
                zip(map(pack_plane, model._bounce), opposite_channels(self.num_channels))
            )

        # -- preallocated working storage -------------------------------------
        self._scratch = np.empty(shape, dtype=np.uint64)
        self._carry = np.empty(shape, dtype=np.uint64)
        self._stage = np.empty(shape, dtype=np.uint64)
        self._mid = np.empty((self.num_channels, rows, w), dtype=np.uint64)
        if self._chirality == "random":
            self._rand_right = np.empty(shape, dtype=np.uint64)

    # -- plane <-> field conversion -------------------------------------------

    def alloc_planes(self) -> np.ndarray:
        """A zeroed ``(C, rows, W)`` plane buffer for this lattice."""
        return np.zeros(
            (self.num_channels, self.rows, self.words), dtype=np.uint64
        )

    def pack(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pack a site-state field into bit-planes (``out`` or fresh ones)."""
        return pack_state(state, self.num_channels, out=out)

    def unpack(self, planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unpack bit-planes back into a uint8 site-state field."""
        return unpack_state(planes, self.cols, out=out)

    # -- collision -------------------------------------------------------------

    def _chirality_planes(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed (left-mask, right-mask) planes for generation ``t``."""
        if self._chirality == "alternate":
            return self._alt_masks[t % 2]
        assert self._chirality == "random"
        # The model's draw is already in plane layout: it is the left
        # mask.  random_raw has no out=, so it is a fresh 1 bit per site.
        left = self.model.chirality_words(t)
        return left, _complement_into(left, self.cols, self._rand_right)

    def collide_into(
        self, planes_in: np.ndarray, planes_out: np.ndarray, t: int = 0
    ) -> None:
        """Boolean-algebra collision: ``out = in XOR flips(in)``.

        Runs the compiled :class:`CollisionNetwork`.  Solid (obstacle)
        sites bounce back instead, exactly like the reference automaton.
        ``planes_out`` must not alias ``planes_in``.
        """
        left = right = None
        if self._chirality is not None:
            left, right = self._chirality_planes(t)
        self.network.run(
            planes_in, planes_out, (left, right, self._solid, self._not_solid), self._temps
        )

    @property
    def collide_ops(self) -> int:
        """Full-plane ops one :meth:`collide_into` makes, from the network.

        Each op runs once per row block, so one op is one pass over a
        whole plane.
        """
        return len(self.network)

    # -- propagation -----------------------------------------------------------

    def propagate_into(self, planes_in: np.ndarray, planes_out: np.ndarray) -> None:
        """Word-shift propagation along the model's stencil and boundary.

        The word-level counterpart of
        :func:`repro.lattice.boundary.shift_plane_into`, channel by
        channel: a zero shift is skipped, each row interleave is
        column-shifted by its own offset (the shifts are row-local), and
        the rows are moved after.  Rest channels are copied, and
        reflecting walls bounce what would leave the grid.
        ``planes_out`` must not alias ``planes_in``.
        """
        periodic = self.boundary == "periodic"
        cols, stage, carry = self.cols, self._stage, self._carry
        stencil = self.model.stencil
        for ch, (dr, dc_even, dc_odd) in enumerate(stencil.moves):
            src, dst = planes_in[ch], planes_out[ch]
            if dc_even == dc_odd == 0:
                _shift_rows_into(src, dst, dr, periodic)
                continue
            mid = dst if dr == 0 else stage
            if dc_even == dc_odd:
                _shift_cols_into(src, mid, dc_even, cols, periodic, carry)
            else:
                _shift_cols_into(src[0::2], mid[0::2], dc_even, cols, periodic, carry[0::2])
                _shift_cols_into(src[1::2], mid[1::2], dc_odd, cols, periodic, carry[1::2])
            if dr != 0:
                _shift_rows_into(mid, dst, dr, periodic)
        moving = stencil.num_moving
        np.copyto(planes_out[moving:], planes_in[moving:])  # rest particles stay put
        if self.boundary == "reflecting":
            scratch = self._scratch
            for ch, (mask, opposite) in enumerate(self._bounce):
                np.bitwise_and(planes_in[ch], mask, out=scratch)
                planes_out[opposite] |= scratch

    # -- full generation -------------------------------------------------------

    def step_into(
        self, planes_in: np.ndarray, planes_out: np.ndarray, t: int = 0
    ) -> None:
        """One generation (collide then propagate), allocation-free.

        ``planes_out`` must not alias ``planes_in``; the collided
        intermediate lives in a preallocated internal buffer.
        """
        self.collide_into(planes_in, self._mid, t)
        self.propagate_into(self._mid, planes_out)
