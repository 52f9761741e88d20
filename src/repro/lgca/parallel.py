"""Multicore bit-plane stepping: row-slab tiles on a persistent thread pool.

The paper scales site-update rate R by replicating processing elements —
P PEs in the WSA, P×W in the SPA — under a shared-memory bandwidth
ceiling.  :class:`ParallelStepper` is the direct software analogue: the
lattice is tiled into horizontal slabs (one
:class:`~repro.lattice.slabs.Shard` per worker, planned by the same slab
planner the supervised runtime uses), each slab is stepped by its own
:class:`~repro.lgca.bitplane.BitplaneKernel` on a **persistent**
``ThreadPoolExecutor``, and the two-row halos are exchanged by direct
writes into the neighbour tile's padded plane arrays — no pickling, no
IPC, no per-tick allocation.  NumPy's ufuncs release the GIL for the
bulk word-level work, so the tiles genuinely overlap on multicore hosts.

Bit-identity to the single-slab ``"bitplane"`` backend (and therefore to
the reference kernels) holds for **every** model, boundary, chirality
policy, and obstacle map, at any worker count:

* slab-local frames start on an even global row and obstacle masks are
  sliced halos-included, so collisions in halo rows reproduce the
  global rows they shadow;
* propagation moves particles at most one row per generation, so every
  sub-lattice boundary artifact (row wrap, absorption, same-site
  reflection) lands in halo rows, which are refreshed from the
  neighbours' interiors before they are ever read again;
* for ``reflecting`` boundaries the edge shards carry **no** outer halo
  (``edge_halos=False`` planning), so the local frame edge coincides
  with the true wall and the local model's reflection fires exactly
  where the global one does;
* per-site ``random`` chirality — which independent worker *processes*
  cannot shard — works here because the coordinator draws the
  whole-lattice field from the caller's RNG exactly once per
  generation (the same stream the serial kernel consumes), packs it,
  and the tiles gather their local-frame rows from the shared planes.

Within a generation the only cross-tile accesses are reads of the
neighbours' *interior* rows and writes to a tile's *own* halo rows —
disjoint row ranges — and the per-generation barrier (joining the
futures) orders halo refresh, stepping, and the coordinator's
ping-pong swap, so the scheme is race-free by construction.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.lattice.slabs import BOUNDARY_ROWS, Shard, plan_shards
from repro.lgca.bitplane import BitplaneKernel, num_words, pack_plane, pack_state, unpack_state
from repro.lgca.fhp import FHPModel
from repro.lgca.hpp import HPPModel
from repro.telemetry import NULL_RECORDER, Recorder
from repro.util.errors import ConfigError
from repro.util.hotpath import hot_path

if TYPE_CHECKING:
    from repro.lgca.backends import FieldResident

__all__ = [
    "AUTO_WORKERS",
    "MIN_AUTO_SLAB_ROWS",
    "ParallelStepper",
    "resolve_workers",
]

#: The ``workers`` value requesting host-aware worker selection.
AUTO_WORKERS = "auto"

#: Under ``workers="auto"``, don't split slabs thinner than this: below
#: ~256 rows the per-generation submit/join overhead of the pool is
#: comparable to the slab's word-level work and single-slab stepping
#: (= the plain bitplane kernel) wins.
MIN_AUTO_SLAB_ROWS = 256


def resolve_workers(workers: int | str | None, rows: int) -> int:
    """The effective tile count for a ``rows``-row lattice.

    ``"auto"`` (or ``None``) picks ``os.cpu_count()``-aware defaults and
    degrades to 1 for small lattices where fork/join overhead loses.
    Explicit counts are validated, then clamped so every slab keeps the
    :data:`~repro.lattice.slabs.BOUNDARY_ROWS` rows halo exchange needs
    — ``workers > rows // 2`` degrades gracefully instead of failing.
    """
    if workers is None or workers == AUTO_WORKERS:
        requested = min(os.cpu_count() or 1, rows // MIN_AUTO_SLAB_ROWS)
    else:
        if isinstance(workers, str):
            if not workers.isdigit():
                raise ConfigError(
                    f"workers={workers!r} must be a positive integer or "
                    f"{AUTO_WORKERS!r}"
                )
            workers = int(workers)
        if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
            raise ConfigError(
                f"workers={workers!r} must be a positive integer or "
                f"{AUTO_WORKERS!r}"
            )
        if workers < 1:
            raise ConfigError(
                f"workers={workers!r} must be a positive integer or "
                f"{AUTO_WORKERS!r}"
            )
        requested = int(workers)
    return max(1, min(requested, rows // BOUNDARY_ROWS))


def _local_model(model: object, local_rows: int) -> HPPModel | FHPModel:
    """Rebuild ``model`` at a shard's local-frame height."""
    if isinstance(model, FHPModel):
        return FHPModel(
            local_rows,
            model.cols,
            rest_particles=model.rest_particles,
            boundary=model.boundary,
            chirality=model.chirality,
            saturated=model.saturated,
        )
    if isinstance(model, HPPModel):
        return HPPModel(local_rows, model.cols, boundary=model.boundary)
    raise ConfigError(
        f"no parallel kernel for model type {type(model).__name__}"
    )


class _SlabTile:
    """One worker's slab: a local kernel pinned to preallocated planes.

    ``src``/``dst`` are padded ``(C, local_rows, W)`` plane buffers the
    coordinator ping-pongs between generations; ``chir_left`` /
    ``chir_right`` (random chirality only) are the local-frame views of
    the globally drawn chirality field, registered with the kernel via
    :meth:`BitplaneKernel.set_external_chirality` once at construction
    and rewritten in place each generation.
    """

    __slots__ = (
        "shard",
        "kernel",
        "src",
        "dst",
        "above",
        "below",
        "row_indices",
        "chir_left",
        "chir_right",
        "halo_timer",
        "step_timer",
    )

    def __init__(self, shard: Shard, kernel: BitplaneKernel):
        self.shard = shard
        self.kernel = kernel
        self.src = kernel.alloc_planes()
        self.dst = kernel.alloc_planes()
        self.above: _SlabTile | None = None
        self.below: _SlabTile | None = None
        self.row_indices: np.ndarray | None = None
        self.chir_left: np.ndarray | None = None
        self.chir_right: np.ndarray | None = None
        # Pre-bound per-tile telemetry handles (set by the coordinator).
        # Each tile is advanced by exactly one pool task per generation
        # and the futures join orders generations, so writes to a tile's
        # own timers never race.
        self.halo_timer = None
        self.step_timer = None

    def swap(self) -> None:
        """Ping-pong the plane buffers (coordinator only, at the barrier)."""
        self.src, self.dst = self.dst, self.src


class ParallelStepper:
    """Thread-tiled bit-plane stepping behind the ``KernelStepper`` interface.

    Tiles the lattice into row slabs, steps each slab with its own
    :class:`~repro.lgca.bitplane.BitplaneKernel` on a persistent thread
    pool, and exchanges halos by direct writes — see the module
    docstring for the bit-identity and race-freedom arguments.  With an
    effective worker count of 1 (small lattices, ``workers=1``, or a
    lattice too short to split) it degrades to a plain single-slab
    :class:`~repro.lgca.backends.BitplaneStepper` with no pool at all.

    Parameters
    ----------
    model:
        The reference model to compile (HPP or FHP).
    obstacles:
        Optional solid-site mask (``ObstacleMap`` or boolean array).
    workers:
        Tile/thread count: a positive int, ``"auto"`` (the default;
        host- and lattice-aware), or ``None`` (same as ``"auto"``).
        Clamped so every slab stays tall enough for halo exchange.
    recorder:
        Optional :class:`~repro.telemetry.Recorder`.  The coordinator
        records whole-lattice generation times on
        ``kernel.parallel.tick_seconds``; each tile records its halo
        refresh and kernel step on its own pre-bound
        ``kernel.parallel.{halo,step}.tileNN_seconds`` timers (distinct
        handles per tile, so worker threads never share a timer).
    """

    def __init__(
        self,
        model: object,
        obstacles: object = None,
        workers: int | str | None = AUTO_WORKERS,
        recorder: Recorder | None = None,
    ):
        if not isinstance(model, (HPPModel, FHPModel)):
            raise ConfigError(
                f"no parallel kernel for model type {type(model).__name__}"
            )
        self.model = model
        rows: int = model.rows
        cols: int = model.cols
        self.workers = resolve_workers(workers, rows)
        self._single = None
        self._pool: ThreadPoolExecutor | None = None
        rec = recorder if recorder is not None else NULL_RECORDER
        self._clk = rec.clock
        self._tick_timer = rec.timer("kernel.parallel.tick_seconds")
        self._generations = rec.counter("kernel.parallel.generations")
        if self.workers == 1:
            # Single slab: the plain bitplane stepper IS the semantics;
            # skip the pool (and its per-generation submit/join cost).
            from repro.lgca.backends import BitplaneStepper

            self._single = BitplaneStepper(model, obstacles, recorder=recorder)
            self.num_channels: int = self._single.kernel.num_channels
            self.shards: tuple[Shard, ...] = ()
            return

        boundary: str = model.boundary  # type: ignore[attr-defined]
        self.shards = plan_shards(rows, self.workers, edge_halos=boundary == "periodic")
        self._random_chirality = (
            isinstance(model, FHPModel) and model.chirality == "random"
        )
        mask = getattr(obstacles, "mask", obstacles)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (rows, cols):
                raise ValueError(
                    f"obstacle shape {mask.shape} != grid shape {(rows, cols)}"
                )
            if not mask.any():
                mask = None

        words = num_words(cols)
        self._tiles: list[_SlabTile] = []
        for i, shard in enumerate(self.shards):
            local = _local_model(model, shard.local_rows)
            indices = shard.local_row_indices(rows)
            local_mask = None if mask is None else mask[indices]
            tile = _SlabTile(shard, BitplaneKernel(local, local_mask))
            tile.halo_timer = rec.timer(f"kernel.parallel.halo.tile{i:02d}_seconds")
            tile.step_timer = rec.timer(f"kernel.parallel.step.tile{i:02d}_seconds")
            if self._random_chirality:
                tile.row_indices = indices
                tile.chir_left = np.empty((shard.local_rows, words), dtype=np.uint64)
                tile.chir_right = np.empty((shard.local_rows, words), dtype=np.uint64)
                tile.kernel.set_external_chirality((tile.chir_left, tile.chir_right))
            self._tiles.append(tile)
        periodic = boundary == "periodic"
        n = len(self._tiles)
        for i, tile in enumerate(self._tiles):
            if i > 0 or periodic:
                tile.above = self._tiles[(i - 1) % n]
            if i < n - 1 or periodic:
                tile.below = self._tiles[(i + 1) % n]

        self.num_channels = self._tiles[0].kernel.num_channels
        self._gplanes = np.zeros((self.num_channels, rows, words), dtype=np.uint64)
        self._field = np.empty((rows, cols), dtype=np.uint8)
        if self._random_chirality:
            self._chir_left_g = np.empty((rows, words), dtype=np.uint64)
            self._chir_right_g = np.empty((rows, words), dtype=np.uint64)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-parallel"
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the stepper is dead after)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @hot_path
    def _advance_tile(self, tile: _SlabTile, t: int) -> None:
        """One tile generation: refresh halos, then step (worker thread).

        Reads neighbours' interior rows, writes this tile's own halo
        rows and ``dst`` planes only — row ranges other concurrent tasks
        never write, so the phase needs no locks.
        """
        clk = self._clk
        t_start = clk()
        shard = tile.shard
        if tile.above is not None:
            above = tile.above.shard
            stop = above.halo_top + above.slab_rows
            tile.src[:, : shard.halo_top, :] = tile.above.src[
                :, stop - shard.halo_top : stop, :
            ]
        if tile.below is not None:
            below = tile.below.shard
            lo = shard.halo_top + shard.slab_rows
            tile.src[:, lo:, :] = tile.below.src[
                :, below.halo_top : below.halo_top + shard.halo_bottom, :
            ]
        if self._random_chirality:
            np.take(self._chir_left_g, tile.row_indices, axis=0, out=tile.chir_left)
            np.take(self._chir_right_g, tile.row_indices, axis=0, out=tile.chir_right)
        t_mid = clk()
        tile.halo_timer.record(t_mid - t_start)
        tile.kernel.step_into(tile.src, tile.dst, t, None)
        tile.step_timer.record(clk() - t_mid)

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
        if self._single is not None:
            return self._single.run(state, generations, t0, rng)
        state = self.model.check_state(state)  # type: ignore[attr-defined]
        if generations == 0:
            return state
        if self._pool is None:
            raise RuntimeError("ParallelStepper is closed")
        tiles = self._tiles
        gplanes = self._gplanes
        gplanes[...] = pack_state(state, self.num_channels)
        for tile in tiles:
            shard = tile.shard
            tile.src[:, shard.interior, :] = gplanes[
                :, shard.row_start : shard.row_stop, :
            ]
        submit = self._pool.submit
        clk = self._clk
        tick_timer = self._tick_timer
        for i in range(generations):
            t = t0 + i
            t_start = clk()
            if self._random_chirality:
                # One whole-lattice draw per generation — the exact RNG
                # stream the serial bitplane kernel consumes.
                field = self.model.chirality_field(t, rng)  # type: ignore[attr-defined]
                self._chir_left_g[...] = pack_plane(field)  # repro: alloc-ok
                self._chir_right_g[...] = pack_plane(~field)  # repro: alloc-ok
            futures = [submit(self._advance_tile, tile, t) for tile in tiles]
            for future in futures:
                future.result()  # the barrier; re-raises worker errors
            for tile in tiles:
                tile.swap()
            tick_timer.record(clk() - t_start)
        self._generations.add(generations)
        for tile in tiles:
            shard = tile.shard
            gplanes[:, shard.row_start : shard.row_stop, :] = tile.src[
                :, shard.interior, :
            ]
        cols: int = self.model.cols  # type: ignore[attr-defined]
        return unpack_state(gplanes, cols, out=self._field)

    def resident(self, state: np.ndarray) -> FieldResident:
        """The lattice as a site field; each ``advance`` is one :meth:`step`."""
        from repro.lgca.backends import FieldResident

        return FieldResident(self, state)
