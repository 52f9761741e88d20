"""Tests for row-slab sharding: geometry invariants and bit-identity."""

import numpy as np
import pytest

from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import (
    BOUNDARY_ROWS,
    HALO_GENERATIONS,
    ShardRunner,
    block_end,
    plan_shards,
)
from repro.util.errors import ConfigError


def check_plan(rows, workers):
    """Every planner invariant the block halo exchange relies on."""
    shards = plan_shards(rows, workers)
    depth = shards[0].depth
    assert depth == min(HALO_GENERATIONS, rows // workers - 1)
    assert BOUNDARY_ROWS == HALO_GENERATIONS + 1
    for shard in shards:
        assert shard.depth == depth >= 1
        # Halos deep enough for a whole block, and no deeper than the
        # depth + 1 boundary rows a neighbour publishes.
        assert depth <= shard.halo_top <= depth + 1 == shard.exchange_rows
        assert depth <= shard.halo_bottom <= depth + 1
        # Every slab can supply a neighbour's deepest halo.
        assert shard.slab_rows >= depth + 1
        # Even global start row: local row parity == global row parity,
        # which the hexagonal propagation offsets key on.
        assert (shard.row_start - shard.halo_top) % 2 == 0
        # Even height: a periodic FHP sub-model must be constructible.
        assert shard.local_rows % 2 == 0
    return shards


class TestPlanShards:
    @pytest.mark.parametrize("rows,workers", [(16, 1), (16, 2), (17, 3), (24, 4), (9, 2)])
    def test_slabs_tile_the_lattice(self, rows, workers):
        shards = plan_shards(rows, workers)
        assert shards[0].row_start == 0
        assert shards[-1].row_stop == rows
        for a, b in zip(shards, shards[1:]):
            assert a.row_stop == b.row_start

    @pytest.mark.parametrize("rows,workers", [(16, 2), (17, 3), (23, 5), (64, 7)])
    def test_local_frames_start_even_and_are_even_tall(self, rows, workers):
        check_plan(rows, workers)

    def test_every_accepted_plan_keeps_the_invariants(self):
        """Every (rows, workers) with two rows per slab is accepted; short
        slabs only lower the depth, down to one generation."""
        depths = set()
        for workers in range(1, 6):
            for rows in range(2 * workers, 2 * workers * (HALO_GENERATIONS + 3)):
                depths.add(check_plan(rows, workers)[0].depth)
        assert depths == set(range(1, HALO_GENERATIONS + 1))

    def test_full_depth_plan_exchanges_boundary_rows(self):
        for shard in plan_shards(2048, 2):
            assert shard.depth == HALO_GENERATIONS
            assert shard.exchange_rows == BOUNDARY_ROWS

    def test_rejects_too_many_workers(self):
        with pytest.raises(ConfigError, match="at least"):
            plan_shards(6, 4)

    def test_local_row_indices_wrap(self):
        shard = plan_shards(16, 2)[1]  # bottom slab wraps past the edge
        idx = shard.local_row_indices(16)
        assert len(idx) == shard.local_rows
        assert idx[shard.halo_top] == shard.row_start
        assert idx[-1] == (shard.row_stop + shard.halo_bottom - 1) % 16


class TestBlockEnd:
    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("interval", [1, 3, 4, 16, 40])
    @pytest.mark.parametrize("target", [1, 7, 33])
    def test_blocks_tile_and_end_at_checkpoints_and_target(self, depth, interval, target):
        starts, g = [], 0
        while g < target:
            end = block_end(g, depth, interval, target)
            assert g < end <= g + depth
            starts.append(g)
            g = end
        assert g == target
        ends = set(starts[1:]) | {target}
        # Every checkpoint generation is a block end, so a restore from any
        # checkpoint starts a block, and its replay is whole blocks.
        assert {c for c in range(interval, target, interval)} <= ends
        # The schedule is a pure function of the generation: resuming at
        # any block start gives the same blocks from there on.
        for start in starts:
            resumed, h = [], start
            while h < target:
                resumed.append(h)
                h = block_end(h, depth, interval, target)
            assert resumed == [b for b in starts if b >= start]


def _evolve_sharded(
    spec, init, generations, workers, backend, obstacles=None, interval=None
):
    """In-process sharded evolution via ShardRunner + manual halo routing.

    Halos are refreshed every generation, or, with ``interval``, once per
    block of the worker's schedule (:func:`block_end`)."""
    shards = plan_shards(spec.rows, workers)
    runners = []
    for shard in shards:
        mask = (
            None
            if obstacles is None
            else obstacles[shard.local_row_indices(spec.rows)]
        )
        runners.append(
            ShardRunner(
                spec.build(rows=shard.local_rows),
                shard,
                init[shard.row_start : shard.row_stop].copy(),
                backend=backend,
                obstacles_mask=mask,
            )
        )
    periodic = spec.boundary == "periodic"
    n = len(runners)
    depth = runners[0].shard.depth
    t = 0
    while t < generations:
        end = t + 1 if interval is None else block_end(t, depth, interval, generations)
        rows = [r.boundary_rows() for r in runners]
        for i, runner in enumerate(runners):
            above = rows[i - 1][1] if (i > 0 or periodic) else None
            below = rows[(i + 1) % n][0] if (i < n - 1 or periodic) else None
            runner.set_halos(above, below)
            while runner.time < end:
                runner.step()
        t = end
    return np.concatenate([r.interior for r in runners], axis=0)


def _rows_for_depth(depth, workers, boundary):
    """A lattice height whose plan has exactly ``depth`` (even when periodic)."""
    rows = workers * (depth + 1)
    return rows + (rows % 2 if boundary == "periodic" else 0)


class TestDeepHalos:
    """One halo exchange per block keeps the slabs exact at every depth."""

    @pytest.mark.parametrize("depth", range(1, HALO_GENERATIONS + 1))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("boundary", ["periodic", "null"])
    def test_every_depth_matches_whole_lattice_run(self, depth, workers, boundary):
        """Short lattices force each depth the planner can pick; blocks
        run to the full depth (the checkpoint interval is longer) for
        two blocks and a partial one, with obstacles crossing every slab
        edge."""
        rows = _rows_for_depth(depth, workers, boundary)
        if plan_shards(rows, workers)[0].depth != depth:
            # One periodic slab has depth rows - 1 (below the cap), and
            # periodic FHP needs even rows: no plan has an even depth.
            assert (workers, boundary, depth % 2) == (1, "periodic", 0)
            pytest.skip("no periodic single-slab plan has this depth")
        generations = 2 * depth + 1
        for kind, backend in (("hpp", "reference"), ("fhp6", "bitplane"), ("fhp7", "reference")):
            spec = ModelSpec(kind=kind, rows=rows, cols=13, boundary=boundary)
            init = spec.initial_state(0.35, depth)
            mask = np.random.default_rng(depth).random((rows, 13)) < 0.1
            init[mask] = 0
            auto = LatticeGasAutomaton(spec.build(), init.copy(), obstacles=ObstacleMap(mask))
            auto.run(generations)
            sharded = _evolve_sharded(
                spec, init, generations, workers, backend, obstacles=mask, interval=64
            )
            assert np.array_equal(sharded, auto.state), kind

    @pytest.mark.parametrize("kind", ["hpp", "fhp6", "fhp7"])
    @pytest.mark.parametrize("boundary", ["periodic", "null"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocks_cut_by_checkpoints_match(self, kind, boundary, workers):
        """Blocks shorter than the depth (checkpoint every 5) at full depth."""
        spec = ModelSpec(kind=kind, rows=3 * 18, cols=13, boundary=boundary)
        init = spec.initial_state(0.35, 4)
        auto = LatticeGasAutomaton(spec.build(), init.copy())
        auto.run(23)
        sharded = _evolve_sharded(spec, init, 23, workers, "bitplane", interval=5)
        assert np.array_equal(sharded, auto.state)

    def test_null_edge_absorbs_every_generation(self):
        """A particle leaving a null edge is gone: it may not bounce off an
        obstacle in the halo beyond the edge and re-enter mid-block."""
        spec = ModelSpec(kind="fhp6", rows=8, cols=8, boundary="null")
        init = np.zeros((8, 8), dtype=np.uint8)
        init[0, 3] = 0b000110  # both upward channels, about to leave
        mask = np.zeros((8, 8), dtype=bool)
        mask[-3:] = True  # wraps into shard 0's top halo rows
        auto = LatticeGasAutomaton(spec.build(), init.copy(), obstacles=ObstacleMap(mask))
        auto.run(5)
        sharded = _evolve_sharded(spec, init, 5, 1, "reference", obstacles=mask, interval=8)
        assert np.array_equal(sharded, auto.state)


class TestShardRunnerBitIdentity:
    @pytest.mark.parametrize("kind", ["hpp", "fhp6", "fhp7"])
    @pytest.mark.parametrize("boundary", ["periodic", "null"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_whole_lattice_run(self, kind, boundary, workers):
        spec = ModelSpec(kind=kind, rows=18, cols=13, boundary=boundary)
        init = spec.initial_state(0.35, 5)
        auto = LatticeGasAutomaton(spec.build(), init.copy())
        auto.run(9)
        sharded = _evolve_sharded(spec, init, 9, workers, "reference")
        assert np.array_equal(sharded, auto.state)

    def test_bitplane_backend_matches(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        init = spec.initial_state(0.3, 2)
        auto = LatticeGasAutomaton(spec.build(), init.copy(), backend="bitplane")
        auto.run(8)
        sharded = _evolve_sharded(spec, init, 8, 2, "bitplane")
        assert np.array_equal(sharded, auto.state)

    @pytest.mark.parametrize("kind", ["hpp", "fhp6", "fhp7"])
    @pytest.mark.parametrize("boundary", ["periodic", "null"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_resident_bitplane_matches_reference_run(self, kind, boundary, workers):
        """Slabs held as bit-planes for the whole run, against the
        reference backend's whole-lattice evolution (cols straddle a
        word boundary)."""
        spec = ModelSpec(kind=kind, rows=18, cols=67, boundary=boundary)
        init = spec.initial_state(0.35, 8)
        auto = LatticeGasAutomaton(spec.build(), init.copy())
        auto.run(9)
        sharded = _evolve_sharded(spec, init, 9, workers, "bitplane")
        assert np.array_equal(sharded, auto.state)

    def test_obstacles_match(self):
        self._check_obstacles("reference")

    def test_bitplane_obstacles_match(self):
        self._check_obstacles("bitplane")

    @staticmethod
    def _check_obstacles(backend):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        init = spec.initial_state(0.3, 3)
        mask = np.zeros((16, 16), dtype=bool)
        mask[7:9, 4:12] = True  # a bar crossing the shard boundary
        init[mask] = 0
        auto = LatticeGasAutomaton(
            spec.build(), init.copy(), obstacles=ObstacleMap(mask)
        )
        auto.run(8)
        sharded = _evolve_sharded(spec, init, 8, 2, backend, obstacles=mask)
        assert np.array_equal(sharded, auto.state)


class TestShardRunnerValidation:
    def test_rejects_wrong_local_model_shape(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[0]
        with pytest.raises(ConfigError, match="rows"):
            ShardRunner(
                spec.build(),  # full-lattice model, not the local frame
                shard,
                np.zeros((shard.slab_rows, 16), dtype=np.uint8),
            )

    def test_rejects_wrong_slab_shape(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[0]
        with pytest.raises(ConfigError, match="slab"):
            ShardRunner(
                spec.build(rows=shard.local_rows),
                shard,
                np.zeros((3, 16), dtype=np.uint8),
            )

    def test_boundary_rows_are_copies(self):
        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[0]
        runner = ShardRunner(
            spec.build(rows=shard.local_rows),
            shard,
            spec.initial_state(0.3, 1)[shard.row_start : shard.row_stop],
        )
        top, _ = runner.boundary_rows()
        top[:] = 0xFF
        assert not np.array_equal(runner.interior[:BOUNDARY_ROWS], top)


def _bitplane_runner(rows=64, cols=130, index=0):
    spec = ModelSpec(kind="fhp7", rows=rows, cols=cols)
    shard = plan_shards(rows, 2)[index]
    init = spec.initial_state(0.3, 4)[shard.row_start : shard.row_stop]
    return ShardRunner(spec.build(rows=shard.local_rows), shard, init, backend="bitplane")


class TestResidentShard:
    """On ``bitplane`` the slab stays packed between generations."""

    def test_generation_converts_only_exchanged_rows(self, monkeypatch):
        import repro.lgca.bitplane as bitplane

        runner = _bitplane_runner()
        converted = []
        pack, unpack = bitplane.pack_state, bitplane.unpack_state

        def counting_pack(state, num_channels, out=None):
            converted.append(("pack", state.shape[0]))
            return pack(state, num_channels, out=out)

        def counting_unpack(planes, cols, out=None):
            converted.append(("unpack", planes.shape[1]))
            return unpack(planes, cols, out=out)

        monkeypatch.setattr(bitplane, "pack_state", counting_pack)
        monkeypatch.setattr(bitplane, "unpack_state", counting_unpack)
        for _ in range(5):
            top, bottom = runner.boundary_rows()
            runner.set_halos(bottom, top)
            runner.step()
        shard = runner.shard
        per_generation = [
            ("unpack", BOUNDARY_ROWS),
            ("unpack", BOUNDARY_ROWS),
            ("pack", shard.halo_top),
            ("pack", shard.halo_bottom),
        ]
        assert converted == per_generation * 5
        converted.clear()
        assert runner.interior.shape == (shard.slab_rows, 130)
        assert converted == [("unpack", shard.slab_rows)]

    def test_kernel_timers_still_report(self):
        """The resident path records the same ``kernel.bitplane.*``
        handles a stepped shard did, so worker telemetry keeps its shape."""
        from repro.telemetry import InMemoryRecorder

        spec = ModelSpec(kind="fhp6", rows=16, cols=16)
        shard = plan_shards(16, 2)[1]
        rec = InMemoryRecorder()
        runner = ShardRunner(
            spec.build(rows=shard.local_rows), shard,
            spec.initial_state(0.3, 1)[shard.row_start : shard.row_stop],
            backend="bitplane", recorder=rec,
        )
        for _ in range(3):
            runner.step()
        snapshot = rec.snapshot()
        assert snapshot["counters"]["kernel.bitplane.generations"] == 3
        assert snapshot["counters"]["shard.generations"] == 3
        assert snapshot["timers"]["kernel.bitplane.tick_seconds"]["count"] == 3
        assert snapshot["timers"]["shard.step_seconds"]["count"] == 3

    def test_interior_is_a_fresh_array(self):
        runner = _bitplane_runner()
        slab = runner.interior
        before = slab.copy()
        slab[...] = 0
        assert np.array_equal(runner.interior, before)

    def test_restored_runner_continues_bit_identically(self):
        """A runner rebuilt from another's interior mid-run (a checkpoint
        restore) evolves exactly like the one that kept running."""
        spec = ModelSpec(kind="fhp6", rows=32, cols=70)
        shard = plan_shards(32, 1)[0]
        init = spec.initial_state(0.3, 6)

        def runner(slab, time=0):
            return ShardRunner(spec.build(rows=shard.local_rows), shard, slab,
                               backend="bitplane", time=time)

        def advance(r, generations):
            for _ in range(generations):
                top, bottom = r.boundary_rows()
                r.set_halos(bottom, top)
                r.step()

        kept = runner(init)
        advance(kept, 5)
        restored = runner(kept.interior, time=kept.time)
        advance(kept, 4)
        advance(restored, 4)
        assert restored.time == kept.time == 9
        assert np.array_equal(restored.interior, kept.interior)


class TestModelSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ModelSpec(kind="fhp9", rows=8, cols=8)

    def test_fails_fast_on_bad_geometry(self):
        # Periodic FHP needs even rows; the spec builds once to fail fast.
        with pytest.raises(Exception):
            ModelSpec(kind="fhp6", rows=9, cols=8, boundary="periodic")

    def test_channels(self):
        assert ModelSpec(kind="hpp", rows=8, cols=8).num_channels == 4
        assert ModelSpec(kind="fhp6", rows=8, cols=8).num_channels == 6
        assert ModelSpec(kind="fhp7", rows=8, cols=8).num_channels == 7

    def test_initial_state_is_seeded(self):
        spec = ModelSpec(kind="fhp6", rows=8, cols=8)
        assert np.array_equal(spec.initial_state(0.3, 9), spec.initial_state(0.3, 9))
