"""Tests for row-slab sharding: geometry invariants and bit-identity."""

import numpy as np
import pytest

from repro.lgca.automaton import LatticeGasAutomaton, ObstacleMap
from repro.runtime.modelspec import ModelSpec
from repro.runtime.sharding import BOUNDARY_ROWS, Shard, ShardRunner, plan_shards
from repro.util.errors import ConfigError


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
        for shard in plan_shards(rows, workers):
            # Even global start row: local row parity == global row parity,
            # which the hexagonal propagation offsets key on.
            assert (shard.row_start - shard.halo_top) % 2 == 0
            # Even height: a periodic FHP sub-model must be constructible.
            assert shard.local_rows % 2 == 0
            assert 1 <= shard.halo_top <= BOUNDARY_ROWS
            assert 1 <= shard.halo_bottom <= BOUNDARY_ROWS

    def test_rejects_too_many_workers(self):
        with pytest.raises(ConfigError, match="at least"):
            plan_shards(6, 4)

    @pytest.mark.parametrize("rows,workers", [(16, 2), (17, 3), (23, 5)])
    def test_edge_halos_false_strips_outer_halos(self, rows, workers):
        """Walled lattices: the first/last slab's frame edge must BE the
        lattice edge, so local reflections fire at the true wall."""
        shards = plan_shards(rows, workers, edge_halos=False)
        assert shards[0].halo_top == 0
        assert shards[-1].halo_bottom == 0
        for shard in shards[1:]:
            assert shard.halo_top >= 1
        for shard in shards[:-1]:
            assert shard.halo_bottom >= 1
        # interior slab frames keep the even-start parity invariant
        for shard in shards:
            assert (shard.row_start - shard.halo_top) % 2 == 0

    def test_local_row_indices_wrap(self):
        shard = plan_shards(16, 2)[1]  # bottom slab wraps past the edge
        idx = shard.local_row_indices(16)
        assert len(idx) == shard.local_rows
        assert idx[shard.halo_top] == shard.row_start
        assert idx[-1] == (shard.row_stop + shard.halo_bottom - 1) % 16


def _evolve_sharded(spec, init, generations, workers, backend, obstacles=None):
    """In-process sharded evolution via ShardRunner + manual halo routing."""
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
    for _ in range(generations):
        rows = [r.boundary_rows() for r in runners]
        for i, runner in enumerate(runners):
            above = rows[i - 1][1] if (i > 0 or periodic) else None
            below = rows[(i + 1) % n][0] if (i < n - 1 or periodic) else None
            runner.set_halos(above, below)
            runner.step()
    return np.concatenate([r.interior for r in runners], axis=0)


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

        def counting_pack(state, num_channels):
            converted.append(("pack", state.shape[0]))
            return pack(state, num_channels)

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

    def test_step_is_allocation_free(self):
        import tracemalloc

        runner = _bitplane_runner()
        runner.step()
        runner.step()
        tracemalloc.start()
        for _ in range(6):
            runner.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 16_000, f"ShardRunner.step allocated {peak} bytes"

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
