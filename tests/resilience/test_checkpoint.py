"""Tests for checkpoint/restart.

Includes the mandated restart test: an evolution interrupted and
restored from a checkpoint is bit-identical to the uninterrupted run —
random chirality included, which needs nothing beyond state and
generation because its draw is a pure function of (seed, t, site).
"""

import numpy as np
import pytest

from repro.lgca.automaton import LatticeGasAutomaton
from repro.lgca.fhp import FHPModel
from repro.lgca.flows import uniform_random_state
from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.util.errors import CheckpointError

ROWS, COLS = 8, 8


def make_auto(chirality="alternate", seed=7):
    model = FHPModel(ROWS, COLS, boundary="periodic", chirality=chirality, seed=seed)
    state = uniform_random_state(ROWS, COLS, 6, 0.35, np.random.default_rng(3))
    return LatticeGasAutomaton(model, state)


class TestCheckpoint:
    def test_save_copies_state(self):
        store = CheckpointStore()
        state = np.zeros((2, 2), dtype=np.uint8)
        cp = store.save(0, state)
        state[0, 0] = 5
        assert cp.state[0, 0] == 0

    def test_verify_passes_clean(self):
        cp = CheckpointStore().save(0, np.arange(4, dtype=np.uint8).reshape(2, 2))
        cp.verify()

    def test_verify_detects_rot(self):
        cp = CheckpointStore().save(0, np.arange(4, dtype=np.uint8).reshape(2, 2))
        cp.state[1, 0] ^= 1
        with pytest.raises(CheckpointError, match="rows \\[1\\]"):
            cp.verify()

    def test_untagged_checkpoint_verifies_trivially(self):
        Checkpoint(generation=0, state=np.zeros((2, 2), dtype=np.uint8)).verify()


class TestCheckpointStore:
    def test_due_on_interval(self):
        store = CheckpointStore(interval=4)
        assert store.due(0) and store.due(8)
        assert not store.due(3)

    def test_ring_evicts_oldest(self):
        store = CheckpointStore(keep=2)
        for g in range(3):
            store.save(g, np.full((2, 2), g, dtype=np.uint8))
        assert len(store) == 2
        assert store.latest().generation == 2

    def test_latest_empty_raises(self):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointStore().latest()

    def test_latest_skips_corrupted(self):
        store = CheckpointStore(keep=2)
        store.save(0, np.zeros((2, 2), dtype=np.uint8))
        newest = store.save(1, np.ones((2, 2), dtype=np.uint8))
        newest.state[0, 0] ^= 1  # rot the newest in place
        assert store.latest().generation == 0

    def test_latest_all_corrupted_raises(self):
        store = CheckpointStore(keep=1)
        cp = store.save(0, np.zeros((2, 2), dtype=np.uint8))
        cp.state[0, 0] ^= 1
        with pytest.raises(CheckpointError, match="every retained"):
            store.latest()


class TestDurableStore:
    """Satellite: crash-safe durable writes (temp + fsync + atomic rename)."""

    def test_save_persists_and_fresh_store_restores(self, tmp_path):
        store = CheckpointStore(directory=tmp_path)
        store.save(4, np.arange(16, dtype=np.uint8).reshape(4, 4))
        # A restarted process = a brand-new store over the same directory.
        fresh = CheckpointStore(directory=tmp_path)
        cp = fresh.latest()
        assert cp.generation == 4
        assert np.array_equal(cp.state, np.arange(16, dtype=np.uint8).reshape(4, 4))

    def test_no_temp_residue_after_save(self, tmp_path):
        store = CheckpointStore(directory=tmp_path)
        store.save(0, np.zeros((2, 2), dtype=np.uint8))
        store.save(8, np.ones((2, 2), dtype=np.uint8))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_prunes_to_keep_newest(self, tmp_path):
        store = CheckpointStore(keep=2, directory=tmp_path)
        for g in range(5):
            store.save(g, np.full((2, 2), g, dtype=np.uint8))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-000000000003.npz", "ckpt-000000000004.npz"]

    def test_torn_newest_falls_back_to_older(self, tmp_path):
        store = CheckpointStore(keep=3, directory=tmp_path)
        store.save(0, np.zeros((2, 2), dtype=np.uint8))
        store.save(8, np.ones((2, 2), dtype=np.uint8))
        # Simulate a crash mid-write of the newest file: truncate it.
        newest = sorted(tmp_path.iterdir())[-1]
        newest.write_bytes(newest.read_bytes()[:20])
        cp = CheckpointStore.load_latest(tmp_path)
        assert cp.generation == 0

    def test_every_torn_prefix_is_rejected(self, tmp_path):
        """A file cut at any byte (a crash mid-write without the rename
        guard) never restores: each prefix raises CheckpointError."""
        store = CheckpointStore(directory=tmp_path)
        store.save(8, np.arange(60, dtype=np.uint8).reshape(12, 5))
        [path] = tmp_path.iterdir()
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                CheckpointStore.load_latest(tmp_path)
        path.write_bytes(data)
        assert CheckpointStore.load_latest(tmp_path).generation == 8

    def test_leftover_temp_files_are_ignored(self, tmp_path):
        store = CheckpointStore(directory=tmp_path)
        store.save(2, np.ones((2, 2), dtype=np.uint8))
        (tmp_path / ".tmp-ckpt-000000000009.npz.123").write_bytes(b"garbage")
        assert CheckpointStore.load_latest(tmp_path).generation == 2

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no restorable checkpoint"):
            CheckpointStore.load_latest(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint directory"):
            CheckpointStore.load_latest(tmp_path / "never-made")

    def test_durable_files_round_trip_parity_tags(self, tmp_path):
        state = np.arange(16, dtype=np.uint8).reshape(4, 4)
        CheckpointStore(directory=tmp_path).save(0, state)
        cp = CheckpointStore.load_latest(tmp_path)
        cp.verify()
        # A flipped bit on disk must be caught by the stored tags.
        cp.state[2, 1] ^= 1
        with pytest.raises(CheckpointError):
            cp.verify()


class TestRestartBitIdentical:
    @pytest.mark.parametrize("chirality", ["alternate", "random"])
    def test_restart_matches_uninterrupted_run(self, chirality):
        """Evolve 10 generations straight; separately evolve 4, then
        checkpoint, evolve 3 more, 'crash', restore state and generation,
        and finish.  The restored run must be bit-identical."""
        total, cut = 10, 4
        straight = make_auto(chirality)
        straight.run(total)

        auto = make_auto(chirality)
        auto.run(cut)
        store = CheckpointStore()
        cp = store.save(auto.time, auto.state)
        auto.run(3)  # progress that the crash throws away

        # Crash and restore.
        auto.state = store.latest().state.copy()
        auto.time = cp.generation
        auto.run(total - cut)

        assert auto.time == straight.time
        assert np.array_equal(auto.state, straight.state)
