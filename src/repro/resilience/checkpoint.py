"""Checkpoint/restart for lattice evolutions.

A checkpoint is everything needed to replay deterministically from a
generation boundary: the state field and the generation index (every
chirality policy, ``"random"`` included, is a pure function of the
model and the generation, so there is no RNG state to keep).  Checkpoints
carry their own parity tags so a *corrupted checkpoint* is detected at
restore time instead of silently seeding a wrong replay.

The store keeps a bounded in-memory ring and can additionally persist
every checkpoint to a directory.  A durable checkpoint file is three
consecutive ``.npy`` frames — generation, parity tags, state — with no
zip container around them (the ``.npz`` name is historical).  Durable
writes are **crash-safe**: each checkpoint is written to a temporary
file, flushed and fsynced, then moved into place with an atomic rename
(and the directory entry fsynced) — a process killed at any instant
mid-checkpoint leaves the previous restorable frame untouched.  Restore scans newest-to-oldest
and skips anything unreadable or parity-corrupt, so a torn or rotted
file degrades to an older recovery point, never to a wrong replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.resilience.monitors import row_parity_tags
from repro.util.errors import CheckpointError
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["Checkpoint", "CheckpointStore"]

#: Durable checkpoint filename prefix (``ckpt-<generation>.npz``).
_FILE_PREFIX = "ckpt-"
_TMP_PREFIX = ".tmp-"


@dataclass(frozen=True)
class Checkpoint:
    """One recovery point: state field + generation index."""

    generation: int
    state: np.ndarray = field(repr=False)
    tags: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def verify(self) -> None:
        """Raise :class:`CheckpointError` if the stored state rotted."""
        if self.tags is None:
            return
        current = row_parity_tags(self.state)
        if not np.array_equal(current, self.tags):
            bad = np.nonzero(current != self.tags)[0]
            raise CheckpointError(
                f"checkpoint at generation {self.generation} is corrupted "
                f"in rows {[int(r) for r in bad]}"
            )


def _checkpoint_path(directory: Path, generation: int) -> Path:
    return directory / f"{_FILE_PREFIX}{generation:012d}.npz"


def _write_durable(directory: Path, cp: Checkpoint) -> Path:
    """Write ``cp`` crash-safely: temp file + fsync + atomic rename."""
    final = _checkpoint_path(directory, cp.generation)
    tmp = directory / f"{_TMP_PREFIX}{final.name}.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.asarray(cp.generation, dtype=np.int64))
            np.save(fh, cp.tags)
            np.save(fh, cp.state)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CheckpointError(f"cannot persist checkpoint to {final}: {exc}") from exc
    # Make the rename itself durable: fsync the directory entry.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return final  # platform without directory fds; rename already atomic
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return final


def _read_durable(path: Path) -> Checkpoint:
    """Load one durable checkpoint; raises :class:`CheckpointError` if torn."""
    try:
        with open(path, "rb") as fh:
            generation = int(np.load(fh, allow_pickle=False))
            tags = np.load(fh, allow_pickle=False)
            state = np.load(fh, allow_pickle=False)
        cp = Checkpoint(generation=generation, state=state, tags=tags)
    except (OSError, ValueError, EOFError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    cp.verify()
    return cp


class CheckpointStore:
    """A bounded ring of recent checkpoints, optionally disk-durable.

    Parameters
    ----------
    interval:
        Generations between checkpoints (:meth:`due` answers "now?").
    keep:
        Recovery points retained (in memory and on disk); older ones
        age out.
    directory:
        When set, every :meth:`save` also persists the checkpoint
        crash-safely under this directory, and :meth:`latest` falls back
        to disk when the in-memory ring is empty — which is how a
        *restarted process* (a fresh store pointed at the same
        directory) resumes from its predecessor's last good frame.
    """

    def __init__(
        self,
        interval: int = 8,
        keep: int = 2,
        directory: str | Path | None = None,
    ):
        self.interval = check_positive(interval, "interval", integer=True)
        self.keep = check_positive(keep, "keep", integer=True)
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._ring: list[Checkpoint] = []
        self.saves = 0

    def __len__(self) -> int:
        return len(self._ring)

    def due(self, generation: int) -> bool:
        """Whether ``generation`` falls on a checkpoint boundary."""
        check_nonnegative(generation, "generation", integer=True)
        return generation % self.interval == 0

    def save(self, generation: int, state: np.ndarray) -> Checkpoint:
        """Snapshot ``state`` (copied) at ``generation``.

        With a ``directory`` configured the snapshot is also written
        durably (temp + fsync + atomic rename) before this returns, so
        a crash at any later instant can restart from it.
        """
        cp = Checkpoint(
            generation=check_nonnegative(generation, "generation", integer=True),
            state=np.asarray(state).copy(),
            tags=row_parity_tags(state),
        )
        if self.directory is not None:
            _write_durable(self.directory, cp)
            self._prune_durable()
        self._ring.append(cp)
        if len(self._ring) > self.keep:
            self._ring.pop(0)
        self.saves += 1
        return cp

    def _durable_paths(self) -> list[Path]:
        """Durable checkpoint files, oldest first (temp files excluded)."""
        assert self.directory is not None
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.name.startswith(_FILE_PREFIX) and p.suffix == ".npz"
        )

    def _prune_durable(self) -> None:
        for path in self._durable_paths()[: -self.keep]:
            path.unlink(missing_ok=True)

    def latest(self) -> Checkpoint:
        """Most recent verified checkpoint (memory ring, then disk).

        Raises
        ------
        CheckpointError
            If no checkpoint exists or every retained one fails its own
            verification (parity mismatch, torn file).
        """
        for cp in reversed(self._ring):
            try:
                cp.verify()
            except CheckpointError:
                continue
            return cp
        if self.directory is not None:
            try:
                return self.load_latest(self.directory)
            except CheckpointError:
                pass
        if not self._ring:
            raise CheckpointError("no checkpoint to restore from")
        raise CheckpointError("every retained checkpoint is corrupted")

    @classmethod
    def load_latest(cls, directory: str | Path) -> Checkpoint:
        """Newest intact durable checkpoint under ``directory``.

        Scans newest-to-oldest, skipping torn/corrupt files and
        leftover temporaries, so the survivor of a mid-write crash is
        whatever frame last completed its atomic rename.

        Raises
        ------
        CheckpointError
            When the directory holds no restorable checkpoint.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise CheckpointError(f"no checkpoint directory {directory}")
        candidates = sorted(
            (
                p
                for p in directory.iterdir()
                if p.name.startswith(_FILE_PREFIX) and p.suffix == ".npz"
            ),
            reverse=True,
        )
        for path in candidates:
            try:
                return _read_durable(path)
            except CheckpointError:
                continue
        raise CheckpointError(f"no restorable checkpoint under {directory}")
