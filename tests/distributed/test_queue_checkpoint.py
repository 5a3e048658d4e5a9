"""Tests for the checkpoint store."""
from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.distributed import CheckpointStore


def _contending_writer(directory, digest: str, start: int, count: int) -> None:
    """Merge ``count`` one-point updates [start, start+count) into one digest.

    Module-level so it pickles under any multiprocessing start method.  Each
    merge is a full read-modify-write of the shared file, maximising the
    window in which an unlocked implementation loses the other writer's
    points.
    """
    store = CheckpointStore(directory)
    for i in range(start, start + count):
        store.merge(digest, {complex(i, 1.0): complex(i, -1.0)})


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "checkpoints")
        values = {1.5 + 2.5j: 0.25 - 0.1j, 3.0 + 0j: 0.5 + 0j}
        store.merge("job-a", values)
        loaded = store.load("job-a")
        assert loaded == {1.5 + 2.5j: 0.25 - 0.1j, 3.0 + 0j: 0.5 + 0j}
        assert store.digests() == ["job-a"]
        assert store.size_bytes("job-a") > 0

    def test_merge_accumulates(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("job", {1 + 1j: 2 + 2j})
        store.merge("job", {3 + 3j: 4 + 4j})
        assert len(store.load("job")) == 2

    def test_missing_digest_is_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nothing") == {}

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("job", {1 + 1j: 2 + 2j})
        store.clear("job")
        assert store.load("job") == {}
        store.clear("job")  # idempotent

    def test_corrupt_file_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("job", {1 + 1j: 2 + 2j})
        path = next((tmp_path).glob("*.json"))
        path.write_text("{not json")
        assert store.load("job") == {}

    def test_empty_merge_is_noop(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("job", {})
        assert store.load("job") == {}

    def test_digest_sanitised(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("weird/../digest", {1 + 0j: 1 + 0j})
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        assert "/" not in files[0].name
        with pytest.raises(ValueError):
            store.merge("///", {1 + 0j: 1 + 0j})

    def test_file_is_valid_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("job", {0.5 + 0.25j: 1.0 - 0.5j})
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        assert set(payload) == {"crc32", "values"}
        assert list(payload["values"].values()) == [[1.0, -0.5]]

    def test_lock_file_not_listed_as_digest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.merge("job", {1 + 1j: 2 + 2j})
        assert store.digests() == ["job"]
        assert (tmp_path / "job.lock").exists()


class TestCheckpointContention:
    """merge() is a read-modify-write; concurrent writers must not lose points."""

    def test_two_writer_processes_lose_no_values(self, tmp_path):
        digest = "shared-measure"
        per_writer = 120
        workers = [
            multiprocessing.Process(
                target=_contending_writer,
                args=(str(tmp_path), digest, w * per_writer, per_writer),
            )
            for w in range(2)
        ]
        for p in workers:
            p.start()
        for p in workers:
            p.join(timeout=120)
            assert p.exitcode == 0
        merged = CheckpointStore(tmp_path).load(digest)
        assert len(merged) == 2 * per_writer
        for i in range(2 * per_writer):
            assert merged[complex(i, 1.0)] == complex(i, -1.0)

    def test_many_writer_threads_lose_no_values(self, tmp_path):
        store = CheckpointStore(tmp_path)
        digest = "threaded-measure"
        per_writer, n_threads = 40, 4
        threads = [
            threading.Thread(
                target=_contending_writer,
                args=(tmp_path, digest, w * per_writer, per_writer),
            )
            for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.load(digest)) == n_threads * per_writer
