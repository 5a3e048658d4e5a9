"""Torn and failed writes against the durable artifact stores.

A checkpoint merge can die at any byte: before the temp file exists (full
disk), between writing the temp file and the atomic rename (SIGKILL), or by
writing garbage that only a checksum can catch.  Each case must leave the
store in a state the next reader recovers from — never a half-written file
served as truth, and never a lock that outlives its holder.
"""
from __future__ import annotations

import errno
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.distributed import CheckpointStore
from repro.faults import FaultPlan
from repro.obs.metrics import get_metrics
from repro.smp.plane import PlaneStore
from tests.smp.conftest import random_kernel

SRC = Path(__file__).resolve().parents[2] / "src"

VALUES = {complex(0.5, 1.0): complex(2.0, -3.0), complex(1.5, 0.0): complex(4.0, 0.25)}


class TestCheckpointMerge:
    def test_enospc_merge_leaves_store_clean(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with faults.active(FaultPlan().rule("checkpoint.merge", "enospc")):
            with pytest.raises(OSError) as excinfo:
                store.merge("digest", VALUES)
            assert excinfo.value.errno == errno.ENOSPC
        assert not list(tmp_path.glob("*.tmp"))
        assert store.load("digest") == {}
        # the disk "recovers": the same merge now lands
        store.merge("digest", VALUES)
        assert store.load("digest") == VALUES

    def test_crash_between_write_and_rename_is_invisible(self, tmp_path):
        """Kill the writer after the temp file is full but before os.replace:
        readers see the old state, and release_artifacts reclaims the litter."""
        store = CheckpointStore(tmp_path)
        store.merge("digest", {complex(9.0, 0.0): complex(1.0, 0.0)})
        before = store.load("digest")
        script = (
            "from repro.distributed import CheckpointStore\n"
            f"store = CheckpointStore({str(tmp_path)!r})\n"
            "store.merge('digest', {complex(0.5, 1.0): complex(2.0, -3.0)})\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(SRC), "REPRO_FAULTS": "checkpoint.replace=crash"},
            timeout=60,
        )
        assert result.returncode == 1  # the planted crash fired
        assert list(tmp_path.glob("*.tmp"))  # the torn temp file is stranded
        assert store.load("digest") == before  # readers never saw it
        store.release_artifacts()
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.lock"))

    def test_lock_held_by_killed_process_does_not_deadlock(self, tmp_path):
        """flock dies with its holder: a merge blocked behind a killed writer
        proceeds as soon as the kernel reaps the lock, with no staleness
        timeout to sit out."""
        store = CheckpointStore(tmp_path)
        lock_path = store._path("digest").with_suffix(".lock")
        script = (
            "import fcntl, os, sys, time\n"
            f"fd = os.open({str(lock_path)!r}, os.O_CREAT | os.O_RDWR, 0o644)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            done = threading.Event()

            def _merge():
                store.merge("digest", VALUES)
                done.set()

            thread = threading.Thread(target=_merge, daemon=True)
            thread.start()
            assert not done.wait(0.3)  # genuinely blocked behind the holder
            holder.kill()
            holder.wait(timeout=10)
            assert done.wait(10.0)  # released by holder death, not a timeout
            thread.join(timeout=10)
        finally:
            if holder.poll() is None:
                holder.kill()
            holder.wait(timeout=10)
        assert store.load("digest") == VALUES

    def test_corrupted_merge_is_quarantined_on_load(self, tmp_path):
        registry = get_metrics()
        saved = registry.snapshot()
        registry.reset()
        try:
            store = CheckpointStore(tmp_path)
            with faults.active(
                FaultPlan(seed=11).rule("checkpoint.merge", "corrupt-bytes")
            ):
                store.merge("digest", VALUES)
            assert store.load("digest") == {}  # never serve garbage
            assert list(tmp_path.glob("*.corrupt"))
            counter = registry.get("repro_corrupt_artifacts_total")
            assert counter is not None
            assert counter.value(kind="checkpoint") == 1
            # the digest starts afresh and works again
            store.merge("digest", VALUES)
            assert store.load("digest") == VALUES
        finally:
            registry.reset()
            registry.absorb(saved)


class TestPlaneStore:
    def test_corrupt_export_is_quarantined_and_rebuilt(self, tmp_path):
        rng = np.random.default_rng(20030407)
        kernel = random_kernel(rng, 24, density=0.4)
        evaluator = kernel.evaluator()
        store = PlaneStore(tmp_path)
        with faults.active(
            FaultPlan(seed=3).rule("plane.export", "corrupt-bytes", limit=1)
        ):
            handle = store.export(evaluator)
        digest = Path(handle.path).name.split(".")[0]
        with pytest.raises(FileNotFoundError, match="quarantined"):
            store.attach(digest)
        assert list(tmp_path.glob("*.corrupt"))
        # idempotent re-export notices the digest has no valid plane left
        store.export(evaluator)
        attached = store.attach(digest)
        try:
            np.testing.assert_array_equal(attached.kernel.csr.probs, kernel.csr.probs)
        finally:
            attached.close()
