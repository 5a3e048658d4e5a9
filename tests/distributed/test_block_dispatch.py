"""Block-granular dispatch: payload size, crash recovery, checkpoint resume.

What crosses the process boundary in the refactored execution stack is one
task message per block — the :class:`SBlock` and the :class:`JobSpec` +
:class:`PlaneHandle` pair that names its measure to a resident, job-agnostic
worker — never the kernel arrays.  These tests pin the payload sizes down as
a regression (the scalar-era backend pickled the whole job, kernel included,
into every worker), and exercise the failure paths:
a worker killed mid-run is retried without recomputing finished blocks, and
a run that exhausts its retries resumes from the per-block checkpoint.
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.jobs import JobSpec, PassageTimeJob
from repro.distributed import (
    CheckpointStore,
    MultiprocessingBackend,
    SBlockQueue,
    SerialBackend,
)
from repro.distributed.backends import _BlockTask
from repro.laplace import EulerInverter
from repro.smp import KernelPlane, SPointPolicy, kernel_content_digest, source_weights
from tests.oneloop import LoopRun
from tests.smp.conftest import random_kernel

S_GRID = [complex(0.3 * (k + 1), 0.9 * k) for k in range(16)]


@pytest.fixture(scope="module")
def big_kernel():
    rng = np.random.default_rng(20030422)
    return random_kernel(rng, 80, density=0.4)


@pytest.fixture
def big_job(big_kernel):
    return PassageTimeJob(
        kernel=big_kernel, alpha=source_weights(big_kernel, [0]), targets=[3, 4]
    )


class TestPayloadSize:
    def test_spec_has_no_kernel_arrays(self, big_job):
        """Regression: the per-pool payload must not scale with the kernel."""
        spec = JobSpec.from_job(big_job)
        spec_bytes = len(pickle.dumps(spec))
        job_bytes = len(pickle.dumps(big_job))
        # The full job pickles the edge arrays of an ~80-state dense-ish
        # kernel; the spec pickles indices/weights of one source, two targets
        # and the options — three orders of magnitude apart.
        assert spec_bytes < 2_000
        assert job_bytes > 50 * spec_bytes

    def test_per_block_payload_is_bounded(self, big_job, tmp_path):
        plane = KernelPlane.build(big_job.evaluator, tmp_path / "kernel.plane")
        try:
            handle_bytes = len(pickle.dumps(plane.handle()))
            queue = SBlockQueue.from_points(S_GRID, 4)
            block_bytes = max(
                len(pickle.dumps(b)) for b in queue.outstanding()
            )
            assert handle_bytes < 512
            assert block_bytes < 1_024
            # ... and the whole task message a resident worker is sent: the
            # block, what it is a block of, and the call's context
            task_bytes = max(
                len(pickle.dumps(_BlockTask(
                    big_job.digest(), JobSpec.from_job(big_job), plane.handle(),
                    block, incident_dir=str(tmp_path), trace=True,
                    faults="seed=1;state=/tmp/f;worker.solve=crash:limit=1,block=1",
                    submitted=12345.678,
                )))
                for block in queue.outstanding()
            )
            assert task_bytes < 2_048
        finally:
            plane.unlink()

    def test_spec_build_round_trip(self, big_job, tmp_path):
        plane = KernelPlane.build(big_job.evaluator, tmp_path / "kernel.plane")
        try:
            attached = plane.handle().attach()
            spec = pickle.loads(pickle.dumps(JobSpec.from_job(big_job)))
            rebuilt = spec.build(attached.evaluator)
            assert rebuilt.digest() == big_job.digest()
            np.testing.assert_array_equal(rebuilt.alpha, big_job.alpha)
            np.testing.assert_array_equal(rebuilt.targets, big_job.targets)
            attached.close()
        finally:
            plane.unlink()

    def test_spec_build_rejects_wrong_kernel(self, big_job, two_state_kernel):
        spec = JobSpec.from_job(big_job)
        with pytest.raises(ValueError, match="states"):
            spec.build(two_state_kernel.evaluator())


class TestBlockSizing:
    def test_dispatch_blocks_spread_over_workers(self, big_job):
        """No explicit size: the policy's memory budget is capped so every
        worker sees work — the single code path shared with the in-process
        engines."""
        policy = SPointPolicy()
        evaluator = big_job.evaluator
        expected = policy.dispatch_block_points(evaluator, 16, 4)
        assert expected <= 4  # ceil(16 / 4 workers) caps the budget
        assert expected == min(policy.block_points(evaluator), expected)

    @pytest.mark.parametrize("max_block_bytes", [1 << 20, 64 << 20])
    def test_one_block_per_worker_unless_the_memory_plan_is_smaller(
        self, big_job, max_block_bytes
    ):
        policy = SPointPolicy(max_block_bytes=max_block_bytes)
        evaluator = big_job.evaluator
        budget = policy.block_points(evaluator)
        for n_points in (1, 2, 7, 66, 99, 132, 5_000, 100_000):
            for workers in (1, 2, 3, 8):
                assert policy.dispatch_block_points(evaluator, n_points, workers) == min(
                    budget, -(-n_points // workers)
                ), (n_points, workers)
        # degenerate inputs still give a block of one
        assert policy.dispatch_block_points(evaluator, 0, 2) == 1
        assert policy.dispatch_block_points(evaluator, 5, 0) == min(budget, 5)

    def test_explicit_block_size_and_policy_take_the_min(self, big_job):
        policy = SPointPolicy()
        effective = min(3, policy.dispatch_block_points(big_job.evaluator, 10, 2))
        backend = MultiprocessingBackend(processes=2, block_size=3)
        try:
            values = backend.evaluate(big_job, S_GRID[:10])
            assert len(values) == 10
            stats = backend.last_worker_stats
            assert sum(e["blocks"] for e in stats.values()) == -(-10 // effective)
            assert sum(e["points"] for e in stats.values()) == 10
        finally:
            backend.close()

    def test_chunk_size_is_an_alias(self):
        """... that is gone: ``block_size`` is the one name for the cap."""
        backend = MultiprocessingBackend(processes=1, block_size=7)
        assert backend.block_size == 7
        assert not hasattr(backend, "chunk_size")
        with pytest.raises(TypeError):
            MultiprocessingBackend(processes=1, chunk_size=7)


class TestRoundRobinBlocks:
    """``SBlockQueue.from_points`` deals a grid round-robin, so every block of
    a multi-t plan holds an even share of each t's points."""

    @staticmethod
    def _two_t_plan() -> tuple[list[complex], set[complex], set[complex]]:
        inverter = EulerInverter()
        first = [complex(s) for s in inverter.required_s_points(np.asarray([15.0]))]
        second = [complex(s) for s in inverter.required_s_points(np.asarray([60.0]))]
        return first + second, set(first), set(second)

    @pytest.mark.parametrize("block_size", [1, 2, 3, 5, 16, 33, 65, 66, 1_000])
    def test_blocks_cover_the_grid_once_and_differ_by_at_most_one(self, block_size):
        plan, _, _ = self._two_t_plan()
        blocks = SBlockQueue.from_points(plan, block_size).outstanding()
        assert len(blocks) == -(-len(plan) // block_size)
        sizes = [block.n_points for block in blocks]
        assert max(sizes) <= block_size
        assert max(sizes) - min(sizes) <= 1
        dealt = [complex(s) for block in blocks for s in block.s_points]
        assert sorted(dealt, key=repr) == sorted(plan, key=repr)
        assert [block.index for block in blocks] == list(range(len(blocks)))
        for block in blocks:
            assert [complex(s) for s in block.s_points] == plan[block.index::len(blocks)]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_every_worker_block_holds_points_of_both_t(self, workers):
        plan, first, second = self._two_t_plan()
        blocks = SBlockQueue.from_points(plan, -(-len(plan) // workers)).outstanding()
        assert len(blocks) == workers
        for block in blocks:
            points = {complex(s) for s in block.s_points}
            assert points & first and points & second
            # an even share: within one point of the t's count over the blocks
            assert abs(len(points & first) - len(first) / workers) <= 1

    def test_empty_grid_has_no_blocks(self):
        assert SBlockQueue.from_points([], 4).n_pending == 0


class TestCrashRecovery:
    def test_killed_worker_is_retried(self, big_job, tmp_path, monkeypatch):
        state = tmp_path / "faults"
        monkeypatch.setenv(
            "REPRO_FAULTS", f"state={state};worker.solve=crash:limit=1,block=1"
        )
        backend = MultiprocessingBackend(processes=2, block_size=4)
        try:
            values = backend.evaluate(big_job, S_GRID)
        finally:
            backend.close()
        assert list(state.glob("rule*.fire*"))  # the crash really happened
        assert backend.last_retry_stats["retries"]
        serial = SerialBackend().evaluate(big_job, S_GRID)
        for s, v in serial.items():
            assert values[s] == pytest.approx(v, abs=1e-12)

    def test_retries_exhausted_raises(self, big_job, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.solve=crash:block=0")
        backend = MultiprocessingBackend(processes=1, block_size=8, max_retries=0)
        try:
            with pytest.raises(Exception, match="1 time"):
                backend.evaluate(big_job, S_GRID)
        finally:
            backend.close()

    def test_resume_from_per_block_checkpoint(self, big_job, tmp_path, monkeypatch):
        """A run that dies mid-grid leaves its finished blocks on disk; the
        next run computes only the remainder."""
        store = CheckpointStore(tmp_path / "ckpt")
        t_grid = [0.5, 1.0, 2.0]

        # Probe how many deduplicated s-points the grid actually dispatches.
        probe = LoopRun(big_job)
        reference = probe.density(t_grid)
        required = probe.stats.s_points_computed
        n_blocks = -(-required // 4)
        assert n_blocks > 1

        # One worker, four-point blocks, crash on the last block: every
        # earlier block completes (and is merged to disk) first.
        monkeypatch.setenv(
            "REPRO_FAULTS", f"worker.solve=crash:block={n_blocks - 1}"
        )
        backend = MultiprocessingBackend(processes=1, block_size=4, max_retries=0)
        with pytest.raises(Exception):
            LoopRun(big_job, backend=backend, checkpoint=store).density(t_grid)
        backend.close()
        checkpointed = len(store.load(big_job.digest()))
        assert 0 < checkpointed < required

        monkeypatch.delenv("REPRO_FAULTS")
        backend = MultiprocessingBackend(processes=1, block_size=4)
        resumed = LoopRun(big_job, backend=backend, checkpoint=store)
        density = resumed.density(t_grid)
        backend.close()
        assert resumed.stats.s_points_from_disk == checkpointed
        assert resumed.stats.s_points_computed == required - checkpointed
        np.testing.assert_allclose(density, reference, rtol=0.0, atol=1e-10)


class TestWorkerStats:
    def test_backend_reports_per_worker_counters(self, big_job):
        backend = MultiprocessingBackend(processes=2, block_size=4)
        try:
            backend.evaluate(big_job, S_GRID)
            stats = backend.last_worker_stats
            assert stats
            assert sum(e["points"] for e in stats.values()) == len(S_GRID)
            assert all(e["busy_seconds"] >= 0 for e in stats.values())
            report = big_job.last_report
            assert report["workers"] == stats
            assert report["engine"] in ("batch", "factored")
        finally:
            backend.close()

    def test_pipeline_surfaces_worker_stats(self, big_job):
        backend = MultiprocessingBackend(processes=2, block_size=4)
        run = LoopRun(big_job, backend=backend)
        try:
            run.density([0.5, 1.0])
        finally:
            backend.close()
        summary = run.stats.as_dict()
        assert sum(e["points"] for e in summary["workers"].values()) == 66
        assert summary["workers"] == backend.last_worker_stats

    def test_plane_digest_agrees_with_checkpoint_keying(self, big_job):
        # The plane stamps the kernel digest, so a worker-built job checkpoints
        # under the same key as the master's.
        assert JobSpec.from_job(big_job).kernel_digest == kernel_content_digest(
            big_job.kernel
        )
