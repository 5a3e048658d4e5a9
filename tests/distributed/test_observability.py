"""Telemetry across the process pool: spans and metrics ride the result path.

Worker-side spans and metric deltas ship back to the master inside each
block result, and the global per-worker counters are fed exactly once per
*completed* block by the dispatching backend.  The crash tests pin the
invariant that matters: killing a worker (and rebuilding the pool) must
neither lose nor double-count telemetry, because a block that never
returned never fed the counters.
"""
from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.jobs import PassageTimeJob, TransientJob
from repro.distributed import MultiprocessingBackend
from repro.obs import get_metrics, get_tracer, worker_stats_snapshot
from repro.smp import source_weights
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


@pytest.fixture
def fresh_registry():
    """Run against a clean process-global registry, restoring state after."""
    registry = get_metrics()
    saved = registry.snapshot()
    registry.reset()
    try:
        yield registry
    finally:
        registry.reset()
        registry.absorb(saved)


class TestWorkerStatsMerging:
    def test_registry_matches_per_run_queue_view(self, big_job, fresh_registry):
        backend = MultiprocessingBackend(processes=2, block_size=4)
        try:
            backend.evaluate(big_job, S_GRID)
        finally:
            backend.close()
        snap = worker_stats_snapshot()
        assert snap == backend.last_worker_stats
        assert sum(e["points"] for e in snap.values()) == len(S_GRID)

    def test_pool_rebuild_neither_loses_nor_double_counts(
        self, big_job, tmp_path, monkeypatch, fresh_registry
    ):
        """Kill one worker mid-run: the crashed block's first attempt never
        completed, so only its retry lands in the counters — totals must come
        out exact across the pool rebuild."""
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
        assert len(values) == len(S_GRID)

        snap = worker_stats_snapshot()
        assert sum(e["points"] for e in snap.values()) == len(S_GRID)
        assert all(e["busy_seconds"] > 0 for e in snap.values())
        # the per-run queue view and the registry view agree after the rebuild
        assert snap == backend.last_worker_stats

    def test_points_evaluated_counter_reconciles(self, big_job, fresh_registry):
        """Worker-side solve metrics are absorbed into the master registry:
        the points_evaluated counter equals the s-grid size exactly — for a
        transient measure too, whose block solves one vector per target but
        is still one block of len(block) points."""
        transient_job = TransientJob(
            kernel=big_job.kernel, alpha=big_job.alpha, targets=[3, 4, 5, 6, 7]
        )
        points = n_blocks = 0
        for job in (big_job, transient_job):
            backend = MultiprocessingBackend(processes=2, block_size=4)
            try:
                backend.evaluate(job, S_GRID)
            finally:
                backend.close()
            points += len(S_GRID)
            run_blocks = sum(e["blocks"] for e in backend.last_worker_stats.values())
            assert len(job.last_report["blocks"]) == run_blocks
            n_blocks += run_blocks
            counter = fresh_registry.get("repro_points_evaluated_total")
            assert counter is not None
            assert counter.value() == points
            blocks = fresh_registry.get("repro_block_seconds")
            assert blocks.snapshot_of()["count"] == n_blocks
            per_point = fresh_registry.get("repro_iterations_per_s_point")
            assert per_point.snapshot_of()["count"] == points
            by_engine = fresh_registry.get("repro_solve_blocks_total")
            assert by_engine.value(engine=job.last_report["engine"]) == n_blocks
        # the wasted-work ratio survives the trip from the workers: rows the
        # products advanced, as the blocks reported them, against iterations
        engine = big_job.last_report["engine"]
        assert transient_job.last_report["engine"] == engine
        rows = fresh_registry.get("repro_product_rows_total").value(engine=engine)
        reported = [
            block for job in (big_job, transient_job) for block in job.last_report["blocks"]
        ]
        assert rows == sum(block["product_rows"] for block in reported)
        passage_blocks = big_job.last_report["blocks"]
        assert all(b["product_rows"] >= b["iterations"] > 0 for b in passage_blocks)


class TestWorkerSpanCapture:
    def test_worker_spans_are_absorbed_with_worker_pids(self, big_job):
        tracer = get_tracer()
        tracer.enable()
        tracer.clear()
        backend = MultiprocessingBackend(processes=2, block_size=4)
        try:
            backend.evaluate(big_job, S_GRID)
            spans = tracer.spans()
        finally:
            backend.close()
            tracer.disable()
            tracer.clear()

        sblocks = [r for r in spans if r["name"] == "s-block"]
        n_blocks = sum(e["blocks"] for e in backend.last_worker_stats.values())
        assert len(sblocks) == n_blocks >= 2
        worker_pids = {r["pid"] for r in sblocks}
        assert os.getpid() not in worker_pids  # recorded inside the workers
        # the inner solver span nests under the worker-level block span
        solves = [r for r in spans if r["name"] == "s-block-solve"]
        assert solves
        ids = {r["id"]: r for r in spans}
        assert all(ids[r["parent"]]["name"] == "s-block" for r in solves)
        # ... and splits into the block's own layers: LST fill (the per-edge
        # grid; the factored engine has none) / route / product
        for solve in solves:
            layers = sorted(r["name"] for r in spans if r["parent"] == solve["id"])
            factored = solve["attributes"]["engine"] == "factored"
            assert layers == (["drive", "route"] if factored else ["drive", "lst-fill", "route"])
        # the master recorded the plane export around pool start
        exports = [r for r in spans if r["name"] == "plane-export"]
        assert exports and exports[0]["pid"] == os.getpid()

    def test_disabled_tracer_ships_nothing(self, big_job):
        tracer = get_tracer()
        assert not tracer.enabled
        tracer.clear()
        backend = MultiprocessingBackend(processes=2, block_size=8)
        try:
            backend.evaluate(big_job, S_GRID[:8])
        finally:
            backend.close()
            tracer.clear()
        assert tracer.spans() == []
