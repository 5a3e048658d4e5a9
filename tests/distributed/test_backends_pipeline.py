"""Tests for the execution backends and the master pipeline (the one loop)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.api import QueryPlan
from repro.core import PassageTimeSolver
from repro.core.jobs import PassageTimeJob, TransientJob
from repro.distributions import Erlang
from repro.distributed import CheckpointStore, MultiprocessingBackend, SerialBackend
from repro.smp import source_weights
from tests.oneloop import LoopRun
from tests.reference import passage_transform


@pytest.fixture
def erlang_job(two_state_kernel):
    return PassageTimeJob(
        kernel=two_state_kernel,
        alpha=source_weights(two_state_kernel, [0]),
        targets=[1],
    )


def test_zero_only_batch_resets_last_report(erlang_job):
    """A grid of ``s = 0`` points solves nothing, and its report says so
    instead of repeating the previous call's blocks."""
    erlang_job.evaluate_batch([0.5 + 1j, 2.0 + 0j])
    engine = erlang_job.last_report["engine"]
    assert erlang_job.last_report["blocks"]
    values = erlang_job.evaluate_batch([0j, 0j])
    assert values.tolist() == [1.0, 1.0]
    assert erlang_job.last_report == {"engine": engine, "blocks": []}


class TestSerialBackend:
    def test_matches_direct_evaluation(self, erlang_job):
        backend = SerialBackend()
        s_points = [0.5 + 1j, 2.0 + 0j]
        values = backend.evaluate(erlang_job, s_points)
        for s in s_points:
            oracle, _ = passage_transform(
                erlang_job.kernel, erlang_job.alpha, erlang_job.targets, s
            )
            assert values[s] == pytest.approx(oracle)

    def test_blocks_land_in_order_through_on_block(self, erlang_job):
        """``block_points`` sizes the blocks, dealt round-robin as the pool's
        are; ``on_block`` sees each one once, in block order, and the call's
        report covers them all."""
        s_points = [complex(0.5 + k, 1.0 + k) for k in range(7)]
        blocks = []
        values = SerialBackend().evaluate(
            erlang_job, s_points, block_points=3, on_block=blocks.append
        )
        assert [list(block) for block in blocks] == [
            s_points[0::3], s_points[1::3], s_points[2::3]
        ]
        assert values == {s: v for block in blocks for s, v in block.items()}
        assert values == SerialBackend().evaluate(erlang_job, s_points)
        report = erlang_job.last_report
        assert sum(b["points"] for b in report["blocks"]) == len(s_points)

    def test_on_block_exception_stops_before_the_next_block(self, erlang_job):
        solved = []

        def stop_after_first(block):
            solved.append(block)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SerialBackend().evaluate(
                erlang_job, [1 + 1j, 2 + 2j, 3 + 3j], block_points=1,
                on_block=stop_after_first,
            )
        assert len(solved) == 1


class TestMultiprocessingBackend:
    def test_matches_serial(self, erlang_job):
        serial = SerialBackend().evaluate(erlang_job, [0.4 + 1j, 1.5 + 2j])
        parallel = MultiprocessingBackend(processes=2).evaluate(
            erlang_job, [0.4 + 1j, 1.5 + 2j]
        )
        for s, v in serial.items():
            assert parallel[s] == pytest.approx(v)

    def test_every_block_reaches_on_block_exactly_once(self, erlang_job):
        s_points = [complex(0.5 + k, 1.0 + k) for k in range(7)]
        blocks = []
        backend = MultiprocessingBackend(processes=2)
        try:
            # one block per worker: ceil(7 / 2)
            assert backend.block_points(erlang_job, len(s_points)) == 4
            values = backend.evaluate(
                erlang_job, s_points, block_points=3, on_block=blocks.append
            )
        finally:
            backend.close()
        # three blocks dealt round-robin: sizes differ by at most one
        assert sorted(len(block) for block in blocks) == [2, 2, 3]
        assert {frozenset(block) for block in blocks} == {
            frozenset(s_points[k::3]) for k in range(3)
        }
        assert values == {s: v for block in blocks for s, v in block.items()}
        assert sum(e["blocks"] for e in backend.last_worker_stats.values()) == 3

    def test_empty_input(self, erlang_job):
        assert MultiprocessingBackend(processes=1).evaluate(erlang_job, []) == {}

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            MultiprocessingBackend(processes=0)
        with pytest.raises(ValueError):
            MultiprocessingBackend(block_size=0)


class TestDistributedPipeline:
    """The master's pipeline — the one evaluation loop over a result store
    and a backend — on raw jobs (the facade's view of it is pinned by
    ``tests/api/test_engine_parity.py``)."""

    def test_density_and_cdf_match_solver(self, two_state_kernel, erlang_job, t_grid):
        run = LoopRun(erlang_job)
        solver = PassageTimeSolver(two_state_kernel, sources=[0], targets=[1])
        assert np.array_equal(run.density(t_grid), solver.density(t_grid))
        assert np.array_equal(run.cdf(t_grid), solver.cdf(t_grid))

    def test_run_returns_result_object(self, two_state_kernel, t_grid):
        result = PassageTimeSolver(two_state_kernel, sources=[0], targets=[1]).solve(t_grid)
        erlang = Erlang(2.0, 3)
        assert np.allclose(result.density, erlang.pdf(t_grid), atol=1e-6)
        assert np.allclose(result.cdf, erlang.cdf(t_grid), atol=1e-6)
        assert result.statistics["s_points_computed"] == 33 * len(t_grid)
        assert len(result.transform_values) == 33 * len(t_grid)

    def test_checkpoint_resume_skips_computation(self, erlang_job, t_grid, tmp_path):
        store = CheckpointStore(tmp_path)
        LoopRun(erlang_job, checkpoint=store).density(t_grid)
        resumed = LoopRun(erlang_job, checkpoint=store)
        density = resumed.density(t_grid)
        assert resumed.stats.s_points_computed == 0
        assert resumed.stats.s_points_from_disk == 33 * len(t_grid)
        assert np.allclose(density, Erlang(2.0, 3).pdf(t_grid), atol=1e-6)

    def test_checkpoints_are_per_measure(self, two_state_kernel, erlang_job, tmp_path):
        store = CheckpointStore(tmp_path)
        LoopRun(erlang_job, checkpoint=store).density([1.0])
        other_job = PassageTimeJob(
            kernel=two_state_kernel,
            alpha=source_weights(two_state_kernel, [0]),
            targets=[0],
        )
        other = LoopRun(other_job, checkpoint=store)
        other.density([1.0])
        assert other.stats.s_points_computed > 0
        assert len(store.digests()) == 2

    def test_laguerre_conjugate_folding_halves_work(self, erlang_job):
        run = LoopRun(
            erlang_job, inversion="laguerre", inverter_options={"n_points": 64}
        )
        ts = [0.5, 1.0, 2.0]
        assert np.allclose(run.density(ts), Erlang(2.0, 3).pdf(ts), atol=1e-5)
        plan = QueryPlan.derive(run.inverter, ts)
        assert plan.conjugates_folded > 0
        assert run.stats.s_points_computed == plan.n_evaluations
        assert run.stats.s_points_computed <= plan.required_s_points.size // 2 + 1

    def test_transient_job_pipeline(self, ctmc_kernel):
        job = TransientJob(
            kernel=ctmc_kernel, alpha=source_weights(ctmc_kernel, [0]), targets=[1]
        )
        t_points = np.array([0.2, 0.8, 2.0])
        expected = 0.4 * (1.0 - np.exp(-5.0 * t_points))
        assert np.allclose(LoopRun(job).density(t_points), expected, atol=1e-6)

    def test_multiprocessing_pipeline_end_to_end(self, erlang_job):
        backend = MultiprocessingBackend(processes=2, block_size=8)
        run = LoopRun(erlang_job, backend=backend)
        ts = [0.5, 1.5]
        try:
            assert np.allclose(run.density(ts), Erlang(2.0, 3).pdf(ts), atol=1e-6)
        finally:
            backend.close()
        workers = run.stats.extra["workers"]
        assert sum(entry["points"] for entry in workers.values()) == 66
