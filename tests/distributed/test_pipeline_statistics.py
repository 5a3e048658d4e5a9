"""Statistics bookkeeping of the one evaluation loop.

One run over a 5-point t-grid needs exactly 165 s-points (33 per t-point
with the default Euler parameters).  The density and CDF measures share that
grid, so the 165 unique points are counted once — not once per measure — and
every point a run asked for is accounted to exactly one source: memory, disk,
another request's evaluation, or this run's own.
"""
from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Model
from repro.core.jobs import PassageTimeJob
from repro.distributed import CheckpointStore, SerialBackend
from repro.service.registry import ModelRegistry
from repro.smp import source_weights
from tests.api.conftest import ONOFF_SPEC
from tests.oneloop import LoopRun

T_GRID = np.array([0.5, 1.0, 1.5, 2.0, 3.0])  # 5 t-points -> 165 s-points


@pytest.fixture
def job(two_state_kernel):
    return PassageTimeJob(
        kernel=two_state_kernel,
        alpha=source_weights(two_state_kernel, [0]),
        targets=[1],
    )


def _counts(stats):
    return (
        stats.s_points_required,
        stats.s_points_computed,
        stats.s_points_from_memory + stats.s_points_from_disk,
    )


def test_run_counts_unique_required_points_once(job):
    run = LoopRun(job)
    run.density(T_GRID)
    assert _counts(run.stats) == (165, 165, 0)


def test_second_measure_adds_no_phantom_hits(job, two_state_kernel):
    """Density and CDF of one query are one gather: nothing is required,
    computed or served from a cache twice."""
    from repro.core import PassageTimeSolver

    result = PassageTimeSolver(two_state_kernel, sources=[0], targets=[1]).solve(T_GRID)
    stats = result.statistics
    assert (
        stats["s_points_required"], stats["s_points_computed"],
        stats["s_points_from_memory"], stats["s_points_from_disk"],
    ) == (165, 165, 0, 0)
    assert np.all(np.diff(result.cdf) >= -1e-9)
    assert np.all(result.density > -1e-9)


def test_new_t_points_extend_required_count(job):
    run = LoopRun(job)
    run.density(T_GRID)
    run.density(np.array([4.0]))  # 33 genuinely new points
    assert _counts(run.stats) == (165 + 33, 165 + 33, 0)


def test_failed_backend_run_is_retryable(job):
    """An executor failure must not poison the bookkeeping: a retry computes
    the missing points instead of waiting on, or tripping over, dead tickets."""

    class FlakyBackend(SerialBackend):
        calls = 0

        def evaluate(self, job, s_points, **dispatch):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("simulated worker crash")
            return super().evaluate(job, s_points, **dispatch)

    run = LoopRun(job, backend=FlakyBackend())
    with pytest.raises(RuntimeError, match="simulated worker crash"):
        run.density(T_GRID)
    assert run.stats.s_points_computed == 0
    density = run.density(T_GRID)
    assert np.all(np.isfinite(density))
    assert run.stats.s_points_computed == 165
    assert run.stats.s_points_from_memory + run.stats.s_points_from_disk == 0


def test_checkpoint_reuse_counts_as_true_cache_hits(job, tmp_path):
    store = CheckpointStore(tmp_path)
    LoopRun(job, checkpoint=store).density(T_GRID)
    resumed = LoopRun(job, checkpoint=store)
    resumed.density(T_GRID)
    assert _counts(resumed.stats) == (165, 0, 165)
    assert resumed.stats.s_points_from_disk == 165


# ---------------------------------------------------------------------------
# The same accounting, from every local engine, on random t-grids.
# ---------------------------------------------------------------------------

_MODEL = Model.from_spec(ONOFF_SPEC, registry=ModelRegistry())

t_grids = st.lists(
    st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=4, unique=True
)


def _partitions(statistics: dict) -> bool:
    return statistics["s_points_required"] == (
        statistics["s_points_from_memory"] + statistics["s_points_from_disk"]
        + statistics["s_points_coalesced"] + statistics["s_points_computed"]
    )


@pytest.mark.parametrize("engine,options,examples", [
    ("inline", {}, 15),
    ("multiprocessing", {"workers": 2}, 4),
    ("distributed", {}, 15),
])
def test_every_required_point_has_exactly_one_source(engine, options, examples):
    @settings(max_examples=examples, deadline=None)
    @given(t_grid=t_grids, inversion=st.sampled_from(["euler", "laguerre"]))
    def check(t_grid, inversion):
        query = (
            _MODEL.passage("on == 2", "on == 0")
            .density(t_grid).cdf().with_inversion(inversion)
        )
        scheduled = query.plan().n_evaluations
        with tempfile.TemporaryDirectory() as checkpoint:
            run_options = dict(options)
            if engine == "distributed":
                run_options["checkpoint"] = checkpoint
            first = query.run(engine, **run_options).statistics
            assert _partitions(first)
            # density + CDF: one gather, each scheduled point counted once
            assert first["s_points_required"] == scheduled
            assert first["s_points_computed"] == scheduled
            assert first["engine"] == engine
            if engine == "distributed":
                # a second run on the same checkpoint computes nothing
                second = query.run(engine, **run_options).statistics
                assert _partitions(second)
                assert second["s_points_computed"] == 0
                assert second["s_points_from_disk"] == scheduled

    check()
