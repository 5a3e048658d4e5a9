"""Tests for the high-level PassageTimeSolver / TransientSolver API."""
from __future__ import annotations

import numpy as np
import pytest

from repro.api import QueryPlan
from repro.core import PassageTimeJob, PassageTimeSolver, TransientJob, TransientSolver
from repro.distributions import Convolution, Erlang, Exponential, Uniform
from repro.smp import PassageTimeOptions, SMPBuilder
from tests import reference


@pytest.fixture
def erlang_target():
    """Two-state kernel whose 0 -> 1 passage time is exactly Erlang(2, 3)."""
    b = SMPBuilder()
    b.add_transition(0, 1, 1.0, Erlang(2.0, 3))
    b.add_transition(1, 0, 1.0, Uniform(1.0, 2.0))
    return b.build(), Erlang(2.0, 3)


class TestPassageTimeSolver:
    def test_density_and_cdf_match_closed_form(self, erlang_target, t_grid):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        assert np.max(np.abs(solver.density(t_grid) - dist.pdf(t_grid))) < 1e-6
        assert np.max(np.abs(solver.cdf(t_grid) - dist.cdf(t_grid))) < 1e-6

    def test_solve_packages_everything(self, erlang_target, t_grid):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        result = solver.solve(t_grid)
        assert np.allclose(result.density, dist.pdf(t_grid), atol=1e-6)
        assert np.allclose(result.cdf, dist.cdf(t_grid), atol=1e-6)
        assert result.method == "euler"
        assert result.statistics["s_points_computed"] == 33 * len(t_grid)
        assert result.statistics["evaluation_seconds"] > 0
        assert result.statistics["solver"] == "iterative"
        # Quantile interpolation from the packaged CDF (grid-resolution accuracy).
        q = result.quantile(0.5)
        assert dist.cdf(q) == pytest.approx(0.5, abs=0.05)

    def test_quantile_root_find(self, erlang_target):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        q90 = solver.quantile(0.9, 0.05, 12.0)
        assert dist.cdf(q90) == pytest.approx(0.9, abs=1e-5)
        with pytest.raises(ValueError):
            solver.quantile(1.5, 0.1, 10.0)
        with pytest.raises(ValueError):
            solver.quantile(0.9, 5.0, 1.0)
        with pytest.raises(ValueError):
            solver.quantile(0.999999, 0.1, 0.2)  # not bracketed

    def test_mean_and_moments(self, erlang_target):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        assert solver.mean() == pytest.approx(dist.mean(), rel=1e-12)
        moments = solver.moments(2)
        assert moments[0] == 1.0
        assert moments[2] == pytest.approx(dist.variance() + dist.mean() ** 2, rel=1e-12)

    def test_direct_method_matches_iterative(self, erlang_target, t_grid):
        kernel, _ = erlang_target
        it = PassageTimeSolver(kernel, sources=[0], targets=[1], method="iterative")
        di = PassageTimeSolver(kernel, sources=[0], targets=[1], method="direct")
        assert np.allclose(it.density(t_grid), di.density(t_grid), atol=1e-8)

    def test_laguerre_inversion_option(self, erlang_target, t_grid):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1], inversion="laguerre")
        assert np.max(np.abs(solver.density(t_grid) - dist.pdf(t_grid))) < 1e-5

    def test_cycle_time_through_source_in_targets(self):
        b = SMPBuilder()
        b.add_transition(0, 1, 1.0, Exponential(2.0))
        b.add_transition(1, 0, 1.0, Exponential(3.0))
        kernel = b.build()
        cycle = Convolution([Exponential(2.0), Exponential(3.0)])
        solver = PassageTimeSolver(kernel, sources=[0], targets=[0])
        ts = np.array([0.3, 0.8, 1.5, 3.0])
        recovered = solver.density(ts)
        expected = (
            6.0 * (np.exp(-2.0 * ts) - np.exp(-3.0 * ts))
        )  # closed-form hypoexponential density
        assert np.allclose(recovered, expected, atol=1e-6)
        assert solver.mean() == pytest.approx(cycle.mean(), rel=1e-12)

    def test_transform_cache_reused(self, erlang_target, t_grid):
        kernel, _ = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        solver.density(t_grid)
        computed = solver.statistics.s_points_computed
        assert computed == 33 * len(t_grid)
        solver.cdf(t_grid)  # same s-points: no new evaluations
        assert solver.statistics.s_points_computed == computed
        assert solver.statistics.s_points_from_memory == computed

    def test_multiple_sources_alpha_weighting(self, branching_kernel):
        t = np.array([0.5, 1.0, 2.0])
        combined = PassageTimeSolver(branching_kernel, sources=[0, 1], targets=[4]).density(t)
        from repro.smp import source_weights

        alpha = source_weights(branching_kernel, [0, 1])
        separate = (
            alpha[0] * PassageTimeSolver(branching_kernel, sources=[0], targets=[4]).density(t)
            + alpha[1] * PassageTimeSolver(branching_kernel, sources=[1], targets=[4]).density(t)
        )
        assert np.allclose(combined, separate, atol=1e-7)

    def test_invalid_inputs(self, erlang_target):
        kernel, _ = erlang_target
        with pytest.raises(TypeError):
            PassageTimeSolver("not a kernel", sources=[0], targets=[1])
        with pytest.raises(ValueError):
            PassageTimeSolver(kernel, sources=[0], targets=[1], alpha=np.ones(5))
        with pytest.raises(ValueError):
            PassageTimeSolver(kernel, sources=[0], targets=[1], method="nonsense")


class TestSinglePoint:
    """``transform(s)`` is a block of one through the solver's own loop: the
    job's policy routes it, the solver's store keeps it, its statistics
    count it."""

    def test_a_point_of_a_computed_density_comes_from_the_store(self, erlang_target, t_grid):
        kernel, _ = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        solver.density(t_grid)
        plan = QueryPlan.derive(solver.inverter, t_grid)
        stored = solver._scheduler.cache.peek(solver.job.digest(), plan.s_keys)
        computed = solver.statistics.s_points_computed
        from_memory = solver.statistics.s_points_from_memory
        value = solver.transform(plan.s_points[7])
        assert value == stored[plan.s_keys[7]]  # the stored complex, bit for bit
        assert solver.statistics.s_points_computed == computed
        assert solver.statistics.s_points_from_memory == from_memory + 1

    def test_a_fresh_small_s_point_is_routed_like_a_grid_point(self, branching_kernel):
        """At ``|s| ~ 1e-3`` the policy sends the point to the LU solve; the
        scalar path ``transform`` used to take iterated it to the truncation
        threshold instead and stopped 1e-8 short on this kernel (1.5e-9 on
        the paper's system 0)."""
        solver = PassageTimeSolver(branching_kernel, sources=[0], targets=[4])
        s = 1e-3 + 1e-3j
        value = solver.transform(s)
        assert value == solver.job.evaluate_many([s])[s]
        assert solver.statistics.s_points_computed == 1
        assert solver.statistics.extra["solve_blocks"][-1]["direct_solves"] == 1
        exact = solver.alpha @ reference.passage_transform_direct(branching_kernel, [4], s)
        truncated, _ = reference.passage_transform(branching_kernel, solver.alpha, [4], s)
        assert abs(value - exact) < 1e-12 < 1e-9 < abs(truncated - exact)
        assert solver.transform(s) == value and solver.statistics.s_points_computed == 1

    def test_the_origin(self, ctmc_kernel):
        """L(0) = 1: the target is reached almost surely; T*(s) has a pole."""
        assert PassageTimeSolver(ctmc_kernel, sources=[0], targets=[1]).transform(0) == 1.0
        with pytest.raises(ValueError, match="pole"):
            TransientSolver(ctmc_kernel, sources=[0], targets=[1]).transform(0)


class TestTransientSolver:
    def test_two_state_ctmc_occupancy(self, ctmc_kernel):
        solver = TransientSolver(ctmc_kernel, sources=[0], targets=[1])
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        expected = 0.4 * (1.0 - np.exp(-5.0 * t))
        assert np.max(np.abs(solver.probability(t) - expected)) < 1e-6
        assert solver.steady_state() == pytest.approx(0.4)

    def test_solve_reports_convergence_gap(self, ctmc_kernel):
        solver = TransientSolver(ctmc_kernel, sources=[0], targets=[1])
        result = solver.solve(np.array([0.1, 0.5, 1.0, 3.0]))
        assert result.steady_state == pytest.approx(0.4)
        assert result.convergence_gap() < 1e-4
        table = result.as_table()
        assert len(table) == 4 and table[0][0] == pytest.approx(0.1)

    def test_jobs_expose_kind_and_digest(self, ctmc_kernel):
        p = PassageTimeSolver(ctmc_kernel, sources=[0], targets=[1]).job
        t = TransientSolver(ctmc_kernel, sources=[0], targets=[1]).job
        assert isinstance(p, PassageTimeJob) and p.kind() == "passage"
        assert isinstance(t, TransientJob) and t.kind() == "transient"
        assert p.digest() != t.digest()
        # Digest depends on the targets.
        other = PassageTimeSolver(ctmc_kernel, sources=[0], targets=[0]).job
        assert other.digest() != p.digest()

    def test_job_pickles_without_evaluator(self, ctmc_kernel):
        import pickle

        job = PassageTimeSolver(ctmc_kernel, sources=[0], targets=[1]).job
        _ = job.evaluator  # force lazy construction
        clone = pickle.loads(pickle.dumps(job))
        s = 1.0 + 1j
        assert clone.evaluate_many([s])[s] == pytest.approx(job.evaluate_many([s])[s])

    def test_options_propagate(self, ctmc_kernel):
        opts = PassageTimeOptions(epsilon=1e-10, max_iterations=500)
        solver = TransientSolver(ctmc_kernel, sources=[0], targets=[1], options=opts)
        assert solver.job.options.epsilon == 1e-10
