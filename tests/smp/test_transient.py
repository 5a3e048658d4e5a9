"""Tests for transient state distributions (Pyke's relations, Eqs. 6-7).

The subject is the shipped ``transient_transform_batch`` — a whole Euler grid
per inversion, as every surface runs it.
"""
from __future__ import annotations

import numpy as np
import pytest

from scipy import sparse
from scipy.sparse import linalg as splinalg

from repro.distributions import Exponential
from repro.laplace import EulerInverter
from repro.smp import (
    PassageTimeOptions,
    SMPBuilder,
    SPointPolicy,
    smp_steady_state,
    source_weights,
    transient_transform_batch,
)
from tests import reference
from tests.smp.conftest import ITERATIVE_ONLY, random_kernel, voting_measure

#: the default truncation tolerance, which the transient must meet against LU
EPSILON = PassageTimeOptions().epsilon


def invert_transient(kernel, sources, targets, t_points, solver="iterative"):
    alpha = source_weights(kernel, sources)
    inv = EulerInverter()

    def transform(s_values):
        return transient_transform_batch(kernel, alpha, targets, s_values, solver=solver)[0]

    return inv.invert(transform, t_points)


class TestTwoStateCTMC:
    """P(Z(t)=down | up) = a/(a+b) (1 - e^{-(a+b)t}) for rates a=2, b=3."""

    def test_occupancy_of_other_state(self, ctmc_kernel):
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        expected = 0.4 * (1.0 - np.exp(-5.0 * t))
        recovered = invert_transient(ctmc_kernel, [0], [1], t)
        assert np.max(np.abs(recovered - expected)) < 1e-6

    def test_occupancy_of_own_state(self, ctmc_kernel):
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        expected = 0.6 + 0.4 * np.exp(-5.0 * t)
        recovered = invert_transient(ctmc_kernel, [0], [0], t)
        assert np.max(np.abs(recovered - expected)) < 1e-6

    def test_direct_solver_agrees(self, ctmc_kernel):
        t = np.array([0.1, 0.6, 1.5])
        a = invert_transient(ctmc_kernel, [0], [1], t, solver="iterative")
        b = invert_transient(ctmc_kernel, [0], [1], t, solver="direct")
        assert np.allclose(a, b, atol=1e-8)

    def test_complement_sums_to_one(self, ctmc_kernel):
        t = np.array([0.1, 0.7, 1.8])
        p_up = invert_transient(ctmc_kernel, [0], [0], t)
        p_down = invert_transient(ctmc_kernel, [0], [1], t)
        assert np.allclose(p_up + p_down, 1.0, atol=1e-6)


class TestThreeStateCTMC:
    """Cross-check against the matrix exponential of the CTMC generator."""

    @pytest.fixture
    def chain(self):
        b = SMPBuilder()
        rates = {(0, 1): 2.0, (0, 2): 1.0, (1, 0): 1.5, (1, 2): 0.5, (2, 0): 1.0, (2, 1): 3.0}
        total = {i: sum(r for (a, _), r in rates.items() if a == i) for i in range(3)}
        for (i, j), r in rates.items():
            b.add_transition(i, j, r / total[i], Exponential(total[i]))
        generator = np.zeros((3, 3))
        for (i, j), r in rates.items():
            generator[i, j] = r
        np.fill_diagonal(generator, -generator.sum(axis=1))
        return b.build(), generator

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_against_matrix_exponential(self, chain, target):
        from scipy.linalg import expm

        kernel, Q = chain
        t_points = np.array([0.1, 0.4, 1.0, 2.5])
        expected = np.array([expm(Q * t)[0, target] for t in t_points])
        recovered = invert_transient(kernel, [0], [target], t_points)
        assert np.max(np.abs(recovered - expected)) < 1e-6

    def test_target_set_additivity(self, chain):
        kernel, Q = chain
        t_points = np.array([0.2, 0.8, 2.0])
        combined = invert_transient(kernel, [0], [1, 2], t_points)
        separate = invert_transient(kernel, [0], [1], t_points) + invert_transient(
            kernel, [0], [2], t_points
        )
        assert np.allclose(combined, separate, atol=1e-6)

    def test_multiple_sources_weighting(self, chain):
        kernel, _ = chain
        t_points = np.array([0.3, 1.2])
        alpha = source_weights(kernel, [0, 1])
        combined = invert_transient(kernel, [0, 1], [2], t_points)
        separate = alpha[0] * invert_transient(kernel, [0], [2], t_points) + alpha[
            1
        ] * invert_transient(kernel, [1], [2], t_points)
        assert np.allclose(combined, separate, atol=1e-6)


class TestLongRunBehaviour:
    def test_transient_tends_to_steady_state(self, branching_kernel):
        pi = smp_steady_state(branching_kernel)
        targets = [3, 4]
        limit = pi[targets].sum()
        value = invert_transient(branching_kernel, [0], targets, np.array([200.0]))[0]
        assert value == pytest.approx(limit, abs=5e-4)

    def test_short_time_probability_near_indicator(self, branching_kernel):
        """At t ~ 0+ the chain is still in its initial state."""
        in_target = invert_transient(branching_kernel, [0], [0], np.array([1e-3]))[0]
        out_target = invert_transient(branching_kernel, [0], [4], np.array([1e-3]))[0]
        assert in_target == pytest.approx(1.0, abs=1e-3)
        assert out_target == pytest.approx(0.0, abs=1e-3)


class TestValidation:
    def test_sojourn_lsts_match_row_sums(self, branching_kernel):
        s = 0.9 + 2.2j
        (h,) = branching_kernel.evaluator().sojourn_lst_batch([s])
        U = reference.u_matrix(branching_kernel, s).toarray()
        assert np.allclose(h, U.sum(axis=1))

    def test_zero_s_rejected(self, ctmc_kernel):
        alpha = source_weights(ctmc_kernel, [0])
        with pytest.raises(ValueError):
            transient_transform_batch(ctmc_kernel, alpha, [1], [0.0])

    def test_bad_solver_rejected(self, ctmc_kernel):
        alpha = source_weights(ctmc_kernel, [0])
        with pytest.raises(ValueError):
            transient_transform_batch(ctmc_kernel, alpha, [1], [1.0], solver="guess")

    def test_bad_targets_rejected(self, ctmc_kernel):
        alpha = source_weights(ctmc_kernel, [0])
        with pytest.raises(ValueError):
            transient_transform_batch(ctmc_kernel, alpha, [9], [1.0])


def lu_transient(kernel, alpha, targets, s_values) -> np.ndarray:
    """``alpha (I - U(s))^-1 w(s)`` by a from-scratch sparse solve per point,
    ``w = (1 - h*(s)) / s`` on the targets: the renewal sum's exact value."""
    n = kernel.n_states
    identity = sparse.identity(n, dtype=complex, format="csc")
    out = []
    for s in np.asarray(s_values, dtype=complex):
        u = reference.u_matrix(kernel, complex(s))
        x = splinalg.spsolve((identity - u).T.tocsc(), np.asarray(alpha, dtype=complex))
        w = (1.0 - reference.sojourn_lsts(kernel, complex(s))[targets]) / s
        out.append(x[targets] @ w)
    return np.asarray(out)


def euler_grid(t_points) -> np.ndarray:
    return np.asarray(EulerInverter().required_s_points(np.asarray(t_points, dtype=float)))


class TestAccuracyAgainstLU:
    """The iterative transient is within the truncation tolerance of the exact
    solve, point by point, at the default epsilon (the per-target column
    solves it replaced missed by 1.6e-8 on voting (8,3,2) and by 8.7e-8 on
    system 0)."""

    @pytest.mark.parametrize(
        "parameters,t_points",
        [((8, 3, 2), (2.0, 5.0, 10.0, 20.0)), ((18, 6, 3), (15.0, 27.0, 40.0))],
        ids=["voting832", "system0"],
    )
    def test_voting_models_on_the_benchmark_grids(self, parameters, t_points):
        kernel, alpha, targets = voting_measure(*parameters)
        grid = euler_grid(t_points)
        values, diags = transient_transform_batch(kernel, alpha, targets, grid)
        assert np.abs(values - lu_transient(kernel, alpha, targets, grid)).max() <= EPSILON
        assert all(d.solver == "iterative" and d.converged for d in diags)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_kernels_against_pykes_relations(self, seed):
        """Against the target-by-target LU assembly of Eq. (7), so the renewal
        form is also checked to equal Pyke's relations."""
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, int(rng.integers(4, 14)))
        n = kernel.n_states
        alpha = source_weights(kernel, sorted({0, n // 3}))
        targets = sorted({n - 1, int(rng.integers(0, n))})
        grid = euler_grid([0.5, 4.0])
        values, _ = transient_transform_batch(kernel, alpha, targets, grid, policy=ITERATIVE_ONLY)
        exact = [
            reference.transient_transform(kernel, alpha, targets, s, solver="direct") for s in grid
        ]
        assert np.abs(values - exact).max() <= EPSILON

    def test_a_source_inside_the_target_set(self):
        kernel, _, targets = voting_measure(8, 3, 2)
        alpha = np.zeros(kernel.n_states)
        alpha[[0, targets[1]]] = 0.5
        grid = euler_grid([2.0, 10.0])
        values, _ = transient_transform_batch(kernel, alpha, targets, grid)
        assert np.abs(values - lu_transient(kernel, alpha, targets, grid)).max() <= EPSILON
        # at t -> 0 the process sits where it started: T*(s) ~ P(Z(0) in j) / s
        far = np.asarray([2000.0 + 0j])
        (value,), _ = transient_transform_batch(kernel, alpha, targets, far)
        assert abs(value * far[0] - 0.5) < 1e-2

    def test_a_multi_source_alpha(self):
        kernel, alpha, targets = voting_measure(8, 3, 2)
        assert np.count_nonzero(alpha) > 1
        weights = np.zeros(kernel.n_states)
        weights[np.flatnonzero(alpha)[[0, -1]]] = (0.3, 0.7)
        weights[kernel.n_states // 2] = 0.0
        grid = euler_grid([5.0])
        values, _ = transient_transform_batch(kernel, weights, targets, grid)
        assert np.abs(values - lu_transient(kernel, weights, targets, grid)).max() <= EPSILON
        # linear in alpha, point by point
        singles = []
        for state, weight in zip(np.flatnonzero(weights), (0.3, 0.7)):
            unit = np.zeros(kernel.n_states)
            unit[state] = 1.0
            singles.append(weight * transient_transform_batch(kernel, unit, targets, grid)[0])
        assert np.abs(values - sum(singles)).max() <= EPSILON

    def test_the_factored_engine_matches_batch(self):
        kernel, alpha, targets = voting_measure(8, 3, 2)
        grid = euler_grid([2.0, 5.0, 10.0, 20.0])
        runs = {
            engine: transient_transform_batch(
                kernel, alpha, targets, grid, policy=SPointPolicy(engine=engine)
            )
            for engine in ("batch", "factored")
        }
        (batch, batch_diags), (factored, factored_diags) = runs["batch"], runs["factored"]
        assert np.abs(factored - batch).max() <= 1e-10
        assert [d.iterations for d in factored_diags] == [d.iterations for d in batch_diags]
        assert {d.engine for d in factored_diags} == {"factored"}


class TestDiagnostics:
    """Each point reports its own solve, exactly as a passage point does."""

    def test_an_iterated_point_reports_its_own_values(self):
        kernel, alpha, targets = voting_measure(8, 3, 2)
        grid = euler_grid([2.0, 20.0])
        report: dict = {}
        _, diags = transient_transform_batch(kernel, alpha, targets, grid, report=report)
        for d in diags:
            assert d.solver == "iterative" and d.converged and d.direct_solves == 0
            assert d.matvec_count == d.iterations + 1
            assert 0.0 < d.final_delta < EPSILON
        assert len({d.iterations for d in diags}) > 1
        assert sum(b["iterations"] for b in report["blocks"]) == sum(d.iterations for d in diags)

    def test_a_direct_point_takes_one_lu(self):
        kernel, alpha, targets = voting_measure(8, 3, 2)
        assert len(targets) > 1
        grid = euler_grid([5.0])[:4]
        _, diags = transient_transform_batch(kernel, alpha, targets, grid, solver="direct")
        assert [(d.solver, d.direct_solves, d.iterations, d.matvec_count) for d in diags] == [
            ("direct", 1, 0, 0)
        ] * grid.size
        assert {d.engine for d in diags} == {"direct-lu"}
        # a routed point and a cap-hitting point re-solved directly: one LU each
        routed, diags = transient_transform_batch(
            kernel, alpha, targets, np.concatenate((grid[:1] * 1e-5, grid[1:])),
            PassageTimeOptions(max_iterations=5),
        )
        assert [(d.solver, d.direct_solves) for d in diags] == [("direct", 1)] + [
            ("direct-fallback", 1)
        ] * (grid.size - 1)
        assert all(d.matvec_count == 6 for d in diags[1:])
