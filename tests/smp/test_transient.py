"""Tests for transient state distributions (Pyke's relations, Eqs. 6-7).

The subject is the shipped ``transient_transform_batch`` — a whole Euler grid
per inversion, as every surface runs it.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.laplace import EulerInverter
from repro.smp import (
    SMPBuilder,
    smp_steady_state,
    source_weights,
    transient_transform_batch,
)
from tests import reference


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
