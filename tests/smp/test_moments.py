"""Exact passage-time moments: ``repro.smp.passage_moments`` and the solver
methods that are it.

Closed forms to 1e-12, the LU and numerical-differentiation oracles and the
simulator on generated kernels, the LU oracle on voting passages (rare-event
ones included), the paper's system 0 pinned, the refusals, the failure of a
solve that misses its residual gate, and the span that carries its evidence.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PassageTimeSolver
from repro.distributions import (
    Erlang,
    Exponential,
    Mixture,
    Shifted,
    Uniform,
    sample_transform,
)
from repro.models import (
    SCALED_CONFIGURATIONS,
    VotingParameters,
    all_voted_predicate,
    build_voting_kernel,
    failure_mode_predicate,
    initial_marking_predicate,
)
from repro.obs import get_tracer
from repro.simulation import simulate_passage_times
from repro.smp import (
    SMPBuilder,
    passage_moments,
    passage_transform_direct_batch,
    source_weights,
)
from tests.reference import lst_moments, lu_passage_moments
from tests.smp.conftest import random_kernel, voting_measure

EXACT = dict(rel=1e-12, abs=0.0)


def kernel_of(*transitions):
    builder = SMPBuilder()
    for transition in transitions:
        builder.add_transition(*transition)
    return builder.build()


class TestClosedForms:
    def test_single_erlang_hop(self, two_state_kernel):
        moments = passage_moments(two_state_kernel, [1.0, 0.0], [1])
        # Erlang(2, 3): mean 3/2, variance 3/4
        assert moments[0] == 1.0
        assert moments[1:] == pytest.approx([1.5, 0.75 + 1.5**2], **EXACT)

    def test_erlang_plus_uniform_cycle(self, two_state_kernel):
        """A source inside the target set: the cycle time, no special case."""
        moments = passage_moments(two_state_kernel, [1.0, 0.0], [0])
        assert moments[1:] == pytest.approx([3.0, 59.0 / 6.0], **EXACT)

    def test_exponential_race(self):
        """0 -> {2} directly (0.4) or via 1 (0.6), every sojourn Exp(1): the
        mixture of Exp(1) and Erlang(1, 2) of ``test_passage.py``."""
        kernel = kernel_of(
            (0, 2, 0.4, Exponential(1.0)), (0, 1, 0.6, Exponential(1.0)),
            (1, 2, 1.0, Exponential(1.0)), (2, 0, 1.0, Exponential(1.0)),
        )
        moments = passage_moments(kernel, source_weights(kernel, [0]), [2])
        assert moments[1:] == pytest.approx([0.4 * 1 + 0.6 * 2, 0.4 * 2 + 0.6 * 6], **EXACT)

    def test_mixture_and_shifted_edges(self):
        mixture = Mixture([Uniform(0.5, 2.0), Erlang(1.0, 2)], [0.8, 0.2])
        kernel = kernel_of((0, 1, 1.0, mixture), (1, 0, 1.0, Shifted(Exponential(2.0), 0.25)))
        # raw moments by hand: Uniform(.5, 2) 1.25 / 1.75, Erlang(1, 2) 2 / 6,
        # Exp(2) shifted by .25: .75 / .8125
        mix_1, mix_2 = 0.8 * 1.25 + 0.2 * 2.0, 0.8 * 1.75 + 0.2 * 6.0
        assert passage_moments(kernel, [1.0, 0.0], [1])[1:] == pytest.approx(
            [mix_1, mix_2], **EXACT
        )
        assert passage_moments(kernel, [1.0, 0.0], [0])[1:] == pytest.approx(
            [mix_1 + 0.75, mix_2 + 0.8125 + 2 * mix_1 * 0.75], **EXACT
        )

    def test_the_solver_methods_are_the_function(self, branching_kernel):
        solver = PassageTimeSolver(branching_kernel, sources=[0, 1], targets=[3, 4])
        expected = passage_moments(branching_kernel, solver.alpha, [3, 4])
        assert np.array_equal(solver.moments(), expected)
        assert np.array_equal(solver.moments(1), expected[:2])
        assert np.array_equal(solver.moments(0), [1.0])
        assert solver.mean() == expected[1]
        # no transform was evaluated for any of it
        assert solver.statistics.s_points_required == 0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=14),
    n_sources=st.integers(min_value=1, max_value=3),
    n_targets=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_moments_match_the_differentiated_transform(seed, n, n_sources, n_targets):
    """Two oracles: the complete LU of the same real system, and the
    polynomial fit of ``tests.reference`` through the LU transform near
    ``s = 0`` — what ``moments()`` used to be."""
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, n)
    targets = rng.choice(n, size=n_targets, replace=False)
    alpha = source_weights(kernel, rng.choice(n, size=n_sources, replace=False))
    moments = passage_moments(kernel, alpha, targets)

    def transform(s_values):
        return passage_transform_direct_batch(kernel, targets, s_values) @ alpha

    assert moments == pytest.approx(lu_passage_moments(kernel, alpha, targets), rel=1e-10)
    fitted = lst_moments(transform, 2, scale=moments[1])
    assert moments[0] == 1.0
    assert moments[1] == pytest.approx(fitted[1], rel=1e-4)
    assert moments[2] == pytest.approx(fitted[2], rel=1e-3)
    assert moments[2] >= moments[1] ** 2


def _voting_passage(params, predicate):
    """``(kernel, alpha, targets)``: from the initial marking to ``predicate``."""
    kernel, graph = build_voting_kernel(params)
    alpha = source_weights(kernel, graph.states_where(initial_marking_predicate(params)))
    return kernel, alpha, graph.states_where(predicate(params))


class TestAgainstTheLUOracle:
    """The iterative real solve against the complete LU it replaced, on the
    voting model's passages.  The failure-mode passages are the rare-event
    regime (means 918 and 26,039 against voting passages of 20 and 29): a
    nearly singular ``A``, which is what an iterative solve could lose."""

    @pytest.mark.parametrize(
        "params, predicate",
        [
            (SCALED_CONFIGURATIONS["small"], failure_mode_predicate),
            (SCALED_CONFIGURATIONS["medium"], failure_mode_predicate),
            (VotingParameters(8, 3, 2), all_voted_predicate),
            (VotingParameters(18, 6, 3), all_voted_predicate),
            (VotingParameters(30, 8, 3), all_voted_predicate),
            (VotingParameters(40, 10, 3), all_voted_predicate),
        ],
        ids=["small-failure", "medium-failure", "8-3-2", "18-6-3", "30-8-3", "40-10-3"],
    )
    def test_moments_agree_to_1e_10(self, params, predicate):
        kernel, alpha, targets = _voting_passage(params, predicate)
        moments = passage_moments(kernel, alpha, targets)
        assert moments == pytest.approx(
            lu_passage_moments(kernel, alpha, targets), rel=1e-10, abs=0.0
        )

    def test_the_rare_event_means(self):
        small = _voting_passage(SCALED_CONFIGURATIONS["small"], failure_mode_predicate)
        medium = _voting_passage(SCALED_CONFIGURATIONS["medium"], failure_mode_predicate)
        assert small[0].n_states == 226 and medium[0].n_states == 1876
        assert passage_moments(*small, order=1)[1] == pytest.approx(918.164235, rel=1e-8)
        assert passage_moments(*medium, order=1)[1] == pytest.approx(26038.5694, rel=1e-8)


def test_mean_inside_the_simulators_interval(branching_kernel):
    samples = simulate_passage_times(branching_kernel, [0], [4], n_samples=4000, rng=11)
    half_width = 2.576 * samples.std(ddof=1) / np.sqrt(samples.size)  # 99 %
    mean = PassageTimeSolver(branching_kernel, sources=[0], targets=[4]).mean()
    assert abs(mean - samples.mean()) < half_width


class TestSystemZero:
    """Voting (18, 6, 3), all voters waiting -> all voted: 1,876 states, a
    heavy-tailed passage (mean 30.9, sigma 92.8) on which the fit this
    replaced was 5.7e-4 off in the second moment."""

    @pytest.fixture(scope="class")
    def measure(self):
        return voting_measure(18, 6, 3)

    def test_pinned(self, measure):
        kernel, alpha, targets = measure
        solver = PassageTimeSolver(kernel, sources=[0], targets=targets, alpha=alpha)
        assert solver.moments(2) == pytest.approx(
            [1.0, 30.87422569822, 9561.170799523], rel=1e-8
        )

    def test_agrees_with_richardson_on_the_imaginary_axis(self, measure):
        """``L(iw) = 1 - iw m1 - w^2 m2 / 2 + ...``: two steps of each
        difference quotient, the leading error term eliminated."""
        kernel, alpha, targets = measure
        w = 3e-6
        at_w, at_2w = passage_transform_direct_batch(kernel, targets, [1j * w, 2j * w]) @ alpha
        mean = (4 * -at_w.imag / w - -at_2w.imag / (2 * w)) / 3
        second = (4 * 2 * (1 - at_w.real) / w**2 - 2 * (1 - at_2w.real) / (2 * w) ** 2) / 3
        assert passage_moments(kernel, alpha, targets)[1:] == pytest.approx(
            [mean, second], rel=1e-6
        )

    def test_a_9890_state_mean_is_one_solve(self):
        """Voting (40, 10, 3): 0.09 s here, where the fit took 1.9 s (and past
        50,000 states differentiated the iterative sum and did not finish).
        The bound is fifty times the measurement: it fails a method, not a
        busy machine."""
        kernel, alpha, targets = voting_measure(40, 10, 3)
        solver = PassageTimeSolver(kernel, sources=[0], targets=targets, alpha=alpha)
        started = time.perf_counter()
        mean = solver.mean()
        assert time.perf_counter() - started < 5.0
        assert mean == pytest.approx(67.40854266, rel=1e-8)


class TestRefusals:
    @pytest.mark.parametrize(
        "alpha, message",
        [
            ([0.5, 0.0], "sum to 1"),  # was [1, 0.75, 1.5]: E[T^0] = 1 for half an alpha
            ([1.0], "one weight per state"),
            ([1.0 + 1.0j, -1.0j], "real"),
        ],
    )
    def test_alpha_is_checked_as_the_transform_solves_check_it(
        self, two_state_kernel, alpha, message
    ):
        with pytest.raises(ValueError, match=message):
            passage_moments(two_state_kernel, alpha, [1])
        with pytest.raises(ValueError, match=message):
            passage_moments(two_state_kernel, alpha, [1], order=0)

    def test_order_above_two(self, two_state_kernel):
        with pytest.raises(ValueError, match="order"):
            passage_moments(two_state_kernel, [1.0, 0.0], [1], order=3)
        with pytest.raises(ValueError, match="order"):
            PassageTimeSolver(two_state_kernel, sources=[0], targets=[1]).moments(-1)

    def test_a_distribution_without_a_variance_is_named(self):
        sampled = sample_transform(Erlang(2.0, 3), [0.5 + 1j])
        kernel = kernel_of((0, 1, 1.0, sampled), (1, 0, 1.0, Uniform(1.0, 2.0)))
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        assert solver.mean() == pytest.approx(1.5, **EXACT)  # needs mean() only
        with pytest.raises(NotImplementedError, match="SampledTransform"):
            solver.moments(2)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_a_closed_class_that_avoids_the_target(self, order):
        """From 0 the chain is lost to {2, 3, 4} with probability a half: the
        passage to 1 is not almost sure.  A solve of the singular system need
        not notice — the complete LU's pivots for this class cancel inexactly
        and it returns a "mean" of 1.03e16 — so the refusal is decided on the
        graph."""
        kernel = kernel_of(
            (0, 1, 0.5, Exponential(1.0)), (0, 2, 0.5, Exponential(1.0)),
            (1, 0, 1.0, Exponential(1.0)),
            (2, 3, 0.3, Exponential(1.0)), (2, 4, 0.7, Exponential(1.0)),
            (3, 2, 0.15, Exponential(1.0)), (3, 4, 0.85, Exponential(1.0)),
            (4, 2, 0.55, Exponential(1.0)), (4, 3, 0.45, Exponential(1.0)),
        )
        with pytest.raises(ValueError, match="closed class"):
            passage_moments(kernel, source_weights(kernel, [0]), [1], order=order)
        # a target inside the class is met almost surely from every state
        assert np.isfinite(passage_moments(kernel, source_weights(kernel, [0]), [3])).all()


class TestTheRealSolve:
    """``passage_moments`` solves through the package's one real solve: a
    failure raises, and the evidence of a success is on its span."""

    def test_a_solve_that_fails_its_gate_returns_no_number(self, branching_kernel, monkeypatch):
        n = branching_kernel.n_states
        monkeypatch.setattr("scipy.sparse.linalg.gmres", lambda *args, **kwargs: (np.ones(n), 0))
        solver = PassageTimeSolver(branching_kernel, sources=[0], targets=[4])
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            passage_moments(branching_kernel, solver.alpha, [4], order=1)
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            solver.mean()

    def test_a_breakdown_of_the_incomplete_lu_is_the_same_error(
        self, branching_kernel, monkeypatch
    ):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr("scipy.sparse.linalg.spilu", singular)
        with pytest.raises(np.linalg.LinAlgError, match="exactly singular"):
            passage_moments(branching_kernel, source_weights(branching_kernel, [0]), [4])

    @pytest.mark.parametrize("order", [1, 2])
    def test_the_span_carries_the_evidence(self, order):
        kernel, alpha, targets = voting_measure(18, 6, 3)
        tracer = get_tracer()
        tracer.enable()
        tracer.clear()
        try:
            passage_moments(kernel, alpha, targets, order=order)
            spans = [s for s in tracer.spans() if s["name"] == "passage-moments"]
        finally:
            tracer.disable()
            tracer.clear()
        (span,) = spans
        attributes = span["attributes"]
        assert attributes["n_states"] == kernel.n_states == 1876
        assert attributes["order"] == order
        assert order <= attributes["iterations"] <= 40 * order  # GMRES's, one restart a solve
        assert 0.0 <= attributes["residual"] <= 1e-10
        assert attributes["ilu_fill"] > 0.0
