"""The truncation rule the driver runs: what it certifies and what it costs.

A point stops after ``consecutive`` steps with ``||v_r||_1 < epsilon`` (scaled
for a transient).  The operators compute that norm exactly only where a cheap
lower bound — BLAS ``dzasum`` times :data:`ASUM_L1_FLOOR` — falls below
``epsilon``; everywhere else the bound alone decides "not below".  These tests
hold the certified residual to an operator that always takes the exact norm,
at thresholds on and beside a norm some point actually reaches, and pin the
quantity the rule certifies: for a passage, ``final_delta`` bounds the error
against the sparse LU.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.distributions import Erlang, Exponential
from repro.laplace import EulerInverter
from repro.obs.trace import get_tracer
from repro.smp import (
    PassageTimeOptions,
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    transient_transform_batch,
)
from repro.smp import passage as passage_module

from tests.petri.test_random_nets_properties import random_nets

from .conftest import (
    ITERATIVE_ONLY,
    LU_SLACK,
    fan_out_kernel,
    random_kernel,
    voting_measure,
    zero_walk_steps,
)

GRID = np.array([0.4 + 1.5j, 1.0 - 3.0j, 2.5 + 0.5j, 0.2 + 6.0j, 4.0 + 0.0j, 0.7 - 0.7j])


class _ExactResidual:
    """The residual before it was certified: the full-width exact norm of
    every row, whatever ``epsilon``."""

    def residual(self, epsilon):
        norm = np.abs(self._state).sum(axis=1)
        return norm if self._weights is None else norm * self._scale


class _ExactBatch(_ExactResidual, passage_module._BatchRowOperator):
    pass


class _ExactFactored(_ExactResidual, passage_module._FactoredRowOperator):
    pass


def _euler_grid(t_points) -> np.ndarray:
    return np.asarray(EulerInverter().required_s_points(np.asarray(t_points, dtype=float)))


@pytest.fixture(scope="module")
def voting():
    """Voting (8, 3, 2): 226 states, batch engine."""
    return voting_measure(8, 3, 2)


@pytest.fixture(scope="module")
def fan_out():
    """A high fan-out kernel the factored engine runs."""
    kernel = fan_out_kernel(120, 30)
    alpha = np.zeros(kernel.n_states)
    alpha[0] = 1.0
    return kernel, alpha, np.array([kernel.n_states - 1])


def _solve(measure, engine, transient, epsilon):
    kernel, alpha, targets = measure
    transform = transient_transform_batch if transient else passage_transform_batch
    policy = SPointPolicy(
        engine=engine, predicted_iteration_limit=10**9, fallback_to_direct=False
    )
    values, diags = transform(
        kernel.evaluator(), alpha, targets, GRID,
        PassageTimeOptions(epsilon=epsilon), policy=policy,
    )
    return values.tobytes(), [
        (d.iterations, d.converged, np.float64(d.final_delta).tobytes()) for d in diags
    ]


def _boundary_mismatches(measure, engine, transient, monkeypatch) -> list[float]:
    """The thresholds at which the certified and the exact residual disagree:
    a norm some point reaches (its ``final_delta`` at the default epsilon)
    and its two float neighbours."""
    with monkeypatch.context() as patch:
        patch.setattr(passage_module, "_BatchRowOperator", _ExactBatch)
        patch.setattr(passage_module, "_FactoredRowOperator", _ExactFactored)
        _, diags = _solve(measure, engine, transient, 1e-8)
    reached = max(np.frombuffer(delta)[0] for _, _, delta in diags)
    assert 0.0 < reached < 1e-8
    mismatches = []
    for epsilon in (np.nextafter(reached, 0.0), reached, np.nextafter(reached, 1.0)):
        certified = _solve(measure, engine, transient, epsilon)
        with monkeypatch.context() as patch:
            patch.setattr(passage_module, "_BatchRowOperator", _ExactBatch)
            patch.setattr(passage_module, "_FactoredRowOperator", _ExactFactored)
            exact = _solve(measure, engine, transient, epsilon)
        if certified != exact:
            mismatches.append(float(epsilon))
    return mismatches


# The batch engine's passage walks strong components, whose windows take the
# exact norm every step: there is no bound to certify there.
CASES = [
    pytest.param("voting", "batch", True, id="transient-batch"),
    pytest.param("fan_out", "factored", False, id="passage-factored"),
    pytest.param("fan_out", "factored", True, id="transient-factored"),
]


@pytest.mark.parametrize("measure, engine, transient", CASES)
def test_the_certified_residual_decides_as_the_exact_norm(
    measure, engine, transient, request, monkeypatch
):
    """Values, iterations and ``final_delta`` are the same bytes as with an
    operator that always takes the exact norm, with epsilon on a norm some
    point reaches and on either float neighbour of it."""
    assert _boundary_mismatches(
        request.getfixturevalue(measure), engine, transient, monkeypatch
    ) == []


@pytest.mark.parametrize("measure, engine, transient", CASES)
def test_a_bound_that_is_not_a_lower_bound_is_caught(
    measure, engine, transient, request, monkeypatch
):
    """The boundary test has teeth: with the factor at 1, ``dzasum`` — which
    exceeds ``||v||_1`` wherever an entry is off the axes — certifies rows
    whose norm is already below epsilon, and a stop comes late."""
    monkeypatch.setattr(passage_module, "ASUM_L1_FLOOR", 1.0)
    assert _boundary_mismatches(
        request.getfixturevalue(measure), engine, transient, monkeypatch
    )


def test_the_drive_span_counts_exact_rows():
    """On the benchmark's grid every converged point is taken exactly at
    least once, and far fewer rows are taken exactly than are advanced — for
    the transient, whose residual is certified (a passage's windows take
    the exact norm every step)."""
    kernel, alpha, targets = voting_measure(18, 6, 3)
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        report: dict = {}
        _, diags = transient_transform_batch(
            kernel, alpha, targets[:3], _euler_grid((15.0, 27.0, 60.0)), report=report
        )
        (drive,) = [span for span in tracer.spans() if span["name"] == "drive"]
    finally:
        tracer.disable()
        tracer.clear()
    (block,) = report["blocks"]
    assert "exact_rows" not in block  # nothing new on the wire
    converged = sum(d.converged and d.solver == "iterative" for d in diags)
    exact_rows = drive["attributes"]["exact_rows"]
    assert 0 < converged <= exact_rows < block["product_rows"]


def _assert_final_delta_bounds_the_error(kernel, alpha, targets, s_values):
    """Every iterative point is within its ``final_delta`` of the LU, and
    ``final_delta`` — the walk's residuals summed over its windows — is
    below epsilon."""
    iterated, diags = passage_transform_batch(
        kernel, alpha, targets, s_values, policy=ITERATIVE_ONLY
    )
    exact, _ = passage_transform_batch(kernel, alpha, targets, s_values, solver="direct")
    assert all(d.solver == "iterative" and d.converged for d in diags)
    error = np.abs(iterated - exact)
    bound = np.array([d.final_delta for d in diags])
    assert (error <= bound + LU_SLACK).all(), float(np.max(error - bound))
    assert (bound <= PassageTimeOptions().epsilon).all(), float(bound.max())
    return error, bound


def _measure_draws(rng, n):
    """Sources (one to three, one of them a target when the draw says so)
    and targets (one to three) on ``n`` states."""
    targets = np.sort(rng.choice(n, size=int(rng.integers(1, min(3, n - 1) + 1)), replace=False))
    alpha = np.zeros(n)
    alpha[rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)] = 1.0
    if rng.random() < 0.4:
        alpha[targets[0]] = 1.0  # a source that is a target
    return alpha / alpha.sum(), targets


def _net_kernel(case):
    from repro.petri import build_kernel, explore

    net, _ = case
    return build_kernel(explore(net, max_states=500))


@pytest.mark.parametrize(
    "t_points", [(15.0, 27.0, 60.0), (200.0, 640.0)], ids=["figures", "far-tail"]
)
def test_final_delta_bounds_the_passage_error(t_points):
    """Probe 12 on system 0's voting passage, nothing routed: the unsummed
    tail after ``r`` steps is ``v_r`` times each state's own passage
    transform, so ``|L - L_r| <= ||v_r||_1``, the ``final_delta`` the
    driver stops on."""
    kernel, alpha, targets = voting_measure(18, 6, 3)
    error, bound = _assert_final_delta_bounds_the_error(
        kernel, alpha, targets, _euler_grid(t_points)
    )
    assert error.max() > 0.0 and bound.min() > 0.0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=30),
    density=st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=30, deadline=None)
def test_final_delta_bounds_the_error_on_random_kernels(seed, n, density):
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, n, density=density)
    alpha, targets = _measure_draws(rng, n)
    _assert_final_delta_bounds_the_error(kernel, alpha, targets, GRID)


@given(case=random_nets(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_final_delta_bounds_the_error_on_random_nets(case, seed):
    kernel = _net_kernel(case)
    assume(kernel.n_states >= 2)
    alpha, targets = _measure_draws(np.random.default_rng(seed), kernel.n_states)
    _assert_final_delta_bounds_the_error(kernel, alpha, targets, GRID)


#: the step bound is tight near ``s = 0``: there every point's walk is the
#: real one's to within ``|s|``
NEAR_ZERO = np.concatenate((GRID, [1e-6, 1e-4 + 1e-4j, 1e-2 - 2e-2j]))


def _assert_window_steps_are_bounded_at_zero(kernel, alpha, targets, s_values):
    """Every point's steps in every window of the walk are at most that
    component's ``N_B(0)``, the real walk's at ``s = 0``."""
    evaluator = kernel.evaluator()
    components = evaluator.components(np.isin(np.arange(kernel.n_states), targets))
    taken: list[tuple[int, np.ndarray]] = []
    real = passage_module._drive

    def spy(op, options, **kwargs):
        out = real(op, options, **kwargs)
        if isinstance(op, passage_module._WindowOperator):
            taken.append((op.window, out[2].copy()))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(passage_module, "_drive", spy)
        _, diags = passage_transform_batch(
            evaluator, alpha, targets, s_values, policy=ITERATIVE_ONLY
        )
    bounds = zero_walk_steps(kernel, alpha, targets)
    assert sorted(map(sorted, bounds)) == sorted(
        sorted(components.order[slice(*components.window(k))].tolist()) for k, _ in taken
    )
    for k, steps in taken:
        states = frozenset(components.order[slice(*components.window(k))].tolist())
        assert steps.max() <= bounds[states], (sorted(states), steps.max(), bounds[states])
    # a point's iterations are its steps summed over the windows (the
    # windows see the points in run order, the diagnostics in input order)
    walked = sum((steps for _, steps in taken), np.zeros(len(diags), dtype=np.int64))
    assert sorted(d.iterations for d in diags) == sorted(walked.tolist())


def test_no_point_outsteps_the_zero_walk_on_the_voting_passage():
    """System 0's 18 windows on the benchmark's grid, on the far tail and
    near ``s = 0``."""
    kernel, alpha, targets = voting_measure(18, 6, 3)
    _assert_window_steps_are_bounded_at_zero(
        kernel, alpha, targets,
        np.concatenate((_euler_grid((15.0, 27.0, 60.0, 640.0)), NEAR_ZERO[-3:])),
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=30),
    density=st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=30, deadline=None)
def test_no_point_outsteps_the_zero_walk_on_random_kernels(seed, n, density):
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, n, density=density)
    alpha, targets = _measure_draws(rng, n)
    _assert_window_steps_are_bounded_at_zero(kernel, alpha, targets, NEAR_ZERO)


@given(case=random_nets(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_no_point_outsteps_the_zero_walk_on_random_nets(case, seed):
    kernel = _net_kernel(case)
    assume(kernel.n_states >= 2)
    alpha, targets = _measure_draws(np.random.default_rng(seed), kernel.n_states)
    _assert_window_steps_are_bounded_at_zero(kernel, alpha, targets, NEAR_ZERO)


@pytest.mark.parametrize("transient", [False, True], ids=["passage", "transient"])
def test_a_frontier_that_reach_would_move_back(transient):
    """A reducible kernel numbered against its paths: a closed class ``{0}``
    with a self-loop and the chain ``3 -> 2 -> 1 -> 0``, started at 3.  Here
    ``reach[hi] < hi`` — the support moves down, ``{2}``, ``{1}``, ``{0}`` —
    so the spare buffer's state of two steps ago lies above the new
    frontier's reach; it must still be cleared, or its entries stay in the
    state, in ``||v||_1`` and in a transient's sums, and no point converges."""
    builder = SMPBuilder(4)
    builder.add_transition(0, 0, 1.0, Exponential(1.0))
    builder.add_transition(1, 0, 1.0, Exponential(2.0))
    builder.add_transition(2, 1, 1.0, Erlang(1.5, 2))
    builder.add_transition(3, 2, 1.0, Exponential(0.5))
    evaluator = builder.build().evaluator()
    assert list(evaluator.reach) == [0, 1, 1, 2, 3]
    alpha = np.array([0.0, 0.0, 0.0, 1.0])
    transform = transient_transform_batch if transient else passage_transform_batch
    targets = np.array([0, 1, 2] if transient else [0])
    policy = SPointPolicy(
        engine="batch", predicted_iteration_limit=10**9, fallback_to_direct=False
    )
    iterated, diags = transform(
        evaluator, alpha, targets, GRID, PassageTimeOptions(max_iterations=500), policy=policy
    )
    exact, _ = transform(evaluator, alpha, targets, GRID, solver="direct")
    assert all(d.converged and d.iterations <= 40 for d in diags)
    np.testing.assert_allclose(iterated, exact, rtol=0.0, atol=1e-7)
