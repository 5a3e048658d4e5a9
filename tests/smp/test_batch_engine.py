"""Batch-vs-scalar equivalence of the s-point transform-evaluation engine.

The batched engine must agree with the scalar loops kept as oracles in
``tests.reference``: on the iterative path it applies the *same* truncation
rule per s-point — a passage per strong component, the oracle over the whole
chain, so the two agree to within their summed ``final_delta`` — and a
transient's values match the scalar functions to float associativity;
policy-routed points come from the sparse-LU direct solve and must match the
direct oracle.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import (
    Convolution,
    Deterministic,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Mixture,
    Pareto,
    Scaled,
    Shifted,
    Uniform,
    Weibull,
)
from repro.smp import (
    PassageTimeOptions,
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    passage_transform_direct_batch,
    source_weights,
    transient_transform_batch,
)
from tests.reference import (
    passage_transform,
    passage_transform_direct,
    passage_transform_vector,
    transient_transform,
)
from tests.smp.conftest import ITERATIVE_ONLY, assert_within_deltas, random_kernel

# One representative of every distribution family shipped with the library.
FAMILIES = {
    "exponential": Exponential(1.5),
    "erlang": Erlang(2.0, 3),
    "gamma": Gamma(1.7, 2.0),
    "uniform": Uniform(0.5, 2.0),
    "deterministic": Deterministic(0.8),
    "weibull": Weibull(1.4, 1.0),
    "lognormal": LogNormal(0.0, 0.5),
    "pareto": Pareto(2.5, 0.5),
    "hyperexponential": HyperExponential([0.4, 0.6], [1.0, 3.0]),
    "mixture": Mixture([Uniform(0.5, 2.0), Erlang(1.0, 2)], [0.8, 0.2]),
    "convolution": Convolution([Exponential(2.0), Deterministic(0.3)]),
    "scaled": Scaled(Exponential(1.0), 0.5),
    "shifted": Shifted(Exponential(2.0), 0.25),
}

S_GRID = np.array([0.4 + 0.0j, 0.8 + 2.5j, 1.5 - 1.0j, 0.1 + 6.0j, 2.5 + 0.5j])


def family_kernel(dist):
    """A 3-state ring where one transition carries the family under test."""
    b = SMPBuilder()
    for name in "abc":
        b.add_state(name)
    b.add_transition("a", "b", 1.0, dist)
    b.add_transition("b", "c", 0.7, Exponential(2.0))
    b.add_transition("b", "a", 0.3, Erlang(1.5, 2))
    b.add_transition("c", "a", 1.0, Uniform(0.2, 1.2))
    return b.build()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batch_matches_scalar_per_family(family):
    kernel = family_kernel(FAMILIES[family])
    alpha = source_weights(kernel, [0])
    batch, diags = passage_transform_batch(
        kernel, alpha, [2], S_GRID, policy=ITERATIVE_ONLY
    )
    for t, s in enumerate(S_GRID):
        # the walk and the oracle's global sum stop at different terms
        scalar, scalar_diag = passage_transform(kernel, alpha, [2], complex(s))
        assert_within_deltas(batch[t], diags[t], scalar, scalar_diag)
        assert diags[t].matvec_count == diags[t].iterations + 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_adaptive_batch_matches_direct_per_family(family):
    kernel = family_kernel(FAMILIES[family])
    alpha = source_weights(kernel, [0]).astype(complex)
    batch, _ = passage_transform_batch(kernel, alpha, [2], S_GRID)
    direct = passage_transform_direct_batch(kernel, [2], S_GRID)
    assert np.allclose(batch, direct @ alpha, atol=2e-6)


def test_direct_batch_matches_scalar_direct():
    kernel = random_kernel(np.random.default_rng(5), 10)
    vecs = passage_transform_direct_batch(kernel, [3, 7], S_GRID)
    for t, s in enumerate(S_GRID):
        assert np.allclose(
            vecs[t], passage_transform_direct(kernel, [3, 7], complex(s)), atol=1e-10
        )


def test_vector_batch_matches_scalar_on_random_kernels():
    """The row-form block solve from every single source reproduces the
    scalar column oracle's vector ``(L_{1->j}(s), ..., L_{N->j}(s))``."""
    for seed in range(5):
        kernel = random_kernel(np.random.default_rng(seed), 4 + seed * 2)
        n = kernel.n_states
        target = [n - 1]
        rows = []
        for source in range(n):
            alpha = np.zeros(n)
            alpha[source] = 1.0
            values, diags = passage_transform_batch(
                kernel, alpha, target, S_GRID, policy=ITERATIVE_ONLY
            )
            assert all(d.converged for d in diags)
            rows.append(values)
        batch = np.column_stack(rows)
        for t, s in enumerate(S_GRID):
            scalar, scalar_diag = passage_transform_vector(kernel, target, complex(s))
            assert scalar_diag.converged
            assert np.allclose(batch[t], scalar, atol=1e-10)


def test_transient_batch_matches_scalar(branching_kernel):
    """The renewal sum against Pyke's relations, target by target: the two
    truncate different sums, so both run to 1e-12 to agree to 1e-10."""
    alpha = source_weights(branching_kernel, [0])
    targets = [3, 4]
    tight = PassageTimeOptions(epsilon=1e-12)
    batch, diags = transient_transform_batch(
        branching_kernel, alpha, targets, S_GRID, tight, policy=ITERATIVE_ONLY
    )
    assert len(diags) == len(S_GRID)
    for t, s in enumerate(S_GRID):
        scalar = transient_transform(branching_kernel, alpha, targets, complex(s), tight)
        assert batch[t] == pytest.approx(scalar, abs=1e-10)


def test_transient_batch_direct_solver(ctmc_kernel):
    alpha = source_weights(ctmc_kernel, [0])
    batch, _ = transient_transform_batch(
        ctmc_kernel, alpha, [1], S_GRID, solver="direct"
    )
    for t, s in enumerate(S_GRID):
        scalar = transient_transform(ctmc_kernel, alpha, [1], complex(s), solver="direct")
        assert batch[t] == pytest.approx(scalar, abs=1e-9)


def test_transient_batch_rejects_s_zero(ctmc_kernel):
    alpha = source_weights(ctmc_kernel, [0])
    with pytest.raises(ValueError, match="pole"):
        transient_transform_batch(ctmc_kernel, alpha, [1], [0.5 + 0j, 0.0 + 0j])


def test_policy_routes_small_s_to_direct(two_state_kernel):
    """Near s = 0 the predicted iteration count explodes; the policy must hand
    those points to the LU solver, and the result must still be the passage
    probability (~1)."""
    alpha = source_weights(two_state_kernel, [0])
    tiny = np.array([1e-9 + 0j, 1e-8 + 1e-8j])
    values, diags = passage_transform_batch(
        two_state_kernel, alpha, [1], tiny, policy=SPointPolicy(predicted_iteration_limit=50)
    )
    assert all(d.solver == "direct" for d in diags)
    assert np.allclose(values, 1.0, atol=1e-5)


def test_policy_mixed_routing_preserves_order(ring_kernel):
    """A grid mixing easy and hard points comes back in input order with the
    per-point solver recorded in the diagnostics."""
    alpha = source_weights(ring_kernel, [0])
    mixed = np.array([2.0 + 1.0j, 1e-9 + 0j, 1.5 - 2.0j, 1e-10 + 1e-9j])
    values, diags = passage_transform_batch(
        ring_kernel, alpha, [2], mixed, policy=SPointPolicy(predicted_iteration_limit=200)
    )
    solvers = [d.solver for d in diags]
    assert solvers[0] == "iterative" and solvers[2] == "iterative"
    assert solvers[1] == "direct" and solvers[3] == "direct"
    for t in (0, 2):
        scalar, _ = passage_transform(ring_kernel, alpha, [2], complex(mixed[t]))
        assert values[t] == pytest.approx(scalar, abs=1e-10)


def test_fallback_to_direct_on_iteration_cap(branching_kernel):
    """Points that exhaust max_iterations are re-solved exactly instead of
    returning a silently truncated sum.  State 4 is only visited on 40% of
    the cycles through the branching kernel, so the sum needs far more than
    five transitions to converge."""
    alpha = source_weights(branching_kernel, [0])
    s = np.array([0.001 + 0.001j])
    options = PassageTimeOptions(max_iterations=5)
    values, diags = passage_transform_batch(
        branching_kernel, alpha, [4], s, options,
        policy=SPointPolicy(predicted_iteration_limit=10**9, fallback_to_direct=True),
    )
    assert diags[0].solver == "direct-fallback"
    direct = passage_transform_direct(branching_kernel, [4], complex(s[0]))
    assert values[0] == pytest.approx(np.dot(alpha, direct), abs=1e-10)


def test_empty_grid(two_state_kernel):
    alpha = source_weights(two_state_kernel, [0])
    values, diags = passage_transform_batch(two_state_kernel, alpha, [1], [])
    assert values.size == 0 and diags == []


def test_policy_validation():
    with pytest.raises(ValueError):
        SPointPolicy(predicted_iteration_limit=0)
