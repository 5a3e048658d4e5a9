"""Ablation A2 — the iterative algorithm vs. the direct linear solve.

Section 3.1 motivates the iterative algorithm by its O(N^2 r) worst-case cost
(sparse vector–matrix products) against the O(N^3) of classical solution
methods for Eq. (2), while Section 2.2 presents the linear-system formulation
the iterative method replaces.  This ablation measures both methods as shipped
— the block solve under a pure-iterative policy and the sparse-LU solve the
policy would route to — on the same transforms: they must agree numerically,
and the report shows how the cost per s-point scales with the state-space size
on voting-model kernels.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from repro.models import (
    SCALED_CONFIGURATIONS,
    VotingParameters,
    all_voted_predicate,
    build_voting_kernel,
    initial_marking_predicate,
)
from repro.smp import (
    PassageTimeOptions,
    SPointPolicy,
    passage_transform_direct_batch,
    passage_transform_vector_batch,
)

S_POINTS = [0.25 + 0.9j, 0.12 + 3.1j, 0.5 + 7.4j]

#: no direct routing, no fallback: the iteration is what is measured
PURE_ITERATIVE = SPointPolicy(predicted_iteration_limit=10**9, fallback_to_direct=False)


def _voting_case(params: VotingParameters):
    kernel, graph = build_voting_kernel(params)
    targets = graph.states_where(all_voted_predicate(params))
    return kernel, targets


@pytest.mark.benchmark(group="ablation-iterative-vs-direct")
@pytest.mark.parametrize("config", ["tiny", "small", "medium"])
def test_iterative_vs_direct_per_s_point(benchmark, config, report):
    params = SCALED_CONFIGURATIONS[config]
    kernel, targets = _voting_case(params)
    evaluator = kernel.evaluator()

    def iterative_all():
        return passage_transform_vector_batch(
            evaluator, targets, S_POINTS, PassageTimeOptions(), policy=PURE_ITERATIVE
        )[0]

    iterative_results = benchmark.pedantic(iterative_all, rounds=1, iterations=1)

    start = time.perf_counter()
    direct_results = passage_transform_direct_batch(evaluator, targets, S_POINTS)
    direct_seconds = time.perf_counter() - start

    worst = max(
        float(np.max(np.abs(i - d))) for i, d in zip(iterative_results, direct_results)
    )
    _RESULTS[config] = (kernel.n_states, kernel.n_transitions, direct_seconds, worst)

    assert worst < 1e-6  # the two formulations solve the same equations

    if len(_RESULTS) == 3:
        lines = [
            "Ablation A2 — iterative passage-time algorithm vs. direct sparse solve",
            f"(3 s-points per configuration; targets = 'all voters processed')",
            f"{'config':>8} {'states':>8} {'transitions':>12} "
            f"{'direct secs':>12} {'max |diff|':>12}",
        ]
        for name, (n, nnz, secs, diff) in _RESULTS.items():
            lines.append(f"{name:>8} {n:8d} {nnz:12d} {secs:12.3f} {diff:12.2e}")
        lines += [
            "",
            "The iterative method's timing is reported by pytest-benchmark for the same",
            "three s-points; its advantage grows with N because it only performs sparse",
            "vector-matrix products (O(N^2 r) worst case vs O(N^3) for elimination).",
        ]
        report("ablation_a2_iterative_vs_direct", lines)


_RESULTS: dict[str, tuple] = {}


@pytest.mark.benchmark(group="ablation-iterative-vs-direct")
def test_iteration_count_grows_as_s_approaches_zero(benchmark, voting_kernel_small, report):
    """The truncation point r of Eq. (10) depends on |s|: smaller Re(s) damps
    each transition less, so more transitions contribute — the behaviour the
    paper flags for future convergence-bound work."""
    targets = [voting_kernel_small.n_states - 1]
    evaluator = voting_kernel_small.evaluator()

    magnitudes = (3.0, 1.0, 0.3, 0.1, 0.03)

    def sweep():
        _, diags = passage_transform_vector_batch(
            evaluator, targets, [m + 0.5j for m in magnitudes], policy=PURE_ITERATIVE
        )
        return {m: diag.iterations for m, diag in zip(magnitudes, diags)}

    iterations = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Iterations to convergence vs. Re(s) (small voting model):",
        f"{'Re(s)':>8} {'iterations r':>13}",
    ]
    lines += [f"{mag:8.2f} {its:13d}" for mag, its in iterations.items()]
    report("ablation_a2_iterations_vs_s", lines)

    values = list(iterations.values())
    assert values == sorted(values)  # monotone growth as Re(s) decreases
