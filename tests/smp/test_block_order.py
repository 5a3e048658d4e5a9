"""A point's answer does not depend on the block around it.

The block solve orders its points slowest first and narrows as they converge;
that is licensed by one invariant: whatever the order and the composition of
the block a point is solved in — and whichever of the batch engine's two
regimes advances it — its value comes back bit for bit the same, after the
same number of iterations.

Reversed and shuffled grids, the per-point regime and *one-point* calls are
compared.  In the batch engine every reduction around the iteration sums a
point's row on its own (``np.add.reduce`` along the contiguous axis of a
gather), so the comparison holds for the passage and the transient, with any
number of targets and for points the sparse LU solves.  The factored engine
starts both from ``lst @ A``, where BLAS picks its kernel (dot / gemv / gemm)
by the row count: there a one-point call is not compared.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import Model
from repro.laplace import EulerInverter
from repro.models import VotingParameters, mg1_queue_kernel, voting_spec_text
from repro.service.registry import ModelRegistry
from repro.smp import (
    PassageTimeOptions,
    SPointPolicy,
    passage_transform_batch,
    source_weights,
    transient_transform_batch,
)
from repro.smp import passage as passage_module
from tests.smp.conftest import random_kernel, voting_measure
from tests.smp.test_properties import kernel_seeds, sizes

GRID = np.asarray(EulerInverter().required_s_points(np.asarray([1.5, 7.0])))
#: the sum runs to convergence / is cut at 9 transitions and returned
#: truncated / is cut and the cap-hitting points re-solved by sparse LU
POLICIES = {
    "default": (PassageTimeOptions(), {}),
    "cap": (PassageTimeOptions(max_iterations=9), {"fallback_to_direct": False}),
    "cap+fallback": (PassageTimeOptions(max_iterations=9), {"fallback_to_direct": True}),
}


def _builder_case():
    kernel = mg1_queue_kernel()
    return kernel, source_weights(kernel, [0, 2]), np.asarray([kernel.n_states - 1, 4])


CASES = {"voting832": voting_measure(8, 3, 2), "mg1_queue": _builder_case()}


def _transforms(kernel, alpha, targets, options, policy):
    """The two batched entry points as ``grid -> (values, iterations)``."""
    def row(grid):
        return passage_transform_batch(kernel, alpha, targets, grid, options, policy=policy)

    def transient(grid):
        return transient_transform_batch(
            kernel, alpha, targets[:2], grid, options, policy=policy
        )

    return {"row": row, "transient": transient}


def _assert_same(label, values, diags, reference, reference_diags, order):
    """``values[i]`` answers the point ``reference[order[i]]`` answers."""
    for i, t in enumerate(order):
        assert values[i].tobytes() == reference[t].tobytes(), (label, int(t))
        assert diags[i].iterations == reference_diags[t].iterations, (label, int(t))
        assert diags[i].solver == reference_diags[t].solver, (label, int(t))


def _check_independence(kernel, alpha, targets, engine, policy_name, monkeypatch, singles):
    options, fields = POLICIES[policy_name]
    policy = SPointPolicy(engine=engine, **fields)
    # see the module docstring for where a one-point call is comparable
    one_point = {"row", "transient"} if engine == "batch" else set()
    for name, transform in _transforms(kernel, alpha, targets, options, policy).items():
        reference, reference_diags = transform(GRID)
        orders = {
            "reversed": np.arange(GRID.size)[::-1],
            "shuffled": np.random.default_rng(2003).permutation(GRID.size),
        }
        for label, order in orders.items():
            values, diags = transform(GRID[order])
            _assert_same(f"{name}/{label}", values, diags, reference, reference_diags, order)
        for t in singles if name in one_point else ():
            values, diags = transform(GRID[t:t + 1])
            _assert_same(f"{name}/single", values, diags, reference, reference_diags, [t])
        if engine != "batch":
            continue
        # one matvec per point throughout / until the block has narrowed to
        # half its width, the block-diagonal product from there
        half_a_block = GRID.size // 2 * kernel.n_states * 16
        for regime, threshold in (("per-point", 0), ("per-point-then-block", half_a_block)):
            with monkeypatch.context() as patch:
                patch.setattr(passage_module, "BLOCKDIAG_MAX_BYTES", threshold)
                values, diags = transform(GRID)
            _assert_same(
                f"{name}/{regime}", values, diags, reference, reference_diags,
                np.arange(GRID.size),
            )


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("engine", ["batch", "factored"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_point_is_independent_of_its_block(case, engine, policy_name, monkeypatch):
    kernel, alpha, targets = CASES[case]
    _check_independence(
        kernel, alpha, targets, engine, policy_name, monkeypatch,
        singles=range(0, GRID.size, 5),
    )


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_a_point_is_independent_of_its_block_on_generated_kernels(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    alpha = source_weights(kernel, sorted({0, n // 2}))
    targets = np.asarray(sorted({n - 1, seed % n}))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for engine in ("batch", "factored"):
            for policy_name in ("default", "cap+fallback"):
                _check_independence(
                    kernel, alpha, targets, engine, policy_name, monkeypatch,
                    singles=(0, GRID.size // 2, GRID.size - 1),
                )


def test_pool_blocks_answer_what_the_inline_sweep_answers():
    """A 2-worker pool cuts the grid into blocks the inline engine never forms;
    all 132 transform values of the voting (8,3,2) density + CDF come back
    bit for bit the same (PR 21 measured 131: one point finished as the sole
    survivor of its block on one side only, and its target sum rounded by it)."""
    model = Model.from_spec(
        voting_spec_text(VotingParameters(8, 3, 2)), registry=ModelRegistry()
    )
    query = model.passage("p1 == CC", "p2 == CC").density([2.0, 5.0, 10.0, 20.0]).cdf()
    inline = query.run().transform_values
    pool = query.run(engine="multiprocessing", workers=2).transform_values
    assert len(inline) == 132 and sorted(pool, key=repr) == sorted(inline, key=repr)
    for s, value in inline.items():
        assert np.complex128(pool[s]).tobytes() == np.complex128(value).tobytes(), s
