"""A point's answer does not depend on the block around it.

The block solve orders its points slowest first and narrows as they converge;
that is licensed by one invariant: whatever the order and the composition of
the block a point is solved in — and whichever of the batch engine's two
regimes advances it — its value comes back bit for bit the same, after the
same number of iterations.

Reversed and shuffled grids and the per-point regime are compared everywhere.
A *one-point* call is compared wherever the arithmetic around the iteration
does not itself depend on the number of rows it is handed; three reductions
do, each of them the parent's arithmetic, kept because PR 21 is bit-identical
to its parent (``scripts/bitdump.py``):

* the row form sums a point's target components through ``state[:, targets]
  .sum(axis=1)``; numpy lays that gather out column-major, so with more than
  one row it adds the columns in order and with one row it sums pairwise —
  different roundings once there are four or more target states;
* direct solves end in ``vectors @ alpha``, the transient assembly in
  ``l_src @ weights`` and the factored row form starts from ``lst @ A``:
  BLAS picks its kernel (dot / gemv / gemm) by the row count.

So one-point calls are compared in the column form everywhere, and in the
batch engine's row form where the target set is small and no point is solved
directly.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.laplace import EulerInverter
from repro.models import mg1_queue_kernel
from repro.smp import (
    PassageTimeOptions,
    SPointPolicy,
    passage_transform_batch,
    passage_transform_vector_batch,
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
    """The three batched entry points as ``grid -> (values, iterations)``."""
    def row(grid):
        return passage_transform_batch(kernel, alpha, targets, grid, options, policy=policy)

    def column(grid):
        return passage_transform_vector_batch(kernel, targets, grid, options, policy=policy)

    def transient(grid):
        return transient_transform_batch(
            kernel, alpha, targets[:2], grid, options, policy=policy
        )

    return {"row": row, "column": column, "transient": transient}


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
    one_point = {"column"}
    if engine == "batch" and targets.size < 4 and policy_name != "cap+fallback":
        one_point.add("row")
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
