"""The block solve moves its data once: memory, structure and selections.

What PR 21 claims about the batch engine's block pipeline, as tests: a block
stays inside the memory the policy budgeted for it, the block-diagonal
structure is built once per kernel, the driver advances hardly a row it does
not need, and the O(touched edges) selections pick what the O(nnz) gathers
picked.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.laplace import EulerInverter
from repro.smp import (
    SPointPolicy,
    passage_transform_batch,
    source_weights,
    transient_transform_batch,
)
from repro.smp import kernel as kernel_module
from repro.smp import passage as passage_module
from repro.smp.kernel import _BatchLRU
from tests.reference import u_matrix
from tests.smp.conftest import random_kernel, voting_measure

#: voting (8,3,2) and the paper's system 0 with a three-t Euler grid (the
#: second is the benchmark's ``solve_passage`` op)
MODELS = {
    "voting832": ((8, 3, 2), (2.0, 5.0, 10.0)),
    "system0": ((18, 6, 3), (15.0, 27.0, 60.0)),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def measure(request):
    parameters, t_points = MODELS[request.param]
    grid = np.asarray(EulerInverter().required_s_points(np.asarray(t_points)))
    return (*voting_measure(*parameters), grid)


def _traced_peak(solve) -> int:
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("form", ["row", "transient"])
def test_a_block_stays_inside_its_memory_plan(measure, form):
    """``max_block_bytes`` is true: the largest block the policy allows, on a
    fresh evaluator — so the ``U`` grid, the block-diagonal structure and
    every temporary count — peaks below the budget it was sized for, for the
    passage and for the transient (sized as the same row block).  (Before
    the block pipeline wrote ``U'`` once, a block peaked at 100 B per edge
    per point against the 64 it budgeted.)"""
    kernel, alpha, targets, grid = measure
    budget = (4 if kernel.n_states < 1000 else 64) << 20
    policy = SPointPolicy(engine="batch", max_block_bytes=budget)
    evaluator = kernel.evaluator()
    block = policy.block_points(evaluator)
    wide = np.concatenate((grid, 1.1 * grid))
    assert 50 <= block <= wide.size
    report: dict = {}
    if form == "row":
        def solve():
            passage_transform_batch(
                evaluator, alpha, targets, wide[:block], policy=policy, report=report
            )
    else:
        def solve():
            transient_transform_batch(
                evaluator, alpha, targets, wide[:block], policy=policy, report=report
            )
    peak = _traced_peak(solve)
    assert [entry["points"] for entry in report["blocks"]] == [block]
    assert peak <= budget, (peak / block / kernel.n_transitions, "B per edge per point")


def test_the_block_diagonal_structure_is_built_once_per_kernel(measure, monkeypatch):
    """Five ops on fresh grids, every narrowing of every block, the passage
    and the transient: one build — and a wider block grows it, once."""
    kernel, alpha, targets, grid = measure
    builds = []
    real = kernel_module._diagonal_copies

    def counted(csr, n_states, width):
        builds.append(width)
        return real(csr, n_states, width)

    monkeypatch.setattr(kernel_module, "_diagonal_copies", counted)
    evaluator = kernel.evaluator()
    for op in range(5):
        _, diags = passage_transform_batch(
            evaluator, alpha, targets, grid * (1.0 + 0.01 * op)
        )
        assert all(d.converged and d.solver == "iterative" for d in diags)
    transient_transform_batch(evaluator, alpha, targets, grid[:20])
    assert builds == [grid.size]
    passage_transform_batch(evaluator, alpha, targets, np.concatenate((grid, 1.5 * grid)))
    assert builds == [grid.size, 2 * grid.size]
    # served as prefix views of the one retained structure
    first, second = (evaluator.block_diag_structure(7) for _ in range(2))
    assert all(np.shares_memory(a, b) for a, b in zip(first, second))
    n, nnz = kernel.n_states, kernel.n_transitions
    assert first[0].size == 7 * n + 1 and first[1].size == 7 * nnz
    assert first[0].dtype == first[1].dtype == np.int32


def test_structure_retention_follows_the_grid_lru_rule(measure):
    """Never above ``_BatchLRU.max_entry_bytes``: handed out, not kept."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    evaluator._batch_cache = _BatchLRU(max_entry_bytes=4 * kernel.n_transitions * 10)
    kept = evaluator.block_diag_structure(10)
    assert np.shares_memory(kept[1], evaluator.block_diag_structure(4)[1])
    wide = evaluator.block_diag_structure(11)
    assert not np.shares_memory(wide[1], evaluator.block_diag_structure(4)[1])
    reference = kernel.evaluator().block_diag_structure(11)
    assert all(np.array_equal(a, b) for a, b in zip(wide, reference))


def test_the_structure_is_the_block_diagonal_of_the_kernel():
    from scipy import sparse

    kernel = random_kernel(np.random.default_rng(4), 9)
    evaluator = kernel.evaluator()
    width, n = 3, kernel.n_states
    indptr, indices = evaluator.block_diag_structure(width)
    data = np.arange(1.0, width * kernel.n_transitions + 1)
    blocks = [
        sparse.csr_matrix((row, kernel.csr.indices, kernel.csr.indptr), shape=(n, n))
        for row in data.reshape(width, -1)
    ]
    expected = sparse.block_diag(blocks, format="csr")
    got = sparse.csr_matrix((data, indices, indptr), shape=(width * n, width * n))
    assert (got != expected).nnz == 0


def test_hardly_a_wasted_row_on_the_benchmark_grid(measure):
    """Slowest-first order + narrowing by view: the product advances at most
    1.03 rows per useful point-iteration (the halving rule: 1.22)."""
    kernel, alpha, targets, grid = measure
    report: dict = {}
    passage_transform_batch(kernel, alpha, targets, grid, report=report)
    (block,) = report["blocks"]
    assert block["iterations"] <= block["product_rows"] <= 1.03 * block["iterations"]


def test_product_rows_sum_over_a_transient_blocks_targets(measure):
    """One row iteration per block whatever the number of targets: a point's
    diagnostics are its own, and the block's ``product_rows`` are the sum of
    its points' iterations, as for a passage."""
    kernel, alpha, targets, grid = measure
    reports = []
    for count in (1, 3):
        report: dict = {}
        _, diags = transient_transform_batch(
            kernel, alpha, targets[:count], grid[:12], report=report
        )
        (block,) = report["blocks"]
        assert block["iterations"] == sum(d.iterations for d in diags)
        assert block["iterations"] <= block["product_rows"] <= 1.1 * block["iterations"]
        assert all(d.matvec_count == d.iterations + 1 for d in diags)
        assert all(d.final_delta > 0.0 and d.direct_solves == 0 for d in diags)
        reports.append(block["product_rows"])
    # three targets do not cost three solves
    assert reports[1] <= 1.2 * reports[0]


def test_row_entries_are_the_mask_gather(measure):
    """``flatnonzero(mask[csr.rows])`` read off ``indptr``: same entries, same
    order — so the start vector and the zeroed target rows cannot move."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    rng = np.random.default_rng(8)
    for states in (targets, np.flatnonzero(alpha), np.sort(rng.choice(kernel.n_states, 40, False)),
                   np.arange(0), np.arange(kernel.n_states)):
        mask = np.zeros(kernel.n_states, dtype=bool)
        mask[states] = True
        expected = np.flatnonzero(mask[kernel.csr.rows])
        assert np.array_equal(evaluator.row_entries(np.flatnonzero(mask)), expected)


def test_alpha_start_vectors_match_the_matrix_product(measure):
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    s_block = grid[:6]
    u_data = evaluator.u_data_batch(s_block)
    weights = source_weights(kernel, [0, 3, kernel.n_states - 1]).astype(complex)
    points = np.asarray([4, 0, 5])
    got = evaluator.alpha_vec_matrix_batch(weights, u_data, points)
    whole = evaluator.alpha_vec_matrix_batch(weights, u_data, np.arange(s_block.size))
    assert got.tobytes() == whole[points].tobytes()
    for row, t in zip(got, points):
        expected = np.asarray(weights @ u_matrix(kernel, complex(s_block[t]))).ravel()
        assert np.abs(row - expected).max() < 1e-14


def test_an_explicit_direct_solve_reads_the_grid_uncopied(measure, monkeypatch):
    """``solver="direct"`` hands the LU solver the block's ``U`` grid itself,
    and a routed run of neighbouring points a slice of it — no row copy."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    handed = []
    real = passage_module.passage_transform_direct_batch

    def spy(evaluator, targets, s_values, *, u_data=None):
        handed.append(u_data)
        return real(evaluator, targets, s_values, u_data=u_data)

    monkeypatch.setattr(passage_module, "passage_transform_direct_batch", spy)
    s_block = grid[:6]
    passage_transform_batch(evaluator, alpha, targets, s_block, solver="direct")
    block_grid = evaluator.u_data_batch(s_block)
    assert handed[0].shape == block_grid.shape and np.shares_memory(handed[0], block_grid)
    # three points so close to s = 0 that the default policy routes them
    routed = np.concatenate((grid[:3] * 1e-6, grid[3:6]))
    _, diags = passage_transform_batch(evaluator, alpha, targets, routed)
    assert [d.solver for d in diags] == ["direct"] * 3 + ["iterative"] * 3
    assert handed[1].shape[0] == 3
    assert np.shares_memory(handed[1], evaluator.u_data_batch(routed))


def test_the_block_span_splits_into_its_layers(measure):
    """``lst-fill`` / ``route`` / ``drive`` under ``s-block-solve``: the
    product's own tracer answers "LST fill or product?"."""
    from repro.obs import get_tracer

    kernel, alpha, targets, grid = measure
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        passage_transform_batch(kernel, alpha, targets, grid, policy=SPointPolicy(engine="batch"))
        spans = tracer.spans()
    finally:
        tracer.disable()
        tracer.clear()
    (block,) = [r for r in spans if r["name"] == "s-block-solve"]
    layers = sorted(
        (r for r in spans if r["parent"] == block["id"]), key=lambda r: r["start"]
    )
    assert [r["name"] for r in layers] == ["lst-fill", "route", "drive"]
    assert sum(r["duration"] for r in layers) <= block["duration"]
    assert layers[2]["attributes"]["points"] == grid.size


def test_the_contraction_read_off_the_u_grid_is_u_primes(measure):
    """Routing reads ``|U|`` row sums with the target states' sums zeroed:
    bit for bit the row sums of ``|U'|`` — so routing cannot move."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[targets] = True
    u_data = evaluator.u_data_batch(grid)
    u_prime = u_data.copy()
    u_prime[:, mask[kernel.csr.rows]] = 0.0
    expected = evaluator.row_abs_sums(u_prime).max(axis=1)
    got = np.where(mask, 0.0, evaluator.row_abs_sums(u_data)).max(axis=1)
    assert got.tobytes() == expected.tobytes()
