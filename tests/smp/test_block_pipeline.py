"""The block solve moves its data once: memory, structure and selections.

What PR 21 claims about the batch engine's block pipeline, as tests: a block
stays inside the memory the policy budgeted for it, the block-diagonal
structure is built once per kernel, the driver advances hardly a row it does
not need, and the O(touched edges) selections pick what the O(nnz) gathers
picked.
"""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.laplace import EulerInverter
from repro.smp import (
    PassageTimeOptions,
    SPointPolicy,
    UEvaluator,
    passage_transform_batch,
    passage_transform_direct_batch,
    source_weights,
    transient_transform_batch,
)
from repro.smp import kernel as kernel_module
from repro.smp.linear import DirectOrdering
from tests.reference import u_matrix
from tests.smp.conftest import fan_out_kernel, random_kernel, voting_measure

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


def _counted_fills(evaluator, monkeypatch) -> list[int]:
    """The row count of every ``fill_u_data`` call on ``evaluator``."""
    fills: list[int] = []
    real = evaluator.fill_u_data

    def spy(table, out=None):
        fills.append(table.shape[0])
        return real(table, out)

    monkeypatch.setattr(evaluator, "fill_u_data", spy)
    return fills


@pytest.mark.parametrize("form", ["row", "transient"])
def test_a_block_stays_inside_its_memory_plan(measure, form, monkeypatch):
    """``max_block_bytes`` is true: the largest block the policy allows, on a
    fresh evaluator — so the stepper's data, the block-diagonal structure and
    every temporary count — peaks below the budget it was sized for, for the
    passage and for the transient (sized as the same row block).  The same
    block routed whole to the LU, and the explicit direct solve, sized alike,
    fill no ``U`` grid and stay inside it too.  (Before the block pipeline
    wrote ``U'`` once, a block peaked at 100 B per edge per point against the
    64 it budgeted; before the block kept one grid and no LRU, at 48.)"""
    kernel, alpha, targets, grid = measure
    budget = (4 if kernel.n_states < 1000 else 40) << 20
    policy = SPointPolicy(engine="batch", max_block_bytes=budget)
    evaluator = kernel.evaluator()
    block = policy.block_points(evaluator)
    wide = np.concatenate((grid, 1.1 * grid))
    assert 50 <= block <= wide.size
    solve = passage_transform_batch if form == "row" else transient_transform_batch
    fills = _counted_fills(evaluator, monkeypatch)
    report: dict = {}
    peak = _traced_peak(
        lambda: solve(evaluator, alpha, targets, wide[:block], policy=policy, report=report)
    )
    assert [entry["points"] for entry in report["blocks"]] == [block]
    assert peak <= budget, (peak / block / kernel.n_transitions, "B per edge per point")
    # the transient stepper fills its own data; a passage walks on windows
    assert fills == ([] if form == "row" else [block])

    fills.clear()
    assert policy._block_plan(evaluator, direct=True) == ("direct-lu", block)
    routed = replace(policy, predicted_iteration_limit=1)
    for options in ({"policy": routed}, {"policy": policy, "solver": "direct"}):
        report = {}
        diags: list = []
        peak = _traced_peak(lambda: diags.extend(solve(
            evaluator, alpha, targets, 1.01 * wide[:block], report=report, **options
        )[1]))
        assert [entry["points"] for entry in report["blocks"]] == [block]
        assert all(d.direct_solves == 1 for d in diags)
        assert peak <= budget, (options, peak / budget)
    assert fills == []


@pytest.mark.parametrize("form", ["row", "transient"])
def test_a_factored_block_stays_inside_its_memory_plan(form):
    """The factored engine's plan, ``16 · (2 pairs + 3 n)`` B per point, is
    its working set: the largest block the policy allows peaks below the
    budget and above three quarters of it.  The kernel's pair structures are
    built first — they are the kernel's, not the block's.  (The packed
    planar operator budgeted ``16 · (3 pairs + 3 n)`` and peaked at 3.9
    ``(pairs + n)`` per point, above it.)"""
    kernel = fan_out_kernel()
    alpha = np.zeros(kernel.n_states)
    alpha[0] = 1.0
    targets = [kernel.n_states - 1]
    solve = passage_transform_batch if form == "row" else transient_transform_batch
    budget = 8 << 20
    policy = SPointPolicy(engine="factored", max_block_bytes=budget)
    evaluator = kernel.evaluator()
    evaluator.factored().prewarm()
    block = policy.block_points(evaluator)
    grid = np.asarray(EulerInverter().required_s_points(np.asarray([2.0, 4.0, 6.0, 9.0])))
    assert 50 <= block <= grid.size
    solve(evaluator, alpha, targets, 1.1 * grid[:3], policy=policy)
    report: dict = {}
    peak = _traced_peak(
        lambda: solve(evaluator, alpha, targets, grid[:block], policy=policy, report=report)
    )
    assert [entry["points"] for entry in report["blocks"]] == [block]
    assert budget * 3 // 4 < peak <= budget, peak / budget
    # the same block routed whole to the LU stays inside the plan
    routed = replace(policy, predicted_iteration_limit=1)
    peak = _traced_peak(
        lambda: solve(evaluator, alpha, targets, 1.01 * grid[:block], policy=routed)
    )
    assert peak <= budget, peak / budget


def test_the_block_diagonal_structure_is_built_once_per_kernel(measure, monkeypatch):
    """Five passage ops on fresh grids, every narrowing of every block, and a
    transient: one build of the walk's window copies (per mask) and one of
    the transient's block-diagonal structure (per kernel) — and a wider block
    grows each, once."""
    kernel, alpha, targets, grid = measure
    builds = []
    real = kernel_module._diagonal_copies

    def counted(indptr, indices, width, stride):
        builds.append(width)
        return real(indptr, indices, width, stride)

    monkeypatch.setattr(kernel_module, "_diagonal_copies", counted)
    evaluator = kernel.evaluator()
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[targets] = True
    windows = evaluator.components(mask).bounds.size - 1
    for op in range(5):
        _, diags = passage_transform_batch(
            evaluator, alpha, targets, grid * (1.0 + 0.01 * op)
        )
        assert all(d.converged and d.solver == "iterative" for d in diags)
    # an inner and a cross structure per window
    assert builds == [grid.size] * 2 * windows
    transient_transform_batch(evaluator, alpha, targets, grid[:20])
    transient_transform_batch(evaluator, alpha, targets, grid[:10])
    assert builds == [grid.size] * 2 * windows + [20]
    passage_transform_batch(evaluator, alpha, targets, np.concatenate((grid, 1.5 * grid)))
    assert builds == [grid.size] * 2 * windows + [20] + [2 * grid.size] * 2 * windows
    # served as prefix views of the one retained structure
    first, second = (evaluator.block_diag_structure(7) for _ in range(2))
    assert all(np.shares_memory(a, b) for a, b in zip(first, second))
    n, nnz = kernel.n_states, kernel.n_transitions
    assert first[0].size == 7 * n + 1 and first[1].size == 7 * nnz
    assert first[0].dtype == first[1].dtype == np.int32


def test_structure_retention_follows_the_grid_lru_rule(measure, monkeypatch):
    """Never above :data:`~repro.smp.kernel.BLOCK_DIAG_RETAIN_BYTES`: handed
    out, not kept."""
    kernel, alpha, targets, grid = measure
    assert kernel_module.BLOCK_DIAG_RETAIN_BYTES == 256 << 20
    monkeypatch.setattr(kernel_module, "BLOCK_DIAG_RETAIN_BYTES", 4 * kernel.n_transitions * 10)
    evaluator = kernel.evaluator()
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
    weights = source_weights(kernel, [0, 3, kernel.n_states - 1]).astype(complex)
    points = np.asarray([4, 0, 5])
    table = evaluator.lst_table(s_block)
    got = evaluator.alpha_vec_matrix_batch(weights, table[points])
    whole = evaluator.alpha_vec_matrix_batch(weights, table)
    assert got.tobytes() == whole[points].tobytes()
    for row, t in zip(got, points):
        expected = np.asarray(weights @ u_matrix(kernel, complex(s_block[t]))).ravel()
        assert np.abs(row - expected).max() < 1e-14


def test_an_explicit_direct_solve_reads_the_grid_uncopied(measure, monkeypatch):
    """``solver="direct"`` fills no ``U`` grid: the LU is handed the points'
    rows of the block's one transform table and writes each point's entries
    from its row.  A routed run fills none either: its routed points' rows
    go to the LU, in input order, and its iterative points to a stepper —
    the passage's walk fills windows of its own, the transient's stepper its
    iterative points' data only."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    fills = _counted_fills(evaluator, monkeypatch)
    handed: list[np.ndarray] = []
    for name in ("passage", "transient"):
        real = getattr(DirectOrdering, name)

        def spy(self, table, *args, real=real):
            handed.append(table.copy())
            return real(self, table, *args)

        monkeypatch.setattr(DirectOrdering, name, spy)
    s_block = grid[:6]
    direct, diags = passage_transform_batch(evaluator, alpha, targets, s_block, solver="direct")
    assert {d.engine for d in diags} == {"direct-lu"}
    assert fills == []
    (table,) = handed
    assert table.tobytes() == evaluator.lst_table(s_block).tobytes()
    vectors = passage_transform_direct_batch(evaluator, targets, s_block)
    assert np.allclose(direct, vectors @ alpha, rtol=1e-13, atol=0.0)
    # three points so close to s = 0 that the default policy routes them
    routed = np.concatenate((grid[:3] * 1e-6, grid[3:6]))
    for solve in (passage_transform_batch, transient_transform_batch):
        handed.clear()
        _, diags = solve(evaluator, alpha, targets, routed)
        assert [d.solver for d in diags] == ["direct"] * 3 + ["iterative"] * 3
        (table,) = handed
        assert table.tobytes() == evaluator.lst_table(routed[:3]).tobytes()
    assert fills == [3]  # the transient stepper's, its iterative points'


@pytest.mark.parametrize("form", ["row", "transient"])
@pytest.mark.parametrize(
    "case", ["batch", "batch-routed", "factored", "factored-routed", "factored-fallback", "direct"]
)
def test_a_block_evaluates_its_transforms_once(case, form, monkeypatch):
    """One ``lst_table`` per block, whoever solves its points: either
    engine's iteration, the LU of policy-routed and cap-hit points on either
    engine, the explicit direct solve.  (The factored engine's routed and
    fallback points once evaluated their transforms a second time.)"""
    kernel = fan_out_kernel()
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1]
    s_block = np.asarray(EulerInverter().required_s_points([2.0]))[:6]
    engine, _, how = case.partition("-")
    policy = SPointPolicy(
        engine="auto" if engine == "direct" else engine,
        predicted_iteration_limit=1 if how == "routed" else 2000,
    )
    options = PassageTimeOptions(max_iterations=2 if how == "fallback" else 100_000)
    calls: list[int] = []
    real = UEvaluator.lst_table

    def spy(self, s_values):
        calls.append(np.size(s_values))
        return real(self, s_values)

    monkeypatch.setattr(UEvaluator, "lst_table", spy)
    solve = passage_transform_batch if form == "row" else transient_transform_batch
    report: dict = {}
    _, diags = solve(
        kernel, alpha, targets, s_block, options, policy=policy, report=report,
        solver="direct" if engine == "direct" else "iterative",
    )
    assert [entry["points"] for entry in report["blocks"]] == [s_block.size]
    assert calls == [s_block.size]
    solvers = {d.solver for d in diags}
    expected = {"": "iterative", "routed": "direct", "fallback": "direct-fallback"}[how]
    assert (solvers == {"direct"}) if engine == "direct" else (expected in solvers)
    assert report["engine"] == ("direct-lu" if engine == "direct" else engine)


def test_the_block_span_splits_into_its_layers(measure):
    """``route`` / ``lst-fill`` / ``drive`` under ``s-block-solve``, in that
    order — routing reads the transform table, then the block's one ``U``
    grid is written in run order: the product's own tracer answers "LST
    fill or product?"."""
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
    assert [r["name"] for r in layers] == ["route", "lst-fill", "drive"]
    assert sum(r["duration"] for r in layers) <= block["duration"]
    assert layers[2]["attributes"]["points"] == grid.size


def test_the_contraction_read_off_the_u_grid_is_u_primes(measure):
    """Routing reads ``|L| @ R`` off the transform table with the target
    states' sums zeroed: the row sums of ``|U'|`` to a few ulps — and on the
    bundled grids the same routing mask and the same run order."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[targets] = True
    u_prime = evaluator.u_data_batch(grid)
    u_prime[:, mask[kernel.csr.rows]] = 0.0
    expected = np.add.reduceat(np.abs(u_prime), kernel.csr.indptr[:-1], axis=1).max(axis=1)
    got = evaluator.contraction(evaluator.lst_table(grid), mask)
    assert np.abs(got - expected).max() <= 8 * np.finfo(float).eps * expected.max()
    policy = SPointPolicy()
    for epsilon in (1e-8, 1e-12):
        assert np.array_equal(
            policy.route_direct(epsilon, got), policy.route_direct(epsilon, expected)
        )
    assert np.array_equal(
        np.argsort(-got, kind="stable"), np.argsort(-expected, kind="stable")
    )


def test_a_fill_writes_its_grid_once(measure):
    """``fill_u_data`` peaks at its result, and ``u_data_batch`` at its
    result plus its transform table: no hidden output buffer (numpy's
    default ``take`` mode buffers ``out``, a second full-size grid)."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    table = evaluator.lst_table(grid)
    tracemalloc.start()
    try:
        filled = evaluator.fill_u_data(table)
        fill_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        batch = evaluator.u_data_batch(grid)
        batch_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy's fixed casting buffer (8,192 complex) for ``*= probs``, each
    # distribution's n_s-sized temporaries and Python objects
    slack = 256 << 10
    assert fill_peak <= filled.nbytes + slack
    assert batch_peak - filled.nbytes <= batch.nbytes + table.nbytes + slack
    assert filled.tobytes() == batch.tobytes()


def _routing_limit(evaluator, form_mask, grid, share):
    """A ``predicted_iteration_limit`` that routes about ``share`` of
    ``grid`` to the LU, halfway between two points' predictions so that no
    point sits on the boundary."""
    policy = SPointPolicy()
    predicted = np.sort(policy.predicted_iterations(
        1e-8, evaluator.contraction(evaluator.lst_table(grid), form_mask)
    ))
    k = int(round((1.0 - share) * grid.size))
    return int((predicted[k - 1] + predicted[k]) / 2)


@pytest.mark.parametrize("transient", [False, True])
def test_a_block_mostly_routed_to_lu_solves_its_points_as_blocks_of_one(measure, transient):
    """More than half the block routed, the rest iterated: the iterating
    points sit at the head of the grid and turn it into ``M`` in place, the
    routed ones read its unzeroed tail.  Values, iteration counts and the
    block's work are those of each point solved in a block of its own."""
    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    solve = transient_transform_batch if transient else passage_transform_batch
    absorbing = np.zeros(kernel.n_states, dtype=bool)
    if not transient:
        absorbing[targets] = True
    # nearer s = 0 than the inversion grid, where zeroing the targets' rows
    # moves values by 1e-2 and iteration counts twofold
    s_block = 0.2 * grid[::3]
    policy = SPointPolicy(
        predicted_iteration_limit=_routing_limit(evaluator, absorbing, s_block, 0.6)
    )
    report: dict = {}
    values, diags = solve(evaluator, alpha, targets, s_block, policy=policy, report=report)
    routed = sum(d.solver == "direct" for d in diags)
    assert s_block.size / 2 < routed < s_block.size
    (block,) = report["blocks"]
    exact, _ = solve(evaluator, alpha, targets, s_block, solver="direct")
    assert np.abs(values - exact).max() < 1e-7
    alone_values, alone_diags, alone_blocks = [], [], []
    for s in s_block:
        alone: dict = {}
        value, (diag,) = solve(evaluator, alpha, targets, [s], policy=policy, report=alone)
        alone_values.append(value[0])
        alone_diags.append(diag)
        alone_blocks += alone["blocks"]
    assert values.tobytes() == np.asarray(alone_values).tobytes()
    assert [(d.solver, d.iterations, d.converged) for d in diags] == [
        (d.solver, d.iterations, d.converged) for d in alone_diags
    ]
    for key in ("points", "iterations", "direct_solves", "unconverged"):
        assert block[key] == sum(entry[key] for entry in alone_blocks), key


def test_a_source_inside_the_target_set_starts_from_unzeroed_u():
    """Eq. 10's first term is ``alpha U``: a source that is a target leaves
    on its own first step, so the start product reads the grid before the
    target rows are zeroed — also in a block that routes points to the LU."""
    kernel = random_kernel(np.random.default_rng(11), 14, density=0.4)
    targets = np.asarray([2, 5, 9])
    alpha = np.zeros(kernel.n_states)
    alpha[2] = 1.0
    first_step = kernel.csr.probs[kernel.evaluator().row_entries(np.asarray([2]))]
    assert np.isin(kernel.csr.indices[kernel.evaluator().row_entries(np.asarray([2]))],
                   targets).any() and first_step.sum() == pytest.approx(1.0)
    s_block = np.asarray(EulerInverter().required_s_points(np.asarray([1.0, 3.0])))
    exact, _ = passage_transform_batch(kernel, alpha, targets, s_block, solver="direct")
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[targets] = True
    for limit in (2000, _routing_limit(kernel.evaluator(), mask, s_block, 0.5)):
        policy = SPointPolicy(predicted_iteration_limit=limit)
        values, diags = passage_transform_batch(kernel, alpha, targets, s_block, policy=policy)
        assert any(d.solver == "iterative" for d in diags)
        assert np.abs(values - exact).max() < 1e-7
        assert np.abs(exact).min() > 1e-3  # a zeroed start would give 0


def test_a_solve_leaves_nothing_on_the_evaluator(measure):
    """The evaluator keeps the block-diagonal structure and no grid: once it
    exists, a solve on a fresh grid returns traced memory to its baseline."""
    import gc

    kernel, alpha, targets, grid = measure
    evaluator = kernel.evaluator()
    passage_transform_batch(evaluator, alpha, targets, grid)
    transient_transform_batch(evaluator, alpha, targets, grid)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for scale in (1.01, 1.02):
            passage_transform_batch(evaluator, alpha, targets, scale * grid)
            transient_transform_batch(evaluator, alpha, targets, scale * grid)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    one_grid = grid.size * kernel.n_transitions * 16
    assert retained < min(64 << 10, one_grid // 10), retained
