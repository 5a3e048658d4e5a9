"""The row form's frontier: it multiplies only the source rows its state can
have reached, and the values are the full product's, byte for byte.

Every comparison runs one solve on a plain evaluator and one on an evaluator
whose ``reach`` table says ``n`` everywhere — the full product of every step
— and compares ``tobytes()``: the skipped entries multiply state entries that
are exactly ``+0.0``, and each point keeps its column order.  Both are also
held to the one-point oracle, which has no frontier to share a mistake with.
The transient runs the same iteration without absorbing states, so it is
checked the same way against Pyke's relations.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.smp import SMPKernel, passage_transform_batch, transient_transform_batch
from repro.smp import passage as passage_module

from tests.reference import passage_transform, transient_transform

from .conftest import ITERATIVE_ONLY, random_kernel, voting_measure

GRID = np.array([0.4 + 1.5j, 1.0 - 3.0j, 2.5 + 0.5j, 0.2 + 6.0j, 4.0 + 0.0j, 0.7 - 0.7j])


@pytest.fixture(scope="module")
def voting():
    """Two bundled voting models' passage measures (226 and 1,876 states)."""
    return [voting_measure(8, 3, 2), voting_measure(18, 6, 3)]


def _full_product(kernel):
    evaluator = kernel.evaluator()
    evaluator.reach = np.full(kernel.n_states + 1, kernel.n_states)
    return evaluator


def _edges(solve) -> int:
    counter = get_metrics().counter(
        "repro_product_edges_total", labelnames=("engine",)
    )
    before = counter.value(engine="batch")
    solve()
    return counter.value(engine="batch") - before


def _assert_same_solve(kernel, alpha, targets, grid=GRID, *, transient=False):
    """Frontier and full product agree byte for byte; returns the edge-point
    products of each."""
    transform = transient_transform_batch if transient else passage_transform_batch
    runs = []
    for evaluator in (kernel.evaluator(), _full_product(kernel)):
        got = {}

        def solve():
            got["values"], got["diags"] = transform(
                evaluator, alpha, targets, grid, policy=ITERATIVE_ONLY
            )

        runs.append((_edges(solve), got["values"], got["diags"]))
    (frontier_edges, frontier, frontier_diags), (full_edges, full, full_diags) = runs
    assert frontier.tobytes() == full.tobytes()
    assert [(d.iterations, d.final_delta) for d in frontier_diags] == [
        (d.iterations, d.final_delta) for d in full_diags
    ]
    if transient:
        # the renewal sum and Pyke's per-target sums truncate differently
        oracle = [transient_transform(kernel, alpha, targets, s) for s in grid]
        np.testing.assert_allclose(frontier, oracle, rtol=0, atol=5e-8)
    else:
        oracle = [passage_transform(kernel, alpha, targets, s)[0] for s in grid]
        np.testing.assert_allclose(frontier, oracle, rtol=1e-9, atol=1e-12)
    return frontier_edges, full_edges


def test_the_reach_table_bounds_one_product():
    kernel = random_kernel(np.random.default_rng(3), 12, density=0.15)
    reach = kernel.evaluator().reach
    n, csr = kernel.n_states, kernel.csr
    assert reach.shape == (n + 1,) and reach[0] == 0
    assert (np.diff(reach) >= 0).all()
    for h in range(1, n + 1):
        assert reach[h] == 1 + csr.indices[: csr.indptr[h]].max()


def test_bundled_voting_models(voting):
    for kernel, alpha, targets in voting:
        frontier_edges, full_edges = _assert_same_solve(kernel, alpha, targets)
        # the frontier is real on exploration-ordered models
        assert frontier_edges < 0.9 * full_edges


def test_the_transient_takes_the_same_frontier(voting):
    kernel, alpha, targets = voting[0]
    frontier_edges, full_edges = _assert_same_solve(kernel, alpha, targets, transient=True)
    assert frontier_edges < 0.9 * full_edges
    n = kernel.n_states
    late = np.zeros(n)
    late[[n - 5, n - 2]] = 0.5
    _assert_same_solve(kernel, late, targets[:2], GRID[:3], transient=True)


def test_alpha_on_late_states_only(voting):
    kernel, _, targets = voting[0]
    n = kernel.n_states
    for late in ([n - 1], [n - 5, n - 2], [n // 2]):
        alpha = np.zeros(n)
        alpha[late] = 1.0 / len(late)
        _assert_same_solve(kernel, alpha, targets)


def test_sources_inside_the_target_set(voting):
    kernel, alpha, targets = voting[0]
    inside = np.zeros(kernel.n_states)
    inside[targets[:2]] = 0.5
    _assert_same_solve(kernel, inside, targets)
    mixed = 0.5 * alpha
    mixed[targets[0]] += 0.5
    _assert_same_solve(kernel, mixed, targets)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=3, max_value=30),
    density=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=40, deadline=None)
def test_randomly_numbered_kernels(seed, n, density):
    """No exploration order to lean on: a random relabelling of a random
    kernel, random sources and targets."""
    rng = np.random.default_rng(seed)
    base = random_kernel(rng, n, density=density)
    label = rng.permutation(n)
    csr = base.csr
    kernel = SMPKernel(
        n, label[csr.rows], label[csr.indices], csr.probs, csr.dist_index,
        base.distributions,
    )
    alpha = np.zeros(n)
    alpha[rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] = 1.0
    alpha /= alpha.sum()
    targets = np.sort(rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
    _assert_same_solve(kernel, alpha, targets, GRID[:3])


def test_per_point_regime(voting, monkeypatch):
    """Above BLOCKDIAG_MAX_BYTES the same per-point call runs — frontier and
    all — and a block that narrows into the block-diagonal product mid-run
    changes nothing either: passage and transient, against the default full
    product."""
    kernel, alpha, targets = voting[1]
    reference = passage_transform_batch(
        _full_product(kernel), alpha, targets, GRID, policy=ITERATIVE_ONLY
    )[0]
    transient = transient_transform_batch(
        _full_product(kernel), alpha, targets[:3], GRID, policy=ITERATIVE_ONLY
    )[0]
    for threshold in (0, 16 * kernel.n_states * 2):
        monkeypatch.setattr(passage_module, "BLOCKDIAG_MAX_BYTES", threshold)
        got = passage_transform_batch(kernel, alpha, targets, GRID, policy=ITERATIVE_ONLY)[0]
        assert got.tobytes() == reference.tobytes()
        got = transient_transform_batch(
            kernel, alpha, targets[:3], GRID, policy=ITERATIVE_ONLY
        )[0]
        assert got.tobytes() == transient.tobytes()


def test_the_drive_span_and_counter_carry_the_edges_taken(voting):
    kernel, alpha, targets = voting[1]
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        report: dict = {}
        edges = _edges(lambda: passage_transform_batch(
            kernel, alpha, targets, GRID, policy=ITERATIVE_ONLY, report=report
        ))
        (drive,) = [span for span in tracer.spans() if span["name"] == "drive"]
    finally:
        tracer.disable()
        tracer.clear()
    (block,) = report["blocks"]
    assert "product_edges" not in block  # nothing new on the wire
    assert drive["attributes"]["product_edges"] == edges
    assert 0 < edges < block["product_rows"] * kernel.n_transitions


def test_the_prefix_call_is_scipys_product():
    """The per-point call over the first ``hi`` source rows equals scipy's
    ``csc_matrix @ x`` byte for byte whenever ``x`` is zero from ``hi`` on —
    a guard on the private kernel's signature and accumulation order across
    scipy releases."""
    rng = np.random.default_rng(11)
    kernel = random_kernel(rng, 40, density=0.1)
    n, nnz = kernel.n_states, kernel.n_transitions
    indptr, indices = kernel.evaluator().block_diag_structure(1)
    assert indptr.dtype == indices.dtype == np.int32
    data = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    transposed = sparse.csc_matrix((data, indices, indptr), shape=(n, n))
    for hi in (1, 7, n // 2, n):
        x = np.zeros(n, dtype=complex)
        x[:hi] = rng.standard_normal(hi) + 1j * rng.standard_normal(hi)
        out = np.zeros(n, dtype=complex)
        _sparsetools.csc_matvec(
            n, hi, indptr[: hi + 1], indices, data[: indptr[hi]], x, out
        )
        assert out.tobytes() == (transposed @ x).tobytes()
