"""Factored vs batch vs scalar parity of the multi-s transform engines.

The distribution-factored engine must be a drop-in replacement for the
batched per-edge-data engine, which itself matches the scalar loops: all
three apply the same truncation rule, so values agree to float associativity
(asserted at 1e-10) and iteration counts agree exactly.  Parity is checked
across every bundled model family, both measures the row form sums (the
passage over the target-absorbing ``U'`` and the transient over the plain
``U``), real-dominated
Euler grids and the complex Laguerre contour, plus the degenerate shapes the
factoring must survive: a single-distribution kernel and a heavy-Mixture
kernel where almost every edge carries a distinct distribution.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Mixture,
    Uniform,
    Weibull,
)
from repro.laplace.euler import euler_s_points
from repro.laplace.laguerre import LaguerreInverter
from repro.models import (
    SCALED_CONFIGURATIONS,
    alternating_renewal_kernel,
    birth_death_kernel,
    build_voting_kernel,
    cyclic_server_kernel,
    mg1_queue_kernel,
)
from repro.smp import passage as passage_module
from repro.smp import (
    PassageTimeOptions,
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    source_weights,
    transient_transform_batch,
)
from tests import reference
from tests.reference import passage_transform, transient_transform
from tests.smp.conftest import random_kernel

#: pure-iterative policies, one per engine (no direct routing, no fallback)
FACTORED = SPointPolicy(
    engine="factored", predicted_iteration_limit=10**9, fallback_to_direct=False
)
BATCH = SPointPolicy(
    engine="batch", predicted_iteration_limit=10**9, fallback_to_direct=False
)

EULER_GRID = np.concatenate([euler_s_points(t) for t in (0.8, 2.5)])
LAGUERRE_GRID = LaguerreInverter().required_s_points([1.0])[:24]


def single_distribution_kernel():
    """Every transition shares one Erlang sojourn (n_dists == 1)."""
    b = SMPBuilder()
    for i in range(6):
        b.add_state(f"s{i}")
    d = Erlang(1.5, 2)
    for i in range(6):
        b.add_transition(i, (i + 1) % 6, 0.7, d)
        b.add_transition(i, (i + 2) % 6, 0.3, d)
    return b.build()


def heavy_mixture_kernel():
    """Almost every edge carries a distinct Mixture (n_dists ~ n_edges)."""
    b = SMPBuilder()
    n = 7
    for i in range(n):
        b.add_state(f"s{i}")
    for i in range(n):
        mix = Mixture(
            [Uniform(0.1 * (i + 1), 1.0 + 0.2 * i), Erlang(1.0 + 0.3 * i, 1 + i % 3)],
            [0.6, 0.4],
        )
        b.add_transition(i, (i + 1) % n, 0.8, mix)
        b.add_transition(i, (i + 3) % n, 0.2, Weibull(1.2, 0.5 + 0.1 * i))
    return b.build()


def bundled_kernels():
    voting, _ = build_voting_kernel(SCALED_CONFIGURATIONS["tiny"])
    return {
        "birth_death": birth_death_kernel(6),
        "alternating_renewal": alternating_renewal_kernel(),
        "cyclic_server": cyclic_server_kernel(),
        "mg1_queue": mg1_queue_kernel(8),
        "voting_tiny": voting,
        "single_distribution": single_distribution_kernel(),
        "heavy_mixture": heavy_mixture_kernel(),
        "deterministic_mix": _det_mix_kernel(),
    }


def _det_mix_kernel():
    b = SMPBuilder()
    for i in range(5):
        b.add_state(f"s{i}")
    b.add_transition(0, 1, 1.0, Deterministic(0.4))
    b.add_transition(1, 2, 0.5, Exponential(2.0))
    b.add_transition(1, 3, 0.5, Uniform(0.1, 0.9))
    b.add_transition(2, 4, 1.0, Erlang(2.0, 2))
    b.add_transition(3, 4, 1.0, Deterministic(0.2))
    b.add_transition(4, 0, 1.0, Exponential(1.0))
    return b.build()


KERNELS = bundled_kernels()


@pytest.mark.parametrize("grid_name,grid", [("euler", EULER_GRID), ("laguerre", LAGUERRE_GRID)])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_passage_parity_across_engines(name, grid_name, grid):
    kernel = KERNELS[name]
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1]
    fac, fac_diags = passage_transform_batch(kernel, alpha, targets, grid, policy=FACTORED)
    bat, bat_diags = passage_transform_batch(kernel, alpha, targets, grid, policy=BATCH)
    assert np.abs(fac - bat).max() < 1e-10
    for df, db in zip(fac_diags, bat_diags):
        assert df.iterations == db.iterations
        assert df.engine == "factored" and db.engine == "batch"
    # scalar oracle on a subset (the scalar loop is slow)
    for t in range(0, grid.size, 7):
        scalar, _ = passage_transform(kernel, alpha, targets, complex(grid[t]))
        assert fac[t] == pytest.approx(scalar, abs=1e-10)


@pytest.mark.parametrize(
    "name,cap",
    [(name, None) for name in sorted(KERNELS)] + [("mg1_queue", 5)],
    ids=[*sorted(KERNELS), "mg1_queue-cap-hit-fallback"],
)
def test_vector_parity_across_engines(name, cap):
    """The transient's row form — the plain ``U`` iteration with the weighted
    accumulation — must agree between engines on every bundled kernel.  With
    an iteration ``cap`` the points that hit it are re-solved directly — the
    one route (transient × factored × fallback) no benchmark workload
    drives."""
    kernel = KERNELS[name]
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1]
    if cap is None:
        options, fac_policy, bat_policy = None, FACTORED, BATCH
    else:
        options = PassageTimeOptions(max_iterations=cap)
        fac_policy = SPointPolicy(engine="factored", predicted_iteration_limit=10**9)
        bat_policy = SPointPolicy(engine="batch", predicted_iteration_limit=10**9)
    fac, fac_diags = transient_transform_batch(
        kernel, alpha, targets, EULER_GRID, options, policy=fac_policy
    )
    bat, bat_diags = transient_transform_batch(
        kernel, alpha, targets, EULER_GRID, options, policy=bat_policy
    )
    assert np.abs(fac - bat).max() < 1e-10
    for df, db in zip(fac_diags, bat_diags):
        assert df.iterations == db.iterations
        assert df.engine == "factored" and db.engine == "batch"
    if cap is None:
        exact = transient_transform(kernel, alpha, targets, complex(EULER_GRID[3]), solver="direct")
        assert abs(fac[3] - exact) < 1e-8
    else:
        fell_back = np.array([d.solver == "direct-fallback" for d in fac_diags])
        assert fell_back.any() and not fell_back.all()  # a mixed block
        for df, db, hit in zip(fac_diags, bat_diags, fell_back):
            assert df.solver == db.solver == ("direct-fallback" if hit else "iterative")
            assert df.converged and df.direct_solves == db.direct_solves == int(hit)
            assert df.matvec_count == df.iterations + 1
        exact, _ = transient_transform_batch(
            kernel, alpha, targets, EULER_GRID[fell_back], solver="direct"
        )
        assert np.array_equal(fac[fell_back], exact)
        assert np.array_equal(bat[fell_back], exact)


@pytest.mark.parametrize("name", ["voting_tiny", "heavy_mixture", "single_distribution"])
def test_transient_parity_across_engines(name):
    kernel = KERNELS[name]
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1, kernel.n_states - 2]
    fac, _ = transient_transform_batch(kernel, alpha, targets, EULER_GRID, policy=FACTORED)
    bat, _ = transient_transform_batch(kernel, alpha, targets, EULER_GRID, policy=BATCH)
    assert np.abs(fac - bat).max() < 1e-10


def test_multi_target_absorbing_parity():
    """A multi-state target set exercises the row-mask variants properly."""
    kernel = random_kernel(np.random.default_rng(11), 12)
    alpha = source_weights(kernel, [0, 1])
    targets = [5, 8, 11]
    fac, _ = passage_transform_batch(kernel, alpha, targets, EULER_GRID, policy=FACTORED)
    bat, _ = passage_transform_batch(kernel, alpha, targets, EULER_GRID, policy=BATCH)
    assert np.abs(fac - bat).max() < 1e-10


def test_factored_u_product_against_matrix():
    """The factored row operator reproduces dense ``U'(s)`` products for a
    passage and ``U(s)`` products with the weighted sums for a transient."""
    from repro.smp.factored import FactoredRowOperator

    kernel = random_kernel(np.random.default_rng(3), 9)
    evaluator = kernel.evaluator()
    fac = evaluator.factored()
    s_block = np.array([0.7 + 0.4j, 1.3 - 2.0j, 0.2 + 5.0j])
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[[2, 6]] = True
    alpha = np.asarray(source_weights(kernel, [0]), dtype=complex)

    row = FactoredRowOperator(fac, s_block, mask, alpha, np.flatnonzero(mask))
    row.start()
    for t, s in enumerate(s_block):
        expected = np.asarray(alpha @ reference.u_matrix(kernel, complex(s))).ravel()
        got = row._state[:, t] + 1j * row._state[:, s_block.size + t]
        assert np.abs(got - expected).max() < 1e-12
    row.step()  # one application of U'
    for t, s in enumerate(s_block):
        v0 = np.asarray(alpha @ reference.u_matrix(kernel, complex(s))).ravel()
        expected = v0 @ reference.u_prime(kernel, complex(s), mask)
        got = row._state[:, t] + 1j * row._state[:, s_block.size + t]
        assert np.abs(got - expected).max() < 1e-12

    targets = np.asarray([0, 2, 6])
    weights = np.stack([
        (1.0 - reference.sojourn_lsts(kernel, complex(s))[targets]) / s for s in s_block
    ])
    transient = FactoredRowOperator(
        fac, s_block, np.zeros(kernel.n_states, dtype=bool), alpha, targets, weights
    )
    transient.start()
    transient.step()  # one application of U: nothing absorbed
    for t, s in enumerate(s_block):
        u = reference.u_matrix(kernel, complex(s))
        terms = [alpha, np.asarray(alpha @ u).ravel()]
        terms.append(terms[-1] @ u)
        got = transient._state[:, t] + 1j * transient._state[:, s_block.size + t]
        assert np.abs(got - terms[-1]).max() < 1e-12
        expected = sum(term[targets] @ weights[t] for term in terms)
        assert abs(transient.take(np.asarray([t]))[0] - expected) < 1e-12


def test_blocked_grid_matches_unblocked():
    """A tiny memory budget forces many blocks; values and iteration counts
    must be bit-identical to the single-block solve."""
    kernel = KERNELS["voting_tiny"]
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1]
    for engine in ("batch", "factored"):
        one = SPointPolicy(engine=engine, predicted_iteration_limit=10**9,
                           fallback_to_direct=False)
        many = SPointPolicy(engine=engine, predicted_iteration_limit=10**9,
                            fallback_to_direct=False, max_block_bytes=1 << 20)
        report: dict = {}
        v1, d1 = passage_transform_batch(kernel, alpha, targets, EULER_GRID, policy=one)
        v2, d2 = passage_transform_batch(
            kernel, alpha, targets, EULER_GRID, policy=many, report=report
        )
        assert np.array_equal(v1, v2)
        assert [d.iterations for d in d1] == [d.iterations for d in d2]
        assert report["engine"] == engine
        assert len(report["blocks"]) >= 1
        assert sum(b["points"] for b in report["blocks"]) == EULER_GRID.size
        assert all(b["seconds"] >= 0 for b in report["blocks"])
    # An explicit direct solve is blocked by the same loop (batch sizing,
    # whatever engine the kernel iterates on) and labelled direct-lu.
    kernel = random_kernel(np.random.default_rng(2), 30, density=0.9)
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1]
    one_report: dict = {}
    many_report: dict = {}
    v1, d1 = passage_transform_batch(
        kernel, alpha, targets, EULER_GRID, solver="direct", report=one_report
    )
    v2, d2 = passage_transform_batch(
        kernel, alpha, targets, EULER_GRID, solver="direct",
        policy=SPointPolicy(max_block_bytes=1 << 20), report=many_report,
    )
    assert [v.hex() for v in v1.view(float)] == [v.hex() for v in v2.view(float)]
    assert len(one_report["blocks"]) == 1 and len(many_report["blocks"]) > 1
    assert one_report["engine"] == many_report["engine"] == "direct-lu"
    assert sum(b["direct_solves"] for b in many_report["blocks"]) == EULER_GRID.size
    assert all(d.solver == "direct" and d.engine == "direct-lu" for d in d1 + d2)


def test_perpoint_submode_matches_blockdiag(monkeypatch):
    """Forcing the per-point sparse matvec sub-mode changes nothing."""
    kernel = KERNELS["mg1_queue"]
    alpha = source_weights(kernel, [0])
    targets = [kernel.n_states - 1]
    policy = SPointPolicy(engine="batch", predicted_iteration_limit=10**9,
                          fallback_to_direct=False)
    v1, d1 = passage_transform_batch(kernel, alpha, targets, EULER_GRID, policy=policy)
    m1, c1 = transient_transform_batch(kernel, alpha, targets, EULER_GRID, policy=policy)
    monkeypatch.setattr(passage_module, "BLOCKDIAG_MAX_BYTES", 0)
    v2, d2 = passage_transform_batch(kernel, alpha, targets, EULER_GRID, policy=policy)
    assert np.array_equal(v1, v2)
    assert [d.iterations for d in d1] == [d.iterations for d in d2]
    m2, c2 = transient_transform_batch(kernel, alpha, targets, EULER_GRID, policy=policy)
    assert np.array_equal(m1, m2)
    assert [d.iterations for d in c1] == [d.iterations for d in c2]


def test_u_data_batch_chunked_fill_and_out():
    """The chunked fill produces the same data as a one-shot gather, honours
    ``out=`` and never retains oversized grids in the LRU."""
    kernel = KERNELS["voting_tiny"]
    evaluator = kernel.evaluator()
    grid = np.concatenate([euler_s_points(t) for t in (0.5, 1.0, 2.0)])
    reference = evaluator.u_data_batch(grid).copy()

    chunky = kernel.evaluator()
    chunky.batch_fill_bytes = 4096  # forces many tiny fill chunks
    assert np.array_equal(chunky.u_data_batch(grid), reference)

    out = np.empty((grid.size, kernel.n_transitions), dtype=complex)
    shared = kernel.evaluator()
    result = shared.u_data_batch(grid, out=out)
    assert result is out and np.array_equal(out, reference)
    with pytest.raises(ValueError, match="shape"):
        kernel.evaluator().u_data_batch(grid, out=np.empty((1, 1), dtype=complex))
    # A caller-owned buffer must not be captured by the LRU: scribbling over
    # it after the call must not corrupt later cache hits.
    out[:] = -1.0
    assert np.array_equal(shared.u_data_batch(grid), reference)

    tiny_cache = kernel.evaluator()
    tiny_cache._batch_cache.max_entry_bytes = 8  # everything is "too big"
    first = tiny_cache.u_data_batch(grid)
    second = tiny_cache.u_data_batch(grid)
    assert first is not second and np.array_equal(first, second)


def test_transient_direct_solver_uses_batch_block_sizing():
    """solver='direct' materialises O(block·nnz) data whatever engine the
    policy resolved, so its blocks must follow the batch budget."""
    kernel = random_kernel(np.random.default_rng(2), 30, density=0.9)
    evaluator = kernel.evaluator()
    policy = SPointPolicy(max_block_bytes=1 << 20)
    assert policy.resolve_engine(evaluator) == "factored"
    alpha = source_weights(kernel, [0])
    report: dict = {}
    grid = EULER_GRID[:12]
    direct, _ = transient_transform_batch(
        kernel, alpha, [kernel.n_states - 1], grid,
        solver="direct", policy=policy, report=report,
    )
    expected_block = SPointPolicy(
        engine="batch", max_block_bytes=1 << 20
    ).block_points(evaluator)
    assert report["engine"] == "direct-lu"
    assert all(b["points"] <= expected_block for b in report["blocks"])
    iterative, _ = transient_transform_batch(
        kernel, alpha, [kernel.n_states - 1], grid, policy=policy
    )
    assert np.abs(direct - iterative).max() < 1e-6


def _sorted_pair_count(evaluator) -> int:
    """The (distribution, source) pair count the slow way: sort the edge keys."""
    csr = evaluator.kernel.csr
    keys = csr.dist_index * np.int64(evaluator.kernel.n_states)
    return int(np.unique(keys + csr.rows).size)


def test_policy_engine_selection(monkeypatch):
    dense = random_kernel(np.random.default_rng(0), 40, density=0.9)
    sparse_kernel = KERNELS["birth_death"]
    policy = SPointPolicy()
    assert policy.resolve_engine(dense.evaluator()) == "factored"
    assert policy.resolve_engine(sparse_kernel.evaluator()) == "batch"
    # the auto choice is made once per evaluator and remembered on it
    evaluator = dense.evaluator()
    assert policy.resolve_engine(evaluator) == "factored"
    monkeypatch.setattr(
        type(evaluator.factored()), "density_ratio",
        lambda self: pytest.fail("auto engine decided twice"),
    )
    assert policy.resolve_engine(evaluator) == "factored"
    assert SPointPolicy(engine="batch").resolve_engine(evaluator) == "batch"
    monkeypatch.undo()
    # the pair count behind it needs no sort: same integer as np.unique on
    # every bundled model and on seeded random kernels
    seeded = [
        random_kernel(np.random.default_rng(seed), n, density=density)
        for seed, n, density in [(0, 40, 0.9), (1, 25, 0.3), (2, 30, 0.9), (3, 9, 0.5)]
    ]
    for kernel in [*KERNELS.values(), *seeded]:
        evaluator = kernel.evaluator()
        assert evaluator.factored().row_pair_count == _sorted_pair_count(evaluator)
    # distribution cap forces batch even on dense kernels
    monkeypatch.setattr(passage_module, "FACTORED_MAX_DISTRIBUTIONS", 1)
    assert policy.resolve_engine(dense.evaluator()) == "batch"
    forced = SPointPolicy(engine="factored")
    assert forced.resolve_engine(sparse_kernel.evaluator()) == "factored"
    with pytest.raises(ValueError, match="engine"):
        SPointPolicy(engine="turbo")
    with pytest.raises(ValueError, match="max_block_bytes"):
        SPointPolicy(max_block_bytes=1)


def test_policy_block_points_respects_budget():
    kernel = KERNELS["voting_tiny"]
    evaluator = kernel.evaluator()
    policy = SPointPolicy(max_block_bytes=1 << 20)
    for engine in ("batch", "factored"):
        block = SPointPolicy(engine=engine, max_block_bytes=1 << 20).block_points(evaluator)
        assert block >= 1
        big = SPointPolicy(engine=engine, max_block_bytes=1 << 34).block_points(evaluator)
        assert big > block


def test_direct_max_states_gates_lu_routing(monkeypatch):
    """Kernels above DIRECT_MAX_STATES never route to the LU solver: hard
    points come back truncated-unconverged instead of paying a factorisation."""
    kernel = KERNELS["birth_death"]
    alpha = source_weights(kernel, [0])
    tiny_s = np.array([1e-10 + 1e-10j])
    options_cap = None
    routed = SPointPolicy(predicted_iteration_limit=10)
    values, diags = passage_transform_batch(kernel, alpha, [3], tiny_s, options_cap, policy=routed)
    assert diags[0].solver == "direct"
    monkeypatch.setattr(passage_module, "DIRECT_MAX_STATES", 1)
    values, diags = passage_transform_batch(
        kernel, alpha, [3], tiny_s, PassageTimeOptions(max_iterations=20), policy=routed
    )
    assert diags[0].solver == "iterative"
    assert not diags[0].converged
    # an explicit direct solve is a request, not a routing decision
    values, diags = passage_transform_batch(kernel, alpha, [3], tiny_s, solver="direct")
    assert diags[0].solver == "direct" and diags[0].converged


def test_factored_contraction_matches_batch():
    kernel = KERNELS["heavy_mixture"]
    evaluator = kernel.evaluator()
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[0] = True
    grid = EULER_GRID[:8]
    u_prime = evaluator.u_data_batch(grid).copy()
    u_prime[:, mask[kernel.csr.rows]] = 0.0  # the target states' rows
    batch_contraction = evaluator.row_abs_sums(u_prime).max(axis=1)
    fac_contraction = evaluator.factored().contraction(grid, mask, chunk=3)
    assert np.abs(batch_contraction - fac_contraction).max() < 1e-12


def test_factored_sojourn_matches_evaluator():
    kernel = KERNELS["voting_tiny"]
    evaluator = kernel.evaluator()
    grid = EULER_GRID[:6]
    assert np.abs(
        evaluator.factored().sojourn_lst_batch(grid) - evaluator.sojourn_lst_batch(grid)
    ).max() < 1e-12


def test_factored_structures_cached():
    kernel = KERNELS["mg1_queue"]
    evaluator = kernel.evaluator()
    assert evaluator.factored() is evaluator.factored()
    fac = evaluator.factored()
    mask = np.zeros(kernel.n_states, dtype=bool)
    mask[1] = True
    assert fac.row_structure(mask) is fac.row_structure(mask)
    assert fac.row_pair_count <= kernel.n_transitions
    assert fac.density_ratio() > 0
