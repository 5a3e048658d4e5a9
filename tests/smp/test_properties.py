"""Hypothesis property tests on random SMP kernels."""
from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.jobs import PassageTimeJob
from repro.distributed import CheckpointStore
from repro.simulation import simulate_passage_times
from repro.smp import (
    KernelPlane,
    SMPKernel,
    dtmc_steady_state,
    kernel_content_digest,
    passage_transform_direct_batch,
    smp_steady_state,
    source_weights,
)
from tests import reference
from tests.oneloop import LoopRun
from tests.smp.conftest import random_kernel, vector_block_of_one


kernel_seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=3, max_value=14)
s_values = st.tuples(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-8.0, max_value=8.0),
).map(lambda t: complex(*t))


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=40, deadline=None)
def test_iterative_agrees_with_direct_solver(seed, n, s):
    """Core invariant of the reproduction: Eq. (10)'s truncated sum converges
    to the solution of the linear system of Eq. (2)."""
    kernel = random_kernel(np.random.default_rng(seed), n)
    target = [seed % n]
    iterative, diag = vector_block_of_one(kernel, target, s)
    direct = reference.passage_transform_direct(kernel, target, s)
    assert diag.converged
    assert np.allclose(iterative, direct, atol=1e-7)


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=40, deadline=None)
def test_passage_transform_magnitude_bounded(seed, n, s):
    """|L(s)| <= 1 on the right half plane — it is the transform of a density."""
    kernel = random_kernel(np.random.default_rng(seed), n)
    vec, _ = vector_block_of_one(kernel, [0], s)
    assert np.all(np.abs(vec) <= 1.0 + 1e-8)


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_embedded_steady_state_is_stationary(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    P = kernel.embedded_matrix()
    pi = dtmc_steady_state(P)
    assert np.all(pi >= -1e-12)
    assert abs(pi.sum() - 1.0) < 1e-9
    assert np.allclose(pi @ P.toarray(), pi, atol=1e-8)


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_smp_steady_state_is_distribution(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    pi = smp_steady_state(kernel)
    assert np.all(pi >= -1e-12)
    assert abs(pi.sum() - 1.0) < 1e-9


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_source_weights_supported_on_sources(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    sources = sorted({0, n // 2, n - 1})
    alpha = source_weights(kernel, sources)
    assert abs(alpha.sum() - 1.0) < 1e-9
    support = np.where(alpha > 0)[0]
    assert set(support).issubset(set(sources))


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=30, deadline=None)
def test_reachability_probability_at_small_s(seed, n, s):
    """As s -> 0 the passage transform approaches 1 (target reached a.s.)."""
    kernel = random_kernel(np.random.default_rng(seed), n)
    (vec,) = passage_transform_direct_batch(kernel, [n - 1], [1e-10])
    assert np.allclose(vec, 1.0, atol=1e-5)


# --- the kernel image: one CSR, owned by the kernel, shared by every reader ---


def _shuffled_columns(kernel: SMPKernel, rng: np.random.Generator):
    """The kernel's edges as ``(src, dst, probs, dist_index)`` in a seeded
    random order — what a caller might have inserted."""
    shuffle = rng.permutation(kernel.n_transitions)
    csr = kernel.csr
    return tuple(
        column[shuffle] for column in (csr.rows, csr.indices, csr.probs, csr.dist_index)
    )


def _reinserted(kernel: SMPKernel, rng: np.random.Generator) -> SMPKernel:
    """The same edges, inserted in a seeded random order."""
    return SMPKernel(
        kernel.n_states, *_shuffled_columns(kernel, rng), kernel.distributions
    )


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_csr_image_is_scipys_canonical_csr(seed, n):
    """``kernel.csr`` is what scipy's COO->CSR conversion of the edge columns
    gives, array for array and dtype for dtype — whatever the insertion order."""
    rng = np.random.default_rng(seed)
    model = random_kernel(rng, n)
    src, dst, probs, dist_index = _shuffled_columns(model, rng)
    kernel = SMPKernel(n, src, dst, probs, dist_index, model.distributions)
    tagged = sparse.csr_matrix(
        (np.arange(1.0, kernel.n_transitions + 1), (src, dst)), shape=(n, n),
    )
    entry = tagged.data.astype(np.int64) - 1  # COO position of each CSR entry
    expected = (
        tagged.indptr,
        tagged.indices,
        np.repeat(np.arange(n), np.diff(tagged.indptr)),
        probs[entry],
        dist_index[entry],
    )
    assert kernel.csr._fields == ("indptr", "indices", "rows", "probs", "dist_index")
    for name, got, want in zip(kernel.csr._fields, kernel.csr, expected):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=30, deadline=None)
def test_evaluators_and_planes_are_views_of_the_image(seed, n, s):
    kernel = random_kernel(np.random.default_rng(seed), n)
    evaluator = kernel.evaluator()
    held = [
        array
        for value in vars(evaluator).values()
        for array in (value if isinstance(value, tuple) else (value,))
        if isinstance(array, np.ndarray)
    ]
    assert len(held) == 5
    assert all(any(np.shares_memory(a, b) for b in kernel.csr) for a in held)
    # the one LST fill writes its grid in the image's edge order
    (data,) = evaluator.u_data_batch([s])
    assert np.allclose(data, reference.u_data(kernel, s), rtol=1e-13, atol=0.0)
    assert kernel.evaluator().csr is kernel.csr  # every further evaluator: nothing

    with tempfile.TemporaryDirectory() as directory:
        plane = KernelPlane.build(evaluator, Path(directory) / "kernel.plane")
        attached = plane.handle().attach()
        try:
            assert attached.evaluator.csr is attached.kernel.csr
            for name, mapped, own in zip(kernel.csr._fields, attached.kernel.csr, kernel.csr):
                assert mapped.dtype == own.dtype, name
                assert np.array_equal(mapped, own), name
                assert not mapped.flags["OWNDATA"], name
        finally:
            attached.close()


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=30, deadline=None)
def test_insertion_order_moves_neither_the_digest_nor_the_values(seed, n, s):
    """A kernel is its image, and the image is in ``(src, dst)`` order however
    the edges arrived: two insertion orders of one model are one digest, solve
    bit-identically and share one checkpoint file."""
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, n)
    shuffled = _reinserted(kernel, rng)
    assert kernel_content_digest(shuffled) == kernel_content_digest(kernel)
    grid = np.array([s, s.conjugate() + 0.5, 2.0 * s])
    with tempfile.TemporaryDirectory() as directory:
        store = CheckpointStore(directory)
        values = []
        for k in (kernel, shuffled):
            job = PassageTimeJob(
                kernel=k, alpha=source_weights(k, [0, n // 2]), targets=[n - 1]
            )
            values.append(job.evaluate_batch(grid)[0])
            LoopRun(job, checkpoint=store).density([1.0])
        assert values[0].tobytes() == values[1].tobytes()
        assert len(store.digests()) == 1


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=20, deadline=None)
def test_built_pickled_and_attached_kernels_are_one_kernel(seed, n):
    """Equal image bytes, equal *recomputed* digest, equal seeded trajectories."""
    rng = np.random.default_rng(seed)
    built = _reinserted(random_kernel(rng, n), rng)
    with tempfile.TemporaryDirectory() as directory:
        plane = KernelPlane.build(built.evaluator(), Path(directory) / "kernel.plane")
        attached = plane.handle().attach()
        try:
            stamped = attached.kernel._content_digest
            for kernel in (pickle.loads(pickle.dumps(built)), attached.kernel):
                for name, got, want in zip(built.csr._fields, kernel.csr, built.csr):
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), name
                del kernel._content_digest  # the memo, not the fact
                assert kernel_content_digest(kernel) == kernel_content_digest(built) == stamped
                streams = [
                    simulate_passage_times(k, [0], [n - 1], n_samples=20, rng=seed)
                    for k in (built, kernel)
                ]
                assert streams[0].tobytes() == streams[1].tobytes()
            # nothing edge-length lives on a kernel outside its image
            edge_arrays = [
                value for value in vars(built).values()
                if isinstance(value, np.ndarray) and value.size >= built.n_transitions
            ]
            assert edge_arrays == []
        finally:
            attached.close()
