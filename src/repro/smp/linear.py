"""Direct linear-solve baseline for passage-time transforms (Eqs. 2–3).

The paper contrasts its iterative algorithm with the classical approach of
solving the ``N x N`` complex linear system

    L_ij(s) = sum_{k not in j} r*_ik(s) L_kj(s) + sum_{k in j} r*_ik(s)

directly.  This module implements that baseline with a sparse LU solve; it is
exact (up to solver tolerance) and serves as the solver of the s-points the
policy routes away from the iteration, as the validation oracle for the
iterative method on small models and as the comparator in the "iterative vs.
direct" ablation benchmark.  Differentiating the same system at ``s = 0``
gives the passage time's moments (:func:`passage_moments`): two real solves
of the matrix assembled here, no transform and no inversion.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .embedded import closed_classes
from .kernel import as_evaluator, target_mask

__all__ = ["passage_moments", "passage_transform_direct_batch"]


def passage_transform_direct_batch(
    kernel_or_evaluator,
    targets,
    s_values,
    *,
    u_data: np.ndarray | None = None,
) -> np.ndarray:
    """Solve Eq. (3) for every s-point of a grid, sharing all symbolic set-up.

    Returns an ``(n_s, n_states)`` array whose row ``t`` is the passage-time
    vector at ``s_values[t]``.  The coefficient matrix ``A(s) = I - U(s) K``
    has the *same* sparsity pattern for every s-point and target set, so the
    CSC structure of ``A`` is assembled once per evaluator (see
    :meth:`UEvaluator.direct_solve_structure`); per s-point only the numeric
    data vector is refilled before the sparse LU factorisation.
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    n = evaluator.kernel.n_states
    mask = target_mask(n, targets)
    s_values = np.asarray(s_values, dtype=complex).ravel()
    out = np.empty((s_values.size, n), dtype=complex)
    if s_values.size == 0:
        return out

    rows_u = evaluator.kernel.csr.rows
    cols_u = evaluator.kernel.csr.indices
    # Entries of U that land in a target column feed the right-hand side
    # b_i = sum_{k in j} r*_ik(s); the remaining entries form U K.
    tgt_entries = mask[cols_u]

    # ``u_data`` lets callers that already hold the batch's U(s) data (the
    # adaptive engine routing a subset of its grid here) skip re-evaluating
    # the distributions' transforms.  Without it the data is materialised in
    # bounded chunks so a large routed set never allocates O(n_s · nnz).
    nnz = cols_u.size
    if u_data is None:
        # Fill chunks into one reused caller-owned buffer: chunk grids are
        # throwaway and must not cycle through (and pollute) the evaluator's
        # grid LRU, whose slots exist for reusable measure grids.
        chunk = min(evaluator.fill_chunk_points(), s_values.size)
        chunk_buffer = np.empty((chunk, nnz), dtype=complex)
        data_batch = None
    else:
        data_batch = np.asarray(u_data, dtype=complex)
        if data_batch.shape != (s_values.size, nnz):
            raise ValueError("u_data must have shape (n_s, nnz)")
    chunk_data = None
    chunk_lo = -1
    for t in range(s_values.size):
        if data_batch is not None:
            data = data_batch[t]
        else:
            if chunk_data is None or t >= chunk_lo + chunk:
                chunk_lo = t
                hi = min(chunk_lo + chunk, s_values.size)
                chunk_data = evaluator.u_data_batch(
                    s_values[chunk_lo:hi], out=chunk_buffer[: hi - chunk_lo]
                )
            data = chunk_data[t - chunk_lo]
        b = np.zeros(n, dtype=complex)
        b.real = np.bincount(rows_u[tgt_entries], weights=data.real[tgt_entries], minlength=n)
        b.imag = np.bincount(rows_u[tgt_entries], weights=data.imag[tgt_entries], minlength=n)
        kept = data.copy()
        kept[tgt_entries] = 0.0
        out[t] = _factor(evaluator, kept).solve(b)
    return out


def _factor(evaluator, kept: np.ndarray):
    """Sparse LU of ``A = I - U K``, given the entries of ``U K`` in image order."""
    n = evaluator.kernel.n_states
    nnz_a, a_indices, a_indptr, diag_pos, u_pos = evaluator.direct_solve_structure()
    a_data = np.zeros(nnz_a, dtype=kept.dtype)
    a_data[diag_pos] = 1.0
    # u_pos has no internal duplicates (the kernel rejects parallel
    # transitions), so plain fancy-index subtraction is safe.
    a_data[u_pos] -= kept
    return splinalg.splu(sparse.csc_matrix((a_data, a_indices, a_indptr), shape=(n, n)))


def passage_moments(kernel_or_evaluator, alpha, targets, order: int = 2) -> np.ndarray:
    """Exact raw moments ``E[T^0], ..., E[T^order]`` of the passage time.

    The s-derivatives of Eq. (3) at ``s = 0``.  With ``K`` the diagonal 0/1
    matrix of non-target columns, ``P`` the embedded probabilities and
    ``m_r(p, q) = E[H_pq^r]`` from each distribution's mean and variance:

        A = I - P K
        A M_1 = h_1                      h_1(i) = sum_q p_iq m_1(i, q)
        A M_2 = h_2 + 2 (P o m_1) K M_1  h_2(i) = sum_q p_iq m_2(i, q)
        E[T^r] = alpha . M_r

    ``A`` is the matrix of :func:`passage_transform_direct_batch` with the
    real data ``probs``, factored once and solved ``order`` times.  A source
    inside the target set needs no special case: a target state's row keeps
    its full first step, so its entry is the cycle time's moment.  ``order``
    is at most 2 — higher moments need raw moments the ``Distribution`` API
    does not have; the mean needs ``Distribution.mean()`` only, the second
    moment ``variance()`` too (a distribution without one raises its
    ``NotImplementedError``).  ``ValueError`` when a closed class of the
    embedded chain holds no target state: ``A`` is then singular, the passage
    is not almost sure and its moments are infinite.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2: the distributions carry no higher moments")
    evaluator = as_evaluator(kernel_or_evaluator)
    kernel, csr = evaluator.kernel, evaluator.kernel.csr
    n = kernel.n_states
    mask = target_mask(n, targets)
    label, closed = closed_classes(kernel.embedded_matrix())
    if not np.isin(closed, label[mask]).all():
        raise ValueError(
            "a closed class of the embedded chain never meets the target set: "
            "the passage is not almost sure and its moments are infinite"
        )
    moments = np.ones(order + 1)
    if order == 0:
        return moments
    alpha = np.asarray(alpha, dtype=float)
    kept = np.where(mask[csr.indices], 0.0, csr.probs)  # the entries of P K
    lu = _factor(evaluator, kept)
    first = lu.solve(kernel.mean_sojourn_times())
    moments[1] = alpha @ first
    if order == 2:
        m1 = np.asarray([d.mean() for d in kernel.distributions])
        m2 = np.asarray([d.variance() for d in kernel.distributions]) + m1**2
        per_edge = (
            csr.probs * m2[csr.dist_index]
            + 2.0 * kept * m1[csr.dist_index] * first[csr.indices]
        )
        second = lu.solve(np.bincount(csr.rows, weights=per_edge, minlength=n))
        moments[2] = alpha @ second
    return moments
