"""Direct linear-solve baseline for passage-time transforms (Eqs. 2–3).

The paper contrasts its iterative algorithm with the classical approach of
solving the ``N x N`` complex linear system

    L_ij(s) = sum_{k not in j} r*_ik(s) L_kj(s) + sum_{k in j} r*_ik(s)

directly.  This module implements that baseline with a sparse LU solve; it is
exact (up to solver tolerance) and serves both as the validation oracle for
the iterative method on small models and as the comparator in the
"iterative vs. direct" ablation benchmark.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .kernel import as_evaluator, target_mask

__all__ = ["passage_transform_direct", "passage_transform_direct_batch"]


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

    nnz_a, a_indices, a_indptr, diag_pos, u_pos = evaluator.direct_solve_structure()

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
        a_data = np.zeros(nnz_a, dtype=complex)
        a_data[diag_pos] = 1.0
        kept = data.copy()
        kept[tgt_entries] = 0.0
        # u_pos has no internal duplicates (the kernel rejects parallel
        # transitions), so plain fancy-index subtraction is safe.
        a_data[u_pos] -= kept
        A = sparse.csc_matrix((a_data, a_indices, a_indptr), shape=(n, n))
        lu = splinalg.splu(A)
        out[t] = lu.solve(b)
    return out


def passage_transform_direct(
    kernel_or_evaluator,
    targets,
    s: complex,
) -> np.ndarray:
    """Solve Eq. (3) for the full vector ``(L_{1->j}(s), ..., L_{N->j}(s))``.

    Parameters
    ----------
    kernel_or_evaluator:
        The SMP kernel or a prepared :class:`UEvaluator`.
    targets:
        Target state indices (the set ``j``).
    s:
        Complex transform argument.
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    n = evaluator.kernel.n_states
    mask = target_mask(n, targets)
    targets = np.flatnonzero(mask)

    U = evaluator.u(s).tocsc()
    # Right-hand side: probability-weighted transforms of one-step entries
    # into the target set, b_i = sum_{k in j} r*_ik(s).
    b = np.asarray(U[:, targets].sum(axis=1)).ravel().astype(complex)
    # Coefficient matrix: I - U with the target *columns* removed (the system
    # only couples unknowns L_kj for k outside the target set).
    keep = sparse.diags((~mask).astype(float), format="csc")
    A = sparse.identity(n, dtype=complex, format="csc") - U @ keep
    solution = splinalg.spsolve(A, b)
    return np.asarray(solution).ravel()
