"""The per-s-point algorithm, one point at a time.

Straight-line versions of what ``repro.smp`` computes a block at a time: one
Python ``lst(s)`` call per distribution, ``U(s)`` and ``U'(s)`` as scipy
matrices, Eq. (10) as a row loop, Eq. (9) as a column loop, Eq. (7) as a loop
over targets and sources, and Eq. (3) assembled from ``I - U K`` and handed to
``spsolve``.  They ignore :class:`~repro.smp.SPointPolicy` — every point is
iterated to the truncation rule, or solved directly when asked — so a
comparison with the shipped block solve uses a pure-iterative policy where it
is about the iteration.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from repro.smp import ConvergenceDiagnostics, PassageTimeOptions, SMPKernel
from repro.smp.kernel import as_evaluator, target_mask


def _kernel(kernel_or_evaluator) -> SMPKernel:
    return as_evaluator(kernel_or_evaluator).kernel


def _check_alpha(alpha, n: int) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (n,):
        raise ValueError("alpha must have one weight per state")
    if abs(alpha.sum() - 1.0) > 1e-6:
        raise ValueError("alpha must sum to 1")
    return alpha


# --- U(s), U'(s), h*(s) at one s-point ---------------------------------------


def u_data(kernel_or_evaluator, s: complex) -> np.ndarray:
    """The data vector of ``U(s)`` in the kernel's edge order."""
    kernel = _kernel(kernel_or_evaluator)
    lst_values = np.asarray([d.lst(complex(s)) for d in kernel.distributions], dtype=complex)
    return kernel.csr.probs * lst_values[kernel.csr.dist_index]


def _matrix(kernel: SMPKernel, data: np.ndarray) -> sparse.csr_matrix:
    shape = (kernel.n_states, kernel.n_states)
    return sparse.csr_matrix((data, kernel.csr.indices, kernel.csr.indptr), shape=shape)


def u_matrix(kernel_or_evaluator, s: complex) -> sparse.csr_matrix:
    """``U(s)``: entry ``(p, q)`` equals ``p_pq H*_pq(s)`` (Eq. 9)."""
    kernel = _kernel(kernel_or_evaluator)
    return _matrix(kernel, u_data(kernel, s))


def u_prime(kernel_or_evaluator, s: complex, mask: np.ndarray) -> sparse.csr_matrix:
    """``U'(s)``: as ``U(s)`` but with the target states made absorbing.

    Rows belonging to target states are zeroed so that probability mass
    reaching the target set never leaves it again — this is what turns
    the r-transition sum of Eq. (9) into a *first* passage quantity.
    """
    kernel = _kernel(kernel_or_evaluator)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (kernel.n_states,):
        raise ValueError("target_mask must have one boolean per state")
    data = u_data(kernel, s)
    data[mask[kernel.csr.rows]] = 0.0
    return _matrix(kernel, data)


def sojourn_lsts(kernel_or_evaluator, s: complex) -> np.ndarray:
    """Per-state sojourn-time transforms ``h*_i(s) = sum_j r*_ij(s)``."""
    kernel = _kernel(kernel_or_evaluator)
    data = u_data(kernel, s)
    rows = kernel.csr.rows
    n = kernel.n_states
    out = np.zeros(n, dtype=complex)
    out.real = np.bincount(rows, weights=data.real, minlength=n)
    out.imag = np.bincount(rows, weights=data.imag, minlength=n)
    return out


# --- the iteration, row and column form --------------------------------------


def passage_transform(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s: complex,
    options: PassageTimeOptions | None = None,
) -> tuple[complex, ConvergenceDiagnostics]:
    """``L_{i->j}(s)`` for an ``alpha``-weighted source distribution (Eq. 10).

    ``alpha`` is the source weighting vector of Eq. (5) and must sum to one,
    ``targets`` the target state indices, ``s`` complex with ``Re(s) >= 0``.
    """
    options = options or PassageTimeOptions()
    kernel = _kernel(kernel_or_evaluator)
    n = kernel.n_states
    alpha = _check_alpha(alpha, n)
    mask = target_mask(n, targets)
    e = mask.astype(complex)

    U = u_matrix(kernel, s)
    U_prime = u_prime(kernel, s, mask)

    # Row accumulation: v_0 = alpha U,  v_{k+1} = v_k U',  L = sum_k v_k . e
    #
    # Convergence is judged on ||v_k||_1 rather than on the added term
    # |v_k . e| of Eq. (11): the row sums of |U'| never exceed one, so
    # ||v||_1 is monotonically non-increasing and bounds *every* future term.
    # This strengthens the paper's test — a structurally periodic model can
    # produce exactly-zero terms at some transition counts (no path of that
    # length reaches the target), which would otherwise trigger a premature
    # stop even though later terms are still significant.
    v = alpha @ U
    total = complex(v @ e)
    matvecs = 1
    below = 0
    delta = float(np.sum(np.abs(v)))
    for iteration in range(1, options.max_iterations + 1):
        v = v @ U_prime
        matvecs += 1
        total += complex(v @ e)
        delta = float(np.sum(np.abs(v)))
        if delta < options.epsilon:
            below += 1
            if below >= options.consecutive:
                return total, ConvergenceDiagnostics(
                    iterations=iteration,
                    converged=True,
                    final_delta=delta,
                    matvec_count=matvecs,
                )
        else:
            below = 0
    return total, ConvergenceDiagnostics(
        iterations=options.max_iterations,
        converged=False,
        final_delta=delta,
        matvec_count=matvecs,
    )


def passage_transform_vector(
    kernel_or_evaluator,
    targets,
    s: complex,
    options: PassageTimeOptions | None = None,
) -> tuple[np.ndarray, ConvergenceDiagnostics]:
    """The vector ``(L_{1->j}(s), ..., L_{N->j}(s))`` for every source.

    This is the column-vector form of Eq. (9): the accumulator
    ``acc_r = sum_{k=0}^{r-1} U'^k e`` is built by repeated sparse
    matrix–vector products and the result is ``U acc_r``.  Because the row
    sums of ``|U|`` never exceed one for ``Re(s) >= 0``, the change in the
    result is bounded by the infinity norm of the current term, which is what
    the convergence test monitors.
    """
    options = options or PassageTimeOptions()
    kernel = _kernel(kernel_or_evaluator)
    n = kernel.n_states
    mask = target_mask(n, targets)
    e = mask.astype(complex)

    U = u_matrix(kernel, s)
    U_prime = u_prime(kernel, s, mask)

    term = e.copy()
    acc = e.copy()
    matvecs = 0
    below = 0
    converged = False
    iterations = 0
    for iteration in range(1, options.max_iterations + 1):
        iterations = iteration
        term = U_prime @ term
        matvecs += 1
        acc += term
        delta = float(np.max(np.abs(term))) if term.size else 0.0
        if delta < options.epsilon:
            below += 1
            if below >= options.consecutive:
                converged = True
                break
        else:
            below = 0
    result = U @ acc
    matvecs += 1
    return np.asarray(result).ravel(), ConvergenceDiagnostics(
        iterations=iterations,
        converged=converged,
        final_delta=float(np.max(np.abs(term))),
        matvec_count=matvecs,
    )


# --- the direct solve, assembled from scratch --------------------------------


def passage_transform_direct(kernel_or_evaluator, targets, s: complex) -> np.ndarray:
    """Eq. (3) solved for the full vector ``(L_{1->j}(s), ..., L_{N->j}(s))``."""
    kernel = _kernel(kernel_or_evaluator)
    n = kernel.n_states
    mask = target_mask(n, targets)
    targets = np.flatnonzero(mask)

    U = u_matrix(kernel, s).tocsc()
    # Right-hand side: probability-weighted transforms of one-step entries
    # into the target set, b_i = sum_{k in j} r*_ik(s).
    b = np.asarray(U[:, targets].sum(axis=1)).ravel().astype(complex)
    # Coefficient matrix: I - U with the target *columns* removed (the system
    # only couples unknowns L_kj for k outside the target set).
    keep = sparse.diags((~mask).astype(float), format="csc")
    A = sparse.identity(n, dtype=complex, format="csc") - U @ keep
    solution = splinalg.spsolve(A, b)
    return np.asarray(solution).ravel()


# --- the transient assembly ---------------------------------------------------


def transient_transform(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s: complex,
    options: PassageTimeOptions | None = None,
    *,
    solver: str = "iterative",
) -> complex:
    """``T*_{i -> j}(s)``, the transform of ``P(Z(t) in j)`` (Eq. 7).

    ``alpha`` is the initial-state weighting (Eq. 5; a unit vector for a
    single source), ``targets`` the target state set ``j``; ``solver`` is
    ``"iterative"`` (the column loop above for the per-target passage-time
    vectors) or ``"direct"`` (the from-scratch linear solve).
    """
    kernel = _kernel(kernel_or_evaluator)
    if solver not in ("iterative", "direct"):
        raise ValueError("solver must be 'iterative' or 'direct'")

    s = complex(s)
    if s == 0:
        raise ValueError("the transient transform has a pole at s = 0; use Re(s) > 0")

    n = kernel.n_states
    alpha = _check_alpha(alpha, n)

    targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
    if targets.size == 0:
        raise ValueError("at least one target state is required")
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError("target state index out of range")

    h = sojourn_lsts(kernel, s)

    source_states = np.where(np.abs(alpha) > 0)[0]
    total = 0.0 + 0.0j
    for k in targets:
        if solver == "iterative":
            l_vec, _ = passage_transform_vector(kernel, [k], s, options)
        else:
            l_vec = passage_transform_direct(kernel, [k], s)
        lam_k = (1.0 - h[k]) / (1.0 - l_vec[k])
        # Contribution of target k to each source i:
        #   i == k : Lambda_k (the system is still in its first sojourn at k,
        #            or has returned) — the delta term of Eq. (7),
        #   i != k : Lambda_k * L_ik(s).
        for i in source_states:
            if i == k:
                total += alpha[i] * lam_k
            else:
                total += alpha[i] * lam_k * l_vec[i]
    return complex(total / s)
