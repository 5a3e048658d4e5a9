"""Direct linear solves: passage-time transforms (Eqs. 2–3) and ``s = 0``.

The paper contrasts its iterative algorithm with the classical approach of
solving the ``N x N`` complex linear system

    L_ij(s) = sum_{k not in j} r*_ik(s) L_kj(s) + sum_{k in j} r*_ik(s)

directly.  This module implements that baseline with a sparse LU solve; it is
exact (up to solver tolerance) and serves as the solver of the s-points the
policy routes away from the iteration, as the validation oracle for the
iterative method on small models and as the comparator in the "iterative vs.
direct" ablation benchmark.  A transient point is the same matrix with
nothing absorbed, ``I - U(s)``, solved once, transposed, against the
initial weighting (:func:`transient_transform_direct_batch`).

At ``s = 0`` the systems are real and the package solves two of them: the
passage time's moments (:func:`passage_moments`: the same ``I - U K``,
differentiated, with the embedded probabilities as data) and the embedded
chain's pinned stationary system (:func:`repro.smp.embedded.dtmc_steady_state`).
Both go through one recipe, :func:`_real_solver`: an incomplete LU once per
matrix and ILU-preconditioned GMRES per right-hand side, each caller gating
the result on its own residual.  The complete LU is left to the complex
routed points.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as splinalg

from ..obs import trace as obs_trace
from .kernel import as_evaluator, check_alpha, target_mask

__all__ = [
    "closed_classes",
    "passage_moments",
    "passage_transform_direct_batch",
    "transient_transform_direct_batch",
]

# The real solve's preconditioner and Krylov window, probed on voting models
# of 226 to 92,340 states: the incomplete LU drops entries below
# ``drop_tol`` relative to their column and stops at ``fill_factor`` times
# the matrix's own entries; GMRES restarts every ``restart`` vectors.
_ILU_DROP_TOL = 1e-4
_ILU_FILL_FACTOR = 10
_GMRES_RESTART = 40

#: the gate on a moment solve's relative residual: GMRES reaches 1e-14 on
#: every voting model probed, so an ``x`` that misses this bound stalled
_MAX_RELATIVE_RESIDUAL = 1e-10


def closed_classes(P: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(label, closed)``: every state's strongly connected class, and the
    classes no edge leaves."""
    n_classes, label = csgraph.connected_components(P, connection="strong")
    edges = P.tocoo()
    leaving = label[edges.row] != label[edges.col]
    return label, np.setdiff1d(np.arange(n_classes), label[edges.row[leaving]])


def _real_solver(system: sparse.spmatrix):
    """The one solve of a real sparse system: ``(solve, ilu_fill)``.

    ``system`` is factored here, once, by an incomplete LU;
    ``solve(b, x0=None)`` runs ILU-preconditioned GMRES from ``x0`` and
    returns ``(x, iterations, residual)``, ``residual`` being the normwise
    relative residual ``max|b - A x| / (|A| max|x| + max|b|)`` (``|A|`` the
    largest absolute row sum).  ``rtol`` sits at what double precision
    delivers, so ``x`` is as tight as the factorisation allows, and 25
    restarts (1,000 inner iterations; the 92,340 states of system 1 take 199)
    bound a stall.  GMRES's own verdict is not consulted: each caller gates
    what it returns on a residual of its own choosing.

    Raises :class:`numpy.linalg.LinAlgError` when the incomplete
    factorisation breaks down.
    """
    try:
        ilu = splinalg.spilu(system, drop_tol=_ILU_DROP_TOL, fill_factor=_ILU_FILL_FACTOR)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise np.linalg.LinAlgError(f"real sparse solve failed: {exc}") from exc
    preconditioner = splinalg.LinearOperator(system.shape, ilu.solve)
    norm = splinalg.norm(system, np.inf)

    def solve(b: np.ndarray, x0: np.ndarray | None = None):
        residual_norms: list[float] = []
        x, _ = splinalg.gmres(
            system, b, x0=x0, M=preconditioner,
            restart=_GMRES_RESTART, maxiter=25, rtol=1e-14, atol=0.0,
            callback=residual_norms.append, callback_type="pr_norm",
        )
        scale = max(norm * np.max(np.abs(x)) + np.max(np.abs(b)), np.finfo(float).tiny)
        return x, len(residual_norms), float(np.max(np.abs(b - system @ x)) / scale)

    return solve, ilu.nnz / system.nnz


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
    rows_u = evaluator.kernel.csr.rows
    # Entries of U that land in a target column feed the right-hand side
    # b_i = sum_{k in j} r*_ik(s); the remaining entries form U K.
    tgt_entries = mask[evaluator.kernel.csr.indices]
    for t, data in enumerate(_point_data(evaluator, s_values, u_data)):
        b = np.zeros(n, dtype=complex)
        b.real = np.bincount(rows_u[tgt_entries], weights=data.real[tgt_entries], minlength=n)
        b.imag = np.bincount(rows_u[tgt_entries], weights=data.imag[tgt_entries], minlength=n)
        kept = data.copy()
        kept[tgt_entries] = 0.0
        out[t] = _factor(evaluator, kept).solve(b)
    return out


def transient_transform_direct_batch(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets: np.ndarray,
    s_values,
    *,
    u_data: np.ndarray | None = None,
) -> np.ndarray:
    """``T*(s) = alpha (I - U(s))^-1 w(s)`` for every s-point of a grid.

    The transient's Markov-renewal sum (see :mod:`repro.smp.transient`)
    solved exactly: one sparse LU of ``A = I - U(s)`` per point — the
    matrix of :func:`passage_transform_direct_batch` with nothing absorbed
    — solved transposed against ``alpha`` and dotted with
    ``w = (1 - h*(s)) / s`` on the ``targets`` (ascending state indices),
    ``h*`` the row sums of the point's own ``U`` data.  ``u_data`` as for
    :func:`passage_transform_direct_batch`.
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    indptr = evaluator.kernel.csr.indptr[:-1]
    s_values = np.asarray(s_values, dtype=complex).ravel()
    out = np.empty(s_values.size, dtype=complex)
    for t, data in enumerate(_point_data(evaluator, s_values, u_data)):
        x = _factor(evaluator, data).solve(alpha, trans="T")
        weights = (1.0 - np.add.reduceat(data, indptr)[targets]) / s_values[t]
        out[t] = np.add.reduce(x[targets] * weights)
    return out


def _point_data(evaluator, s_values: np.ndarray, u_data: np.ndarray | None):
    """Each s-point's ``U(s)`` data vector, in grid order.

    ``u_data`` lets callers that already hold the grid's ``U(s)`` data (the
    block solve routing a subset of its grid here) skip re-evaluating the
    distributions' transforms.  Without it the data is materialised in
    bounded chunks so a large routed set never allocates ``O(n_s · nnz)``.
    """
    nnz = evaluator.kernel.csr.indices.size
    if not s_values.size:
        return
    if u_data is not None:
        u_data = np.asarray(u_data, dtype=complex)
        if u_data.shape != (s_values.size, nnz):
            raise ValueError("u_data must have shape (n_s, nnz)")
        yield from u_data
        return
    # Fill chunks into one reused caller-owned buffer: chunk grids are
    # throwaway and must not cycle through (and pollute) the evaluator's
    # grid LRU, whose slots exist for reusable measure grids.
    chunk = min(evaluator.fill_chunk_points(), s_values.size)
    buffer = np.empty((chunk, nnz), dtype=complex)
    for lo in range(0, s_values.size, chunk):
        hi = min(lo + chunk, s_values.size)
        yield from evaluator.u_data_batch(s_values[lo:hi], out=buffer[: hi - lo])


def _system(evaluator, kept: np.ndarray) -> sparse.csc_matrix:
    """``A = I - U K`` as a CSC matrix, given the entries of ``U K`` in image order."""
    n = evaluator.kernel.n_states
    nnz_a, a_indices, a_indptr, diag_pos, u_pos = evaluator.direct_solve_structure()
    a_data = np.zeros(nnz_a, dtype=kept.dtype)
    a_data[diag_pos] = 1.0
    # u_pos has no internal duplicates (the kernel rejects parallel
    # transitions), so plain fancy-index subtraction is safe.
    a_data[u_pos] -= kept
    return sparse.csc_matrix((a_data, a_indices, a_indptr), shape=(n, n))


def _factor(evaluator, kept: np.ndarray):
    """Sparse LU of ``A = I - U K`` at one complex s-point."""
    return splinalg.splu(_system(evaluator, kept))


def passage_moments(kernel_or_evaluator, alpha, targets, order: int = 2) -> np.ndarray:
    """Exact raw moments ``E[T^0], ..., E[T^order]`` of the passage time.

    The s-derivatives of Eq. (3) at ``s = 0``.  With ``K`` the diagonal 0/1
    matrix of non-target columns, ``P`` the embedded probabilities, ``m(p, q)``
    and ``v(p, q)`` the mean and variance of ``H_pq`` and ``e(p, q) = m(p, q)
    + K_q M_1(q)`` the mean passage time given the first step ``p -> q``:

        A = I - P K
        A M_1 = h_1                      h_1(i) = sum_q p_iq m(i, q)
        A V = h_V                        h_V(i) = sum_q p_iq (v(i, q) + (e(i, q) - M_1(i))^2)
        E[T] = alpha . M_1               E[T^2] = E[T]^2 + alpha . (V + (M_1 - E[T])^2)

    ``V`` is each state's passage-time variance: the law of total variance
    over the first step, and over the start state for ``E[T^2]``.  Every
    term of ``h_V`` is non-negative and so is ``A``'s inverse, so the second
    moment is the squared mean plus a variance no cancellation formed, and
    ``E[T^2] >= E[T]^2`` holds in floating point too — on a deterministic
    passage, ``E[T^2]`` solved for directly can land a rounding error below.

    ``A`` is the matrix of :func:`passage_transform_direct_batch` with the
    real data ``probs``, factored once by :func:`_real_solver` and solved
    ``order`` times; a solve whose relative residual exceeds 1e-10 raises
    :class:`numpy.linalg.LinAlgError`.  The ``passage-moments`` span carries
    the GMRES iterations (summed), the worst relative residual and the ILU
    fill.  A source inside the target set needs no special case: a target
    state's row keeps its full first step, so its entry is the cycle time's
    moment.  ``alpha`` is checked as the transform solves check it: one real
    weight per state, summing to one.  ``order`` is at most 2 — higher
    moments need raw moments the ``Distribution`` API does not have; the
    mean needs ``Distribution.mean()`` only, the second moment
    ``variance()`` too (a distribution without one raises its
    ``NotImplementedError``).  ``ValueError`` when a closed class of the
    embedded chain holds no target state: ``A`` is then singular, the passage
    is not almost sure and its moments are infinite.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2: the distributions carry no higher moments")
    evaluator = as_evaluator(kernel_or_evaluator)
    kernel, csr = evaluator.kernel, evaluator.kernel.csr
    n = kernel.n_states
    alpha = check_alpha(alpha, n).real
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
    kept = np.where(mask[csr.indices], 0.0, csr.probs)  # the entries of P K
    with obs_trace.span("passage-moments", n_states=n, order=order) as span:
        solve, fill = _real_solver(_system(evaluator, kept))
        first, iterations, residual = solve(kernel.mean_sojourn_times())
        _gate(residual)
        moments[1] = alpha @ first
        if order == 2:
            hop_mean = np.asarray([d.mean() for d in kernel.distributions])[csr.dist_index]
            hop_variance = np.asarray([d.variance() for d in kernel.distributions])
            after = hop_mean + np.where(mask[csr.indices], 0.0, first[csr.indices])
            per_edge = csr.probs * (hop_variance[csr.dist_index] + (after - first[csr.rows]) ** 2)
            variance, more, worst = solve(np.bincount(csr.rows, weights=per_edge, minlength=n))
            _gate(worst)
            iterations, residual = iterations + more, max(residual, worst)
            moments[2] = moments[1] ** 2 + alpha @ (variance + (first - moments[1]) ** 2)
        span.set(iterations=iterations, residual=residual, ilu_fill=round(fill, 3))
    return moments


def _gate(residual: float) -> None:
    """A moment solve's ``x`` is an answer only below the residual gate."""
    if not residual <= _MAX_RELATIVE_RESIDUAL:
        raise np.linalg.LinAlgError(
            f"moment solve failed: relative residual {residual:.3g} "
            f"exceeds {_MAX_RELATIVE_RESIDUAL:g}"
        )
