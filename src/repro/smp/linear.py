"""Direct linear solves: passage-time transforms (Eqs. 2–3) and ``s = 0``.

The paper contrasts its iterative algorithm with the classical approach of
solving the ``N x N`` complex linear system

    L_ij(s) = sum_{k not in j} r*_ik(s) L_kj(s) + sum_{k in j} r*_ik(s)

directly.  This module implements that baseline with a sparse LU solve; it is
exact (up to solver tolerance) and serves as the solver of the s-points the
policy routes away from the iteration — the far tail, Fig. 6's rare-event
passage, ``solver="direct"`` and the fallback of points that hit the
iteration cap — as the validation oracle for the iterative method on small
models and as the comparator in the "iterative vs. direct" ablation
benchmark.  A transient point is the same matrix with nothing absorbed,
``I - U(s)``, solved once, transposed, against the initial weighting
(:func:`transient_transform_direct_batch`).

The ordering is per measure, not per point.  ``A(s)``'s pattern depends on
the absorbing mask alone, so :class:`DirectOrdering` analyses it once per
evaluator and mask — the mask's strong components in topological order (a
block upper triangular matrix; :class:`StrongComponents`, the one component
analysis, which the passage walk of :mod:`repro.smp.passage` reads too),
COLAMD inside the diagonal blocks, the permuted CSC structure and a position
map into it — and
:meth:`UEvaluator.direct_ordering <repro.smp.kernel.UEvaluator.direct_ordering>`
keeps the last four.  A routed point then costs its entries of ``A``, written
from its row of the block's transform table, one SuperLU factorisation in
that order (``permc_spec="NATURAL"``), a solve and an un-permute.  On the
voting passage of system 0 the absorbed targets split the matrix into 36 components of at most 111 states and the
LU holds about 62k entries instead of 85k.

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

from ..obs import trace as obs_trace
from .kernel import _csc_identity_plus, as_evaluator, check_alpha, entry_values, target_mask

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
    from scipy.sparse import csgraph

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
    from scipy.sparse import linalg as splinalg

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


def passage_transform_direct_batch(kernel_or_evaluator, targets, s_values) -> np.ndarray:
    """Solve Eq. (3) for every s-point of a grid, sharing all symbolic set-up.

    Returns an ``(n_s, n_states)`` array whose row ``t`` is the passage-time
    vector at ``s_values[t]``.  The coefficient matrix ``A(s) = I - U(s) K``
    has the *same* sparsity pattern for every s-point, so its ordering and
    permuted structure are computed once per evaluator and target set (see
    :meth:`UEvaluator.direct_ordering`); per s-point only the numeric data
    is written into it, from the point's row of the grid's transform table
    (:meth:`DirectOrdering.passage`), before the sparse LU factorisation.
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    mask = target_mask(evaluator.kernel.n_states, targets)
    return evaluator.direct_ordering(mask).passage(evaluator.lst_table(s_values))


def transient_transform_direct_batch(
    kernel_or_evaluator, alpha: np.ndarray, targets: np.ndarray, s_values
) -> np.ndarray:
    """``T*(s) = alpha (I - U(s))^-1 w(s)`` for every s-point of a grid.

    The transient's Markov-renewal sum (see :mod:`repro.smp.transient`)
    solved exactly: one sparse LU of ``A = I - U(s)`` per point — the
    matrix of :func:`passage_transform_direct_batch` with nothing absorbed,
    in that mask's ordering — solved transposed against ``alpha`` and dotted
    with ``w = (1 - h*(s)) / s`` on the ``targets`` (ascending state
    indices; :meth:`DirectOrdering.transient`).
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    s_values = np.asarray(s_values, dtype=complex).ravel()
    ordering = evaluator.direct_ordering(np.zeros(evaluator.kernel.n_states, dtype=bool))
    return ordering.transient(evaluator.lst_table(s_values), alpha, targets, s_values)


class StrongComponents:
    """The strong components of ``U K`` for one absorbing mask, in topological order.

    The one component analysis per evaluator and mask
    (:meth:`UEvaluator.components <repro.smp.kernel.UEvaluator.components>`
    keeps it), and the only place a mask's graph is split: with the absorbing
    states' columns dropped — their entries of ``U K`` are zero at every
    ``s`` — what is left falls apart into strongly connected components,
    ranked so that every edge between two of them runs from a lower rank to a
    higher one (an absorbing state, which no kept edge enters, is a
    component of its own).  :class:`DirectOrdering` orders its LU by the
    ranks; the passage walk of :mod:`repro.smp.passage` sums one component
    at a time, in rank order.

    For the walk, the states that are not absorbing are laid out component
    by component in rank order (ascending inside one), the absorbing states
    after them: ``order`` lists the states in that layout, ``position`` is
    its inverse, and window ``k`` — one component — holds the positions
    ``bounds[k]:bounds[k + 1]``.  Each window's rows split their entries in
    two CSR structures over walk positions: ``inner`` (columns inside the
    window, numbered from its first position — the diagonal block
    ``U_BB``) and ``cross`` (columns in later windows and the absorbing
    states — everything the window's sum is pushed through once).  Each
    keeps its entries' distribution and probability, so a block fills its
    windows' data straight from its transform table.
    """

    def __init__(self, evaluator, absorbing: np.ndarray):
        from scipy.sparse import csgraph

        n = evaluator.kernel.n_states
        csr = evaluator.csr
        absorbing = np.asarray(absorbing, dtype=bool)
        #: the entries of U that U K keeps, in image order
        self.kept = np.flatnonzero(~absorbing[csr.indices])
        rows, cols = csr.rows[self.kept], csr.indices[self.kept]
        graph = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        self.count, self.label = csgraph.connected_components(graph, connection="strong")
        self.rank = _topological_rank(self.label[rows], self.label[cols], self.count)
        self.largest = int(np.bincount(self.label).max())

        walk_rank = np.where(absorbing, self.count, self.rank[self.label])
        self.order = np.argsort(walk_rank, kind="stable")
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = np.arange(n)
        self.walked = walked = n - int(absorbing.sum())
        ranks = walk_rank[self.order[:walked]]
        self.bounds = np.unique(np.concatenate(([0], np.flatnonzero(np.diff(ranks)) + 1, [walked])))
        window_of = np.repeat(np.arange(self.bounds.size - 1), np.diff(self.bounds))

        src, dst = self.position[csr.rows], self.position[csr.indices]
        walked_entries = np.flatnonzero(src < walked)
        src, dst = src[walked_entries], dst[walked_entries]
        window = window_of[src]
        inner = dst < self.bounds[1:][window]
        local = dst - self.bounds[:-1][window]  # column numbers inside a window
        self.inner = self._rows(csr, walked_entries[inner], src[inner], local[inner], walked)
        self.cross = self._rows(csr, walked_entries[~inner], src[~inner], dst[~inner], walked)
        #: the later windows each window pushes into
        windows = self.bounds.size - 1
        tails, heads = window[~inner], dst[~inner]
        later = heads < walked
        pairs = np.unique(tails[later] * windows + window_of[heads[later]])
        tails, heads = np.divmod(pairs, max(windows, 1))
        self.successors = np.split(heads, np.searchsorted(tails, np.arange(1, windows)))
        self._copies: tuple[int, list] | None = None

    @staticmethod
    def _rows(csr, entries, src, dst, walked) -> "_WalkRows":
        """One of the walk's two CSR structures: rows = walk positions."""
        order = np.argsort(src, kind="stable")
        entries, dst = entries[order], dst[order]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=walked))))
        return _WalkRows(
            indptr.astype(np.int64), dst.astype(csr.indices.dtype),
            csr.dist_index[entries], csr.probs[entries],
        )

    def window(self, k: int) -> tuple[int, int]:
        """Window ``k``'s walk positions ``(lo, hi)``."""
        return int(self.bounds[k]), int(self.bounds[k + 1])

    def reached(self, evaluator, alpha: np.ndarray) -> np.ndarray:
        """The windows the walk from ``alpha`` sends mass into, in rank order:
        those ``alpha U`` enters and, along their cross edges, every later
        one they lead to."""
        csr = evaluator.csr
        first = self.position[csr.indices[evaluator.row_entries(np.flatnonzero(alpha))]]
        reached = np.zeros(self.bounds.size - 1, dtype=bool)
        reached[np.searchsorted(self.bounds, first[first < self.walked], side="right") - 1] = True
        for k in range(reached.size):
            if reached[k]:
                reached[self.successors[k]] = True
        return np.flatnonzero(reached)

    def window_copies(self, width: int) -> list:
        """Per window, ``(inner indptr, inner indices, cross indptr, cross
        indices)`` of ``width`` diagonal copies of its two structures — the
        inner copies' columns moved by the window's size per copy, the
        cross copies' by ``n``, the row of a ``(width, n)`` state — so one
        call of scipy's kernel steps or pushes every point of a block.  Built
        at the widest block seen and handed out as prefix views, like
        :meth:`UEvaluator.block_diag_structure
        <repro.smp.kernel.UEvaluator.block_diag_structure>`, and kept under the
        same :data:`~repro.smp.kernel.BLOCK_DIAG_RETAIN_BYTES`."""
        from . import kernel as kernel_module

        held = self._copies
        if held is None or held[0] < width:
            n = self.position.size
            copies = []
            for k in range(self.bounds.size - 1):
                lo, hi = self.window(k)
                copies.append((
                    *self._copy(self.inner, lo, hi, width, hi - lo),
                    *self._copy(self.cross, lo, hi, width, n),
                ))
            held = (width, copies)
            size = sum(array.nbytes for window in copies for array in window)
            if size <= kernel_module.BLOCK_DIAG_RETAIN_BYTES:
                self._copies = held
        return held[1]

    @staticmethod
    def _copy(rows: "_WalkRows", lo: int, hi: int, width: int, stride: int):
        from .kernel import _diagonal_copies

        indptr = rows.indptr[lo:hi + 1]
        return _diagonal_copies(
            indptr - indptr[0], rows.indices[indptr[0]:indptr[-1]], width, stride
        )


class _WalkRows:
    """A CSR structure over walk positions and its entries' distribution and
    probability (:class:`StrongComponents`)."""

    __slots__ = ("indptr", "indices", "dist", "probs")

    def __init__(self, indptr, indices, dist, probs):
        self.indptr, self.indices, self.dist, self.probs = indptr, indices, dist, probs

    def entries(self, lo: int, hi: int) -> slice:
        """The entries of the rows ``lo:hi``."""
        return slice(int(self.indptr[lo]), int(self.indptr[hi]))


class DirectOrdering:
    """The symbolic analysis of ``A = I - U K`` for one absorbing mask.

    Computed once per evaluator and mask (:meth:`UEvaluator.direct_ordering`
    keeps it), it turns every routed s-point into a numeric factorisation
    only.  The strong components of the mask's :class:`StrongComponents`
    (the voting passage's 1,876 states fall into 36 of at most 111) and their
    ranks make ``A`` block upper triangular — KLU's first step (Davis &
    Palamadai Natarajan, *Algorithm 907: KLU*, ACM TOMS 2010); what is left
    here is the rest of KLU's analysis:

    1. each diagonal block ordered by COLAMD — one SuperLU ordering of the
       blocks' union, read as the column sequence ``argsort(perm_c)`` of an
       incomplete LU that keeps nothing but the diagonal — inside the
       symmetric permutation ``perm`` that sorts the components by rank;
    2. the permuted matrix's CSC structure and where each kept entry of
       ``U`` lands in its data vector.

    That is KLU's symbolic half.  The numeric half reads a point's row of
    the transform table only, writing from it the kept entries of ``A`` and
    a passage's target inflow ``b`` (:meth:`passage`) or a transient's
    ``h*`` (:meth:`transient`), then one LU in the given order
    (``permc_spec="NATURAL"``) and a solve.  Partial pivoting cannot leave a
    diagonal block — below the diagonal a column has entries in its own
    block only — so the fill stays inside the blocks and their upper
    coupling.
    """

    def __init__(self, evaluator, absorbing: np.ndarray):
        from scipy.sparse import linalg as splinalg

        n = self.n_states = evaluator.kernel.n_states
        csr = evaluator.csr
        with obs_trace.span("direct-ordering", n_states=n) as span:
            components = evaluator.components(absorbing)
            kept = components.kept
            #: distribution and probability of the entries of U that U K keeps
            #: and, with their rows, of those into the absorbing states
            self._kept = csr.dist_index[kept], csr.probs[kept]
            into = np.flatnonzero(np.asarray(absorbing, dtype=bool)[csr.indices])
            self._into = csr.rows[into], csr.dist_index[into], csr.probs[into]
            self._csr = csr  # shared: a transient's sojourn sums read its rows
            rows, cols = csr.rows[kept], csr.indices[kept]
            label, rank = components.label, components.rank
            inside = label[rows] == label[cols]
            size, indices, indptr, diag_pos, _ = _csc_identity_plus(n, rows[inside], cols[inside])
            values = np.ones(size)
            values[diag_pos] = n + 1.0
            blocks = sparse.csc_matrix((values, indices, indptr), shape=(n, n))
            # COLAMD reads the pattern only.  SuperLU computes it before it
            # factors, and an incomplete LU that drops every off-diagonal
            # entry of this dominant diagonal costs little more than that.
            ilu = splinalg.spilu(blocks, permc_spec="COLAMD", drop_tol=1.0, fill_factor=1)
            sequence = np.argsort(ilu.perm_c)
            self.perm = sequence[np.argsort(rank[label[sequence]], kind="stable")]
            position = np.empty(n, dtype=np.int64)
            position[self.perm] = np.arange(n)
            self._structure = _csc_identity_plus(n, position[rows], position[cols])
            self.blocks, self.largest_block = components.count, components.largest
            span.set(blocks=self.blocks, largest_block=self.largest_block)

    def passage(self, table: np.ndarray) -> np.ndarray:
        """Eq. (3)'s passage vectors, one per row of ``table``; the target
        inflow ``b_i = sum_{k in j} r*_ik(s)`` sums in image order."""
        n = self.n_states
        rows, dist, probs = self._into
        out = np.empty((table.shape[0], n), dtype=complex)
        for t, lst in enumerate(table):
            inflow = entry_values(lst, dist, probs)
            b = np.zeros(n, dtype=complex)
            b.real = np.bincount(rows, weights=inflow.real, minlength=n)
            b.imag = np.bincount(rows, weights=inflow.imag, minlength=n)
            out[t] = self.solve(entry_values(lst, *self._kept), b)
        return out

    def transient(self, table, alpha, targets, s_values) -> np.ndarray:
        """``alpha (I - U)^-1 w`` per row of ``table`` (s-points ``s_values``)
        on the ordering that absorbs nothing, whose kept entries are all of
        ``U``: ``h*`` on the ``targets`` are row sums of a point's entries."""
        out = np.empty(table.shape[0], dtype=complex)
        for t, lst in enumerate(table):
            data = entry_values(lst, *self._kept)
            x = self.solve(data, alpha, trans="T")
            weights = (1.0 - np.add.reduceat(data, self._csr.indptr[:-1])[targets]) / s_values[t]
            out[t] = np.add.reduce(x[targets] * weights)
        return out

    def solve(self, kept: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """``x`` with ``A x = b`` (``A^T x = b`` for ``trans="T"``), ``A``
        built from one s-point's values of the kept entries, in image order."""
        n = self.n_states
        nnz, indices, indptr, diag_pos, entry_pos = self._structure
        a_data = np.zeros(nnz, dtype=complex)
        a_data[diag_pos] = 1.0
        a_data[entry_pos] -= kept
        lu = _factor(sparse.csc_matrix((a_data, indices, indptr), shape=(n, n)))
        x = np.empty(n, dtype=complex)
        x[self.perm] = lu.solve(np.asarray(b, dtype=complex)[self.perm], trans=trans)
        return x


def _topological_rank(tails: np.ndarray, heads: np.ndarray, n_blocks: int) -> np.ndarray:
    """A rank per strong component that grows along every edge ``tail ->
    head`` between two components: Kahn's algorithm, one level at a time."""
    between = tails != heads
    dag = sparse.csr_matrix(
        (np.ones(between.sum()), (tails[between], heads[between])), shape=(n_blocks, n_blocks)
    )
    waiting = np.bincount(dag.indices, minlength=n_blocks)
    rank = np.empty(n_blocks, dtype=np.int64)
    level, placed = np.flatnonzero(waiting == 0), 0
    while level.size:
        rank[level] = np.arange(placed, placed + level.size)
        placed += level.size
        # the heads of the level's edges: its rows of ``dag``, read off indptr
        lo, counts = dag.indptr[level], np.diff(dag.indptr)[level]
        reached = dag.indices[np.repeat(lo - (np.cumsum(counts) - counts), counts)
                              + np.arange(counts.sum())]
        np.subtract.at(waiting, reached, 1)
        level = np.unique(reached[waiting[reached] == 0])
    return rank


def _system(evaluator, kept: np.ndarray) -> sparse.csc_matrix:
    """``A = I - U K`` as an unpermuted CSC matrix, given the entries of
    ``U K`` in image order (the real solve's matrix)."""
    n = evaluator.kernel.n_states
    nnz_a, a_indices, a_indptr, diag_pos, u_pos = evaluator.direct_solve_structure()
    a_data = np.zeros(nnz_a, dtype=kept.dtype)
    a_data[diag_pos] = 1.0
    # u_pos has no internal duplicates (the kernel rejects parallel
    # transitions), so plain fancy-index subtraction is safe.
    a_data[u_pos] -= kept
    return sparse.csc_matrix((a_data, a_indices, a_indptr), shape=(n, n))


def _factor(system: sparse.csc_matrix):
    """The one complete sparse LU: SuperLU of ``system``, in the order its
    :class:`DirectOrdering` already put it in."""
    from scipy.sparse import linalg as splinalg

    return splinalg.splu(system, permc_spec="NATURAL")


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
