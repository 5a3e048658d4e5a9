"""Distribution-factored multi-s transform engine.

Every kernel entry is ``u_pq(s) = p_pq · h*_d(s)`` where ``d`` indexes one of
a handful of *distinct* sojourn distributions (a million-edge voting kernel
carries ~10).  Grouping transitions by distribution therefore factors the
kernel into real, s-independent CSR slices

    U(s) @ x  =  Σ_d  lst_d(s) ⊙ (P_d @ x)

so one block of s-points advances through sparse products whose *data* is
streamed once per iteration — independent of how many s-points are in
flight — while the s-dependence lives in an ``(n_s, n_dists)`` table of
distribution transforms.  Peak memory is ``O(nnz + n_s·n)`` instead of the
``O(n_s·nnz)`` of the batched data materialisation.

Concretely the row form's product ``v ← v @ U'(s)`` is a *pair
expansion*: group edges by ``(distribution, source)`` pair::

    expV[(d, i), t] = v[i, t] · lst_d(s_t)          (gather + scale)
    out[j, t]       = Σ_{e=(i,j,d)} p_e · expV[(d, i), t]     (one real SpMM)

The gather/scale works on a packed real block ``(n, 2k)`` ([Re | Im]
halves), the sparse product is one real CSR×dense multiply accumulated in
C by scipy's ``csr_matvecs``, and target-absorbing ``U'`` drops the pairs
whose source is a target state (zeroing rows of ``U`` equals zeroing the
corresponding components of ``v`` before the product; a transient absorbs
nothing and keeps every pair).

When this engine wins — and when it does not
--------------------------------------------
Per iteration the factored product streams ``O(nnz)`` sparse data plus a
dense working set proportional to ``(pairs + 2n) · n_s``; the batched
block-diagonal product streams ``O(n_s · nnz)`` complex data.  The factored
engine therefore dominates when the kernel has high fan-out relative to its
pair count (``nnz >> pairs + 2n``, e.g. service pools where every state can
hand off to many successors drawn from few distributions) and it is the
only engine whose *memory* allows very wide s-blocks on very large kernels.
On low fan-out kernels (``nnz ≈ pairs + 2n``, e.g. the voting net with
average degree ~5) the dense gather/scale touches as many bytes as the
batched product streams, so :class:`~repro.smp.passage.SPointPolicy` routes
those to the batched engine instead and bounds its block size.  See
``scripts/bench_passage.py`` for the measured crossover.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy import sparse

from .kernel import weighted_sums

__all__ = ["FactoredUEvaluator"]

try:  # scipy's C kernel accumulates `out += A @ B` without temporaries.
    from scipy.sparse import _sparsetools

    def _spmm_accumulate(matrix: sparse.csr_matrix, block: np.ndarray, out: np.ndarray) -> None:
        n_row, n_col = matrix.shape
        _sparsetools.csr_matvecs(
            n_row, n_col, block.shape[1],
            matrix.indptr, matrix.indices, matrix.data,
            block.ravel(), out.ravel(),
        )
except Exception:  # pragma: no cover - exercised only on exotic scipy builds

    def _spmm_accumulate(matrix, block, out):
        out += matrix @ block


class _RowStructure:
    """s-independent row-form expansion for one target mask.

    ``B`` maps expanded ``(dist, source)`` pairs to destination states:
    ``B[j, pair(e)] = p_e``; pairs whose source is absorbing are dropped
    (zeroing rows of ``U`` equals zeroing those components of ``v``, so the
    structure *is* the target-absorbing ``U'``).
    """

    __slots__ = ("pair_src", "pair_dist", "matrix", "n_pairs")

    def __init__(self, factored: "FactoredUEvaluator", target_mask: np.ndarray):
        pair_src, pair_dist, pair_of_edge = factored._row_pairs()
        probs, cols = factored.kernel.csr.probs, factored.kernel.csr.indices
        n = factored.kernel.n_states
        keep = ~target_mask[pair_src]
        kept = np.flatnonzero(keep)
        self.pair_src = pair_src[kept]
        self.pair_dist = pair_dist[kept]
        n_pairs = kept.size
        remap = np.full(pair_src.size, -1, dtype=np.int64)
        remap[kept] = np.arange(n_pairs)
        keep_edges = keep[pair_of_edge]
        pair_column = remap[pair_of_edge[keep_edges]]
        self.n_pairs = int(n_pairs)
        self.matrix = sparse.csr_matrix(
            (probs[keep_edges], (cols[keep_edges], pair_column)), shape=(n, n_pairs)
        )
        self.matrix.sort_indices()


class FactoredUEvaluator:
    """Distribution-factored products for a kernel's :class:`UEvaluator`.

    Obtain via :meth:`repro.smp.kernel.UEvaluator.factored`, which caches
    one instance per evaluator so the pair decompositions are paid once per
    kernel.  All structures are built lazily: constructing the object costs
    nothing until a factored product is requested.
    """

    #: how many target-mask row structures to keep (a serving workload
    #: alternates between a few measures per kernel)
    _STRUCTURE_CACHE = 4

    def __init__(self, evaluator, exported: dict | None = None):
        self.evaluator = evaluator
        self.kernel = evaluator.kernel
        self._row_pair_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._row_pair_count: int | None = None
        self._row_structures: "OrderedDict[bytes, _RowStructure]" = OrderedDict()
        if exported is not None:
            self._adopt(exported)

    # ---------------------------------------------------------- export/adopt
    def export(self) -> dict[str, np.ndarray]:
        """The target-independent structures as named arrays, built if need be.

        What a kernel plane carries beside the kernel's ``csr``; passing the
        dict (or views of the same arrays) to the constructor gives an engine
        that computes none of them again.
        """
        pair_src, pair_dist, pair_of_edge = self._row_pairs()
        return {
            "pair_src": pair_src,
            "pair_dist": pair_dist,
            "pair_of_edge": pair_of_edge,
            "dist_row_sums": self.dist_row_sums(),
        }

    def _adopt(self, v: dict) -> None:
        self._row_pair_cache = (v["pair_src"], v["pair_dist"], v["pair_of_edge"])
        self._row_pair_count = int(v["pair_src"].size)
        self.evaluator._dist_row_sums = v["dist_row_sums"]

    # -------------------------------------------------------------- identity
    @property
    def n_distributions(self) -> int:
        return self.kernel.n_distributions

    @property
    def row_pair_count(self) -> int:
        """Number of distinct ``(distribution, source)`` pairs.

        Read off the CSR arrays alone — one boolean scatter into an
        ``(n_distributions, n_states)`` table, no sort and no nnz-sized
        edge→pair mapping: the engine-selection policy asks this on *every*
        kernel it might factor (at most
        :data:`~repro.smp.passage.FACTORED_MAX_DISTRIBUTIONS` distributions,
        which bounds the table), including ones it then routes to the batch
        engine, which must not pay for or pin structures they never use.
        """
        if self._row_pair_count is None:
            csr = self.kernel.csr
            seen = np.zeros((self.n_distributions, self.kernel.n_states), dtype=bool)
            seen[csr.dist_index, csr.rows] = True
            self._row_pair_count = int(np.count_nonzero(seen))
        return self._row_pair_count

    def prewarm(self) -> None:
        """Build the target-independent structures ahead of the first solve.

        Called by the service registry for kernels the policy routes to this
        engine, so queries never pay the pair decomposition.
        """
        from repro.obs import trace as _obs_trace

        with _obs_trace.span(
            "factored-prewarm",
            n_states=int(self.kernel.n_states),
            n_distributions=int(self.n_distributions),
        ):
            self._row_pairs()
            self.dist_row_sums()

    def density_ratio(self) -> float:
        """``nnz / (pairs + 2n)`` — the fan-out measure the policy routes on.

        The factored per-iteration dense working set is proportional to
        ``pairs + 2n`` while the batched engine streams ``nnz`` complex
        entries per s-point, so this ratio approximates the per-iteration
        bandwidth advantage of the factored product.
        """
        return self.kernel.n_transitions / float(
            self.row_pair_count + 2 * self.kernel.n_states
        )

    # ----------------------------------------------------- shared structures
    def _row_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._row_pair_cache is None:
            csr, n = self.kernel.csr, self.kernel.n_states
            keys = csr.dist_index * np.int64(n) + csr.rows
            unique_keys, pair_of_edge = np.unique(keys, return_inverse=True)
            self._row_pair_cache = (
                (unique_keys % n).astype(np.int64),
                (unique_keys // n).astype(np.int64),
                pair_of_edge,
            )
            self._row_pair_count = int(unique_keys.size)
        src, dist, edge = self._row_pair_cache
        return src, dist, edge

    def row_structure(self, target_mask: np.ndarray) -> _RowStructure:
        key = np.asarray(target_mask, dtype=bool).tobytes()
        hit = self._row_structures.get(key)
        if hit is not None:
            self._row_structures.move_to_end(key)
            return hit
        structure = _RowStructure(self, target_mask)
        self._row_structures[key] = structure
        while len(self._row_structures) > self._STRUCTURE_CACHE:
            self._row_structures.popitem(last=False)
        return structure

    def dist_row_sums(self) -> np.ndarray:
        """``R[d, i] = Σ_j p_ij`` over transitions of distribution ``d``:
        the evaluator's (:meth:`UEvaluator.dist_row_sums
        <repro.smp.kernel.UEvaluator.dist_row_sums>`)."""
        return self.evaluator.dist_row_sums()

    # ------------------------------------------------------------- transforms
    def lst_grid(self, s_values) -> np.ndarray:
        """``(n_s, n_dists)`` table of distribution transforms over the grid."""
        return self.evaluator.lst_table(s_values)

    def contraction(
        self, s_values, target_mask: np.ndarray | None, *, chunk: int = 65536
    ) -> np.ndarray:
        """``max_i Σ_j |u'_ij(s)|`` per s-point: the evaluator's
        :meth:`~repro.smp.kernel.UEvaluator.contraction` of the grid's table,
        the one formula both engines route by."""
        return self.evaluator.contraction(self.lst_grid(s_values), target_mask, chunk=chunk)

    def sojourn_lst_batch(self, s_values) -> np.ndarray:
        """``(n_s, n_states)`` sojourn transforms ``h*_i(s) = Σ_d lst_d(s) R[d,i]``."""
        return self.lst_grid(s_values) @ self.dist_row_sums()

    def alpha_dist_matrix(self, alpha: np.ndarray) -> np.ndarray:
        """``A[d, j] = Σ_e α_src(e) p_e`` over edges of distribution ``d``.

        ``α @ U(s) = L(s,:) @ A`` — the factored form of the batched
        ``alpha_vec_matrix_batch`` start vector.
        """
        csr = self.kernel.csr
        alpha = np.asarray(alpha, dtype=complex)
        weights = alpha[csr.rows]
        selected = np.flatnonzero(weights != 0)
        A = np.zeros((self.n_distributions, self.kernel.n_states), dtype=complex)
        np.add.at(
            A,
            (csr.dist_index[selected], csr.indices[selected]),
            weights[selected] * csr.probs[selected],
        )
        return A


# ---------------------------------------------------------------------------
# Block operators: the per-s-block stepping objects the iteration driver in
# repro.smp.passage drives.  State is a packed real block (rows, 2k) whose
# first k columns are real parts and last k imaginary parts.
# ---------------------------------------------------------------------------


def _pack(real_block: np.ndarray, imag_block: np.ndarray) -> np.ndarray:
    n, k = real_block.shape
    packed = np.empty((n, 2 * k))
    packed[:, :k] = real_block
    packed[:, k:] = imag_block
    return packed


def _scale_pairs(
    gathered: np.ndarray, d_re: np.ndarray, d_im: np.ndarray, out: np.ndarray, k: int
) -> None:
    """``out = gathered · D`` complex multiply on packed planar blocks."""
    g_re = gathered[:, :k]
    g_im = gathered[:, k:]
    np.multiply(g_re, d_re, out=out[:, :k])
    out[:, :k] -= g_im * d_im
    np.multiply(g_re, d_im, out=out[:, k:])
    out[:, k:] += g_im * d_re


class FactoredRowOperator:
    """Row-form stepper: ``v ← (v ⊙ non-absorbing) @ U(s_t)`` for a whole block.

    ``_state`` is the packed real block ``(n, 2k)`` of the current term, one
    column pair per live s-point, and ``lst`` the live points' rows of the
    block's transform table, ``(k, n_dists)``, which the block solve has
    already evaluated to route them.  As in the batch engine's operator the
    form enters in two parts: the ``absorbing`` mask picks the pair-expansion
    structure (the targets for a passage, none for a transient), and the
    accumulation over ``targets`` is ``v . e`` for a passage (``weights``
    None) or ``v . w_t`` for a transient, whose ``weights`` are ``(k,
    |targets|)`` and whose sum starts with ``alpha . w``.
    """

    engine = "factored"

    def __init__(self, factored, lst, absorbing, alpha, targets, weights=None):
        self.factored = factored
        self.n = factored.kernel.n_states
        self.targets = targets
        self.structure = factored.row_structure(absorbing)
        self._alpha = np.asarray(alpha)
        self._weights = weights
        #: point-rows advanced so far (what the block's ``product_rows`` sums)
        #: and the entries of the pair-expansion matrix they multiplied
        self.product_rows = self.product_edges = 0
        self._resize(lst)  # (k, D)

    def _resize(self, lst: np.ndarray) -> None:
        """Bind the live points' transform table and the buffers it sizes."""
        self.lst = lst
        self.width = lst.shape[0]
        pair_dist = self.structure.pair_dist
        self._d_re = np.ascontiguousarray(lst.real[:, pair_dist].T)
        self._d_im = np.ascontiguousarray(lst.imag[:, pair_dist].T)
        self._scratch = np.empty((self.structure.n_pairs, 2 * self.width))
        self._out = np.empty((self.n, 2 * self.width))

    def start(self) -> None:
        """``v0 = α @ U(s_t)`` for every point of the block."""
        v0 = self.lst @ self.factored.alpha_dist_matrix(self._alpha)
        self._state = _pack(
            np.ascontiguousarray(v0.real.T), np.ascontiguousarray(v0.imag.T)
        )
        self._totals = self._target_totals()
        if self._weights is not None:
            self._scale = np.maximum(np.abs(self._weights).max(axis=1), 1.0)
            self._totals += weighted_sums(self._alpha.real[self.targets], 0.0, self._weights)

    def step(self) -> None:
        """``out = matrix @ (state[pair sources] · D)`` on packed planar blocks."""
        _scale_pairs(
            self._state[self.structure.pair_src], self._d_re, self._d_im,
            self._scratch, self.width,
        )
        self._out[:] = 0.0
        _spmm_accumulate(self.structure.matrix, self._scratch, self._out)
        self._state, self._out = self._out, self._state
        self.product_rows += self.width
        self.product_edges += self.width * self.structure.matrix.nnz
        self._totals = self._totals + self._target_totals()

    def _target_totals(self) -> np.ndarray:
        k = self.width
        picked = self._state[self.targets]
        if self._weights is None:
            sums = picked.sum(axis=0)
            return sums[:k] + 1j * sums[k:]
        return weighted_sums(picked[:, :k].T, picked[:, k:].T, self._weights)

    def residual(self) -> np.ndarray:
        k = self.width
        norm = np.hypot(self._state[:, :k], self._state[:, k:]).sum(axis=0)
        return norm if self._weights is None else norm * self._scale

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._totals[positions]

    def zero_points(self, positions: np.ndarray) -> None:
        self._state[:, positions] = 0.0
        self._state[:, self.width + positions] = 0.0

    def narrow(self, width: int) -> None:
        if width < self.width:
            self._state = np.concatenate(
                (self._state[:, :width], self._state[:, self.width : self.width + width]),
                axis=1,
            )
            self._totals = self._totals[:width]
            if self._weights is not None:
                self._weights, self._scale = self._weights[:width], self._scale[:width]
            self._resize(self.lst[:width])
