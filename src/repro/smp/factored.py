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

This module holds what that product needs and nothing that steps: the
pairs, their expansion matrix per absorbing mask (target-absorbing ``U'``
drops the pairs whose source is a target state — zeroing rows of ``U``
equals zeroing those components of ``v`` before the product; a transient
absorbs nothing and keeps every pair) and the start vector's factors, all
derived from the kernel's image where the engine runs — in a pool worker,
from the plane it attached, on its first factored block.  The stepper is
:class:`repro.smp.passage._FactoredRowOperator`, the batch engine's operator
with this product: it keeps the batch operator's complex ``(width, n)``
state, gathers the transposed state at the pair sources, scales by the
pairs' transforms in one complex multiply and applies the real expansion
matrix to the ``2 · width`` real columns of the result in one call of
scipy's ``csr_matvecs``.

When this engine wins — and when it does not
--------------------------------------------
Per iteration the factored product streams ``O(nnz)`` sparse data once for
the whole block plus a dense working set of ``(2 pairs + 3 n) · n_s``
complex entries; the batched block-diagonal product streams
``O(n_s · nnz)`` complex data.  The factored engine can therefore win when
the kernel has high fan-out relative to its pair count (``nnz >> pairs +
2n``, e.g. service pools where every state can hand off to many successors
drawn from few distributions), and it is the only engine whose *memory*
allows very wide s-blocks on very large kernels.  Measured on the
benchmark's service-pool kernel (600 states, 34.7k edges, six
distributions, fan-out ratio 7.2) over a 66-point grid it runs 1.6 times
as fast as the batch engine (``smp.factored.vs_batch_ratio`` 1.62 on
``python3 bench/run.py --workload solve_variants --trace 1``, 2-core box).
On low fan-out kernels (``nnz ≈ pairs + 2n``, e.g. the voting net with
average degree ~5) the dense gather and scale touch as many bytes as the
batched product streams, and the batch engine is as fast or faster: the
paper's system 0 passage (1,876 states, 99 points) solves in 105 ms on it
and 167 ms here, voting (8,3,2) in 8 ms on either (pure iterative, median of
five).  :class:`~repro.smp.passage.SPointPolicy` therefore keeps those on the
batched engine (``auto`` picks ``batch`` on every bundled model) and bounds
its block size.  ``scripts/bench_passage.py`` measures the per-iteration
crossover.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

__all__ = ["FactoredUEvaluator"]


class _RowStructure:
    """s-independent row-form expansion for one target mask.

    ``B`` maps expanded ``(dist, source)`` pairs to destination states:
    ``B[j, pair(e)] = p_e``; pairs whose source is absorbing are dropped
    (zeroing rows of ``U`` equals zeroing those components of ``v``, so the
    structure *is* the target-absorbing ``U'``).
    """

    __slots__ = ("pair_src", "pair_dist", "matrix", "n_pairs")

    def __init__(self, factored: "FactoredUEvaluator", target_mask: np.ndarray):
        pair_src, pair_dist, pair_of_edge = factored._row_pairs
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

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.kernel = evaluator.kernel

    # -------------------------------------------------------------- identity
    @property
    def n_distributions(self) -> int:
        return self.kernel.n_distributions

    @cached_property
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
        csr = self.kernel.csr
        seen = np.zeros((self.n_distributions, self.kernel.n_states), dtype=bool)
        seen[csr.dist_index, csr.rows] = True
        return int(np.count_nonzero(seen))

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
            self._row_pairs
            self.evaluator.dist_row_sums()

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
    @cached_property
    def _row_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair_src, pair_dist, pair_of_edge)``: the distinct
        ``(distribution, source)`` pairs and each edge's pair."""
        csr, n = self.kernel.csr, self.kernel.n_states
        keys = csr.dist_index * np.int64(n) + csr.rows
        unique_keys, pair_of_edge = np.unique(keys, return_inverse=True)
        return (
            (unique_keys % n).astype(np.int64),
            (unique_keys // n).astype(np.int64),
            pair_of_edge,
        )

    def row_structure(self, target_mask: np.ndarray) -> _RowStructure:
        """The expansion for one target mask, kept by the evaluator's
        :meth:`~repro.smp.kernel.UEvaluator.per_mask` cache."""
        return self.evaluator.per_mask(
            "row-structure", target_mask, lambda mask: _RowStructure(self, mask)
        )

    def alpha_dist_matrix(self, alpha: np.ndarray) -> np.ndarray:
        """``A[d, j] = Σ_e α_src(e) p_e`` over edges of distribution ``d``.

        ``α @ U(s) = L(s,:) @ A`` — the factored form of the batched
        ``alpha_vec_matrix_batch`` start vector, which the factored operator
        sums over the distributions in their order, not as a BLAS product.
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
