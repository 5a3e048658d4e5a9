"""Sparse representation of a semi-Markov kernel.

The time-homogeneous SMP kernel is ``R(i, j, t) = p_ij H_ij(t)`` (Section 2.1
of the paper): a one-step transition probability matrix ``P = [p_ij]`` plus a
sojourn-time distribution ``H_ij`` attached to every transition.  The
Laplace–Stieltjes transform of the kernel, ``r*_ij(s) = p_ij H*_ij(s)``, is
exactly the matrix ``U`` of the iterative algorithm (Eq. 9).

Every transition carries an index into a list of *unique* distribution
objects, so evaluating ``U(s)`` costs one transform evaluation per distinct
distribution (not per transition) plus a single data fill.  A kernel holds
one image of its edges — :attr:`SMPKernel.csr`, the columns in ``(src, dst)``
order — whatever order they were inserted in; the columns it was handed are
validated, sorted into the image and let go.  Evaluators, the factored engine,
the direct solver, the simulator, the content digest and the kernel plane all
read ``csr``; none holds a copy, so a built, a pickled and a plane-attached
kernel are indistinguishable.
"""
from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from ..distributions import Distribution
from ..utils.validation import check_probability_vector, require

__all__ = [
    "KernelCSR",
    "SMPKernel",
    "UEvaluator",
    "as_evaluator",
    "kernel_content_digest",
    "target_mask",
]


#: Hashed first into every kernel digest, and through it into every job
#: digest, checkpoint key and plane file name.  A change that moves computed
#: values bumps it: files written under the old epoch are then keyed by
#: digests nothing can produce any more, so they are never read and never
#: touched, and the first use recomputes (README, "Digest epochs").
DIGEST_EPOCH = b"smp-digest-epoch-7"


def kernel_content_digest(kernel: "SMPKernel") -> str:
    """A stable content hash of the kernel's image and distributions.

    The image is in ``(src, dst)`` order however the edges arrived, so one
    model has one digest.  Memoised on the kernel object: a long-lived
    analysis service re-digests the same kernel on every query, and the
    arrays are immutable after build.  A kernel attached from a plane carries
    the exporter's digest as that memo (attaching must not hash the image);
    recomputing it gives the same string.
    """
    cached = getattr(kernel, "_content_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(DIGEST_EPOCH)
    h.update(np.int64(kernel.n_states).tobytes())
    h.update(kernel.csr.indptr.tobytes())
    h.update(kernel.csr.indices.tobytes())
    h.update(kernel.csr.probs.tobytes())
    h.update(kernel.csr.dist_index.tobytes())
    for dist in kernel.distributions:
        h.update(repr(dist._key()).encode())
    digest = h.hexdigest()
    kernel._content_digest = digest
    return digest


def as_evaluator(kernel_or_evaluator) -> "UEvaluator":
    """Coerce an :class:`SMPKernel` or :class:`UEvaluator` to an evaluator."""
    if isinstance(kernel_or_evaluator, UEvaluator):
        return kernel_or_evaluator
    if isinstance(kernel_or_evaluator, SMPKernel):
        return kernel_or_evaluator.evaluator()
    raise TypeError("expected an SMPKernel or UEvaluator")


def target_mask(n_states: int, targets) -> np.ndarray:
    """Validated boolean mask over states for a target index set."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if targets.size == 0:
        raise ValueError("at least one target state is required")
    if targets.min() < 0 or targets.max() >= n_states:
        raise ValueError("target state index out of range")
    mask = np.zeros(n_states, dtype=bool)
    mask[targets] = True
    return mask


def check_alpha(alpha, n_states: int) -> np.ndarray:
    """Validated source weights (Eq. 5): one real weight per state, sum 1."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (n_states,):
        raise ValueError("alpha must have one weight per state")
    if alpha.imag.any():
        raise ValueError("alpha must be real")
    if abs(alpha.sum() - 1.0) > 1e-6:
        raise ValueError("alpha must sum to 1")
    return alpha


def weighted_sums(re: np.ndarray, im: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_k (re + i im)[t, k] · weights[t, k]`` per row ``t``, in real arithmetic.

    numpy's complex multiply has a vector and a scalar loop that round
    differently, and which one a product takes depends on the array around
    it; every real product and sum rounds once, wherever its row sits, so a
    point's weighted sum does not depend on the block it is solved in.
    """
    return np.add.reduce(re * weights.real - im * weights.imag, axis=1) + 1j * np.add.reduce(
        re * weights.imag + im * weights.real, axis=1
    )


class KernelCSR(NamedTuple):
    """A kernel's edges in ``(src, dst)`` order — the image the solvers read.

    Entry ``e`` is the transition ``rows[e] -> indices[e]`` with probability
    ``probs[e]`` and sojourn distribution ``dist_index[e]``; row ``i`` owns the
    entries ``indptr[i]:indptr[i + 1]``.  Order and dtypes are those of scipy's
    canonical CSR (``indptr``/``indices`` int32 while ``max(nnz, n)`` fits,
    ``rows``/``dist_index`` int64, ``probs`` float64), so the arrays drop into
    a ``csr_matrix`` uncopied.  All five are read-only and shared by every
    consumer; a kernel plane file holds exactly these arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    probs: np.ndarray
    dist_index: np.ndarray


def _edge_order(n_states: int, src: np.ndarray, dst: np.ndarray):
    """The one sort of a kernel build: ``(order, parallel)``.

    ``order`` is the stable ``(src, dst)`` permutation of the edges (one packed
    int64 key per pair, a single-array pass); ``parallel[k]`` says that sorted
    edge ``k + 1`` repeats the pair of sorted edge ``k``.
    """
    require(n_states <= 3_000_000_000, "packed (src, dst) keys would overflow int64")
    keys = src * np.int64(n_states) + dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return order, keys[1:] == keys[:-1]


class SMPKernel:
    """An immutable semi-Markov process kernel over states ``0 .. n_states-1``.

    Construct instances with :class:`repro.smp.SMPBuilder` (or the
    lower-level :meth:`from_arrays`).
    """

    def __init__(
        self,
        n_states: int,
        src: np.ndarray,
        dst: np.ndarray,
        probs: np.ndarray,
        dist_index: np.ndarray,
        distributions: Sequence[Distribution],
        state_names: Sequence[str] | None = None,
        *,
        row_sum_tolerance: float = 1e-8,
        _order: np.ndarray | None = None,
    ):
        require(n_states > 0, "an SMP kernel needs at least one state")
        self.n_states = int(n_states)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        dist_index = np.asarray(dist_index)
        self.distributions = list(distributions)
        if not src.shape == dst.shape == probs.shape == dist_index.shape:
            raise ValueError("src, dst, probs and dist_index must have identical shapes")
        if src.size == 0:
            raise ValueError("an SMP kernel needs at least one transition")
        if src.min() < 0 or src.max() >= self.n_states:
            raise ValueError("transition source index out of range")
        if dst.min() < 0 or dst.max() >= self.n_states:
            raise ValueError("transition destination index out of range")
        if np.any(probs < 0) or np.any(~np.isfinite(probs)):
            raise ValueError("transition probabilities must be finite and non-negative")
        if dist_index.min() < 0 or dist_index.max() >= len(self.distributions):
            raise ValueError("distribution index out of range")
        for d in self.distributions:
            if not isinstance(d, Distribution):
                raise TypeError(f"expected Distribution, got {type(d).__name__}")

        # Names materialise lazily via the state_names property: a
        # million-state kernel should not pay for a million name strings it
        # may never print.  ``state_names`` may be a sequence or a zero-arg
        # callable producing one (the factory form the array-backed state
        # space uses to defer marking-string generation).
        self._state_names: list[str] | None = None
        self._state_names_factory = None
        if callable(state_names):
            self._state_names_factory = state_names
        elif state_names is not None:
            state_names = list(state_names)
            require(
                len(state_names) == self.n_states,
                "state_names must have one entry per state",
            )
            self._state_names = [str(s) for s in state_names]

        # The image shared by P, U(s) and U'(s): the columns sorted, the only
        # form they are kept in.  ``_order`` is from_columns handing over the
        # sort it already made to look for parallel edges.
        order = _order
        if order is None:
            order, parallel = _edge_order(self.n_states, src, dst)
            if parallel.any():
                raise ValueError(
                    "duplicate transitions detected: combine parallel transitions into a "
                    "single (probability, Mixture) pair before building the kernel"
                )
        index_dtype = (
            np.int32
            if max(src.size, self.n_states) <= np.iinfo(np.int32).max
            else np.int64
        )
        counts = np.bincount(src, minlength=self.n_states)
        self.csr = KernelCSR(
            np.concatenate(([0], np.cumsum(counts))).astype(index_dtype),
            dst.astype(index_dtype)[order],
            src[order],
            probs[order],
            dist_index[order].astype(np.int64, copy=False),
        )
        for array in self.csr:
            array.setflags(write=False)

        row_sums = np.bincount(src, weights=probs, minlength=self.n_states)
        dangling = np.where(row_sums < row_sum_tolerance)[0]
        if dangling.size:
            raise ValueError(
                f"states without outgoing probability mass: {dangling[:10].tolist()} — "
                "every state of a finite irreducible SMP needs at least one transition"
            )
        if np.any(np.abs(row_sums - 1.0) > row_sum_tolerance):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                "transition probabilities of each state must sum to 1 "
                f"(state {worst} sums to {row_sums[worst]:.12g})"
            )
        self._embedded_pi: np.ndarray | None = None
        self._embedded_lock = threading.Lock()

    # ------------------------------------------------------------- factory
    @classmethod
    def from_arrays(
        cls,
        n_states: int,
        transitions: Iterable[tuple[int, int, float, Distribution]],
        state_names: Sequence[str] | None = None,
    ) -> "SMPKernel":
        """Build a kernel from ``(src, dst, probability, distribution)`` tuples."""
        src, dst, probs, dist_idx = [], [], [], []
        dists: list[Distribution] = []
        index_of: dict[Distribution, int] = {}
        for i, j, p, d in transitions:
            src.append(i)
            dst.append(j)
            probs.append(p)
            if d not in index_of:
                index_of[d] = len(dists)
                dists.append(d)
            dist_idx.append(index_of[d])
        return cls(n_states, np.asarray(src), np.asarray(dst), np.asarray(probs),
                   np.asarray(dist_idx), dists, state_names)

    @classmethod
    def from_columns(
        cls,
        n_states: int,
        src: np.ndarray,
        dst: np.ndarray,
        probs: np.ndarray,
        dist_index: np.ndarray,
        distributions: Sequence[Distribution],
        state_names: Sequence[str] | None = None,
        *,
        normalise: bool = False,
    ) -> "SMPKernel":
        """Build a kernel straight from edge columns (structure-of-arrays).

        The one place edges are merged, normalised and validated — the
        state space (:meth:`repro.petri.StateSpace.kernel`) and
        :meth:`SMPBuilder.build` both end here.  When no two edges share a
        ``(src, dst)`` pair the columns go into the image as they are (any
        integer ``dist_index``; no per-edge Python objects, and the kernel
        keeps no reference to them).  Parallel edges merge by grouped reduction:
        probabilities sum, sojourns combine into a probability-weighted
        :class:`~repro.distributions.Mixture` in edge order, appended to the
        distribution table after the given entries.

        ``normalise`` rescales each state's outgoing probabilities to sum to
        one (for raw weights, or a state space truncated at its frontier).
        """
        from ..distributions import Mixture

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        dist_index = np.asarray(dist_index)
        if np.any(probs < 0) or np.any(~np.isfinite(probs)):
            raise ValueError("transition probabilities must be finite and non-negative")
        positive = probs > 0.0
        if not positive.all():
            src, dst, probs, dist_index = (
                src[positive], dst[positive], probs[positive], dist_index[positive],
            )
        if src.size == 0:
            raise ValueError("no transitions have been added")

        order, parallel = _edge_order(n_states, src, dst)
        if parallel.any():
            s_sorted, d_sorted = src[order], dst[order]
            duplicate = np.concatenate(([False], parallel))
            p_sorted, di_sorted = probs[order], dist_index[order]
            starts = np.flatnonzero(~duplicate)
            sizes = np.diff(np.append(starts, src.size))
            src = s_sorted[starts]
            dst = d_sorted[starts]
            probs = np.add.reduceat(p_sorted, starts)
            distributions = list(distributions)
            dist_of: dict[Distribution, int] = {}
            # Singleton groups (the vast majority) copy their index wholesale;
            # only genuinely parallel groups pay the Mixture construction.
            dist_index = di_sorted[starts].copy()
            for g in np.flatnonzero(sizes > 1):
                branch = slice(starts[g], starts[g] + sizes[g])
                weights = check_probability_vector(
                    p_sorted[branch], "parallel transition weights", normalise=True
                )
                mixture = Mixture(
                    [distributions[int(i)] for i in di_sorted[branch]], weights
                )
                found = dist_of.get(mixture)
                if found is None:
                    found = len(distributions)
                    dist_of[mixture] = found
                    distributions.append(mixture)
                dist_index[g] = found
            order = None  # of the columns before the merge

        if normalise:
            row_sums = np.bincount(src, weights=probs, minlength=n_states)
            zero_rows = np.where(row_sums == 0.0)[0]
            if zero_rows.size:
                raise ValueError(
                    f"cannot normalise: states {zero_rows[:10].tolist()} have no outgoing weight"
                )
            probs = probs / row_sums[src]

        return cls(n_states, src, dst, probs, dist_index, list(distributions),
                   state_names, _order=order)

    @classmethod
    def _from_csr(
        cls,
        n_states: int,
        csr: KernelCSR,
        distributions: Sequence[Distribution],
        content_digest: str | None = None,
    ) -> "SMPKernel":
        """Adopt an image exported by a kernel that passed ``__init__``.

        The plane attach path: no re-validation, no sort, no copy — ``csr`` is
        the kernel.  ``content_digest`` is the exporter's digest, kept as the
        memo :func:`kernel_content_digest` would otherwise fill by hashing the
        image on the first query.
        """
        self = cls.__new__(cls)
        self.n_states = int(n_states)
        self.csr = csr
        self.distributions = list(distributions)
        self._state_names = None
        self._state_names_factory = None
        self._embedded_pi = None
        self._embedded_lock = threading.Lock()
        if content_digest is not None:
            self._content_digest = content_digest
        return self

    def __getstate__(self):
        # The memo is per process (workers receive alpha, never pi) and a
        # lock cannot be pickled: the pickled state is what it was without.
        state = self.__dict__.copy()
        del state["_embedded_pi"], state["_embedded_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._embedded_pi = None
        self._embedded_lock = threading.Lock()

    # ------------------------------------------------------------ topology
    @property
    def n_transitions(self) -> int:
        return int(self.csr.indices.size)

    @property
    def n_distributions(self) -> int:
        return len(self.distributions)

    @property
    def state_names(self) -> list[str]:
        """Per-state display names (default ``str(index)``, built on demand)."""
        if self._state_names is None:
            if self._state_names_factory is not None:
                names = [str(s) for s in self._state_names_factory()]
                require(
                    len(names) == self.n_states,
                    "state_names must have one entry per state",
                )
                self._state_names = names
            else:
                self._state_names = [str(i) for i in range(self.n_states)]
        return self._state_names

    def embedded_matrix(self) -> sparse.csr_matrix:
        """One-step transition probability matrix ``P`` of the embedded DTMC."""
        csr = self.csr
        return sparse.csr_matrix(
            (csr.probs, csr.indices, csr.indptr),
            shape=(self.n_states, self.n_states), copy=True,
        )

    def embedded_steady_state(self) -> np.ndarray:
        """Stationary vector of the embedded DTMC, solved once per kernel.

        Every multi-source ``alpha`` (Eq. 5) and every long-run state
        probability on this kernel derives from the same vector, so it is
        memoised like ``_content_digest``: lazily (registration and
        single-source measures never pay for it) and single-flight
        (concurrent first queries wait on one solve).  The memoised array is
        shared and read-only.
        """
        from .embedded import dtmc_steady_state  # embedded imports this module

        pi = self._embedded_pi
        if pi is None:
            with self._embedded_lock:
                pi = self._embedded_pi
                if pi is None:
                    pi = dtmc_steady_state(self.embedded_matrix())
                    pi.setflags(write=False)
                    self._embedded_pi = pi
        return pi

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the transition structure.

        The arrays are the kernel's own (:attr:`csr`) and read-only.  Graph
        algorithms (partitioners, BFS orderings) should traverse these instead
        of rebuilding Python adjacency lists.
        """
        return self.csr.indptr, self.csr.indices

    def state_index(self, name: str) -> int:
        """Index of the state called ``name`` (O(n) lookup, for small models/tests)."""
        try:
            return self.state_names.index(name)
        except ValueError:
            raise KeyError(f"unknown state name {name!r}") from None

    def states_matching(self, predicate) -> list[int]:
        """All state indices whose *name* satisfies ``predicate``."""
        return [i for i, name in enumerate(self.state_names) if predicate(name)]

    # ----------------------------------------------------------- transforms
    def evaluator(self) -> "UEvaluator":
        """A reusable evaluator of ``U(s)`` / ``U'(s)`` over :attr:`csr` (O(1))."""
        return UEvaluator(self)

    def mean_sojourn_times(self) -> np.ndarray:
        """Expected sojourn time in each state: ``m_i = sum_j p_ij E[H_ij]``."""
        means = np.asarray([d.mean() for d in self.distributions], dtype=float)
        contrib = self.csr.probs * means[self.csr.dist_index]
        return np.bincount(self.csr.rows, weights=contrib, minlength=self.n_states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SMPKernel(n_states={self.n_states}, n_transitions={self.n_transitions}, "
            f"n_distributions={self.n_distributions})"
        )


def entry_values(
    table: np.ndarray, dist: np.ndarray, probs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``table[..., dist] * probs``: the ``U(s)`` entries ``p_e · lst_d(s)``
    of distributions ``dist`` and probabilities ``probs`` at each s-point of
    ``table`` (an :meth:`UEvaluator.lst_table`, or one row of it) — the one
    writer of per-edge values, so every solver forms an entry as the same
    product.  The gather runs in ``mode="clip"``: the indices are in range by
    construction, and numpy's default mode buffers ``out``.
    """
    if out is None:
        out = np.empty((*table.shape[:-1], dist.size), dtype=complex)
    np.take(table, dist, axis=-1, out=out, mode="clip")
    out *= probs
    return out


def _diagonal_copies(indptr: np.ndarray, indices: np.ndarray, width: int, stride: int):
    """``(indptr, indices)`` of ``width`` diagonal copies of one CSR structure,
    copy ``t``'s column indices moved by ``t · stride``."""
    rows, nnz = indptr.size - 1, indices.size
    fits = width * max(stride, nnz, rows) <= np.iinfo(np.int32).max
    copies = np.arange(width, dtype=np.int32 if fits else np.int64)[:, None]
    out_indptr = np.empty(width * rows + 1, dtype=copies.dtype)
    np.add(indptr[:-1], copies * nnz, out=out_indptr[:-1].reshape(width, rows))
    out_indptr[-1] = width * nnz
    out_indices = np.empty(width * nnz, dtype=copies.dtype)
    np.add(indices, copies * stride, out=out_indices.reshape(width, nnz))
    return out_indptr, out_indices


def _csc_identity_plus(n_states: int, rows: np.ndarray, cols: np.ndarray):
    """The CSC structure of the identity plus the entries ``(rows, cols)``.

    Returns ``(nnz, indices, indptr, diag_pos, entry_pos)``: the merged
    pattern (an entry on the diagonal shares its position with the identity)
    and where the identity's and each entry's value lands in its data vector.
    ``(rows, cols)`` hold no duplicates (the kernel rejects parallel
    transitions), so ``data[entry_pos] -= values`` is a safe scatter.
    """
    n = n_states
    diag = np.arange(n, dtype=np.int64)
    keys = np.concatenate((diag, cols)) * np.int64(n) + np.concatenate((diag, rows))
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    indices = (unique_keys % n).astype(np.int32)
    col_counts = np.bincount((unique_keys // n).astype(np.int64), minlength=n)
    indptr = np.concatenate(([0], np.cumsum(col_counts))).astype(np.int32)
    return int(unique_keys.size), indices, indptr, inverse[:n], inverse[n:]


#: A block-diagonal structure above this many bytes is handed out but not kept
#: (:meth:`UEvaluator.block_diag_structure`): an evaluator outlives its
#: solves, and a structure sized for one very wide block would pin that
#: memory for the life of the model.
BLOCK_DIAG_RETAIN_BYTES = 256 << 20


class UEvaluator:
    """Evaluates ``U(s)`` over the kernel's image, a grid of s-points at a time.

    ``U(s)``'s entries are ``p_e · lst_d(s)`` for a handful of distinct
    distributions ``d``, so the ``(n_s, n_dists)`` transform table
    (:meth:`lst_table`) is all a block solve evaluates: it answers each
    point's contraction (:meth:`contraction`), hence its routing and run
    order, and each solver writes the entries it reads from its rows
    (:func:`entry_values`).  The evaluator keeps no per-point data.
    The structural arrays are the kernel's :attr:`~SMPKernel.csr`, shared,
    never copied — constructing an evaluator is O(1) whatever the kernel's
    size.
    """

    def __init__(self, kernel: SMPKernel):
        self.kernel = kernel
        self.csr = kernel.csr
        self._block_diag: tuple[int, np.ndarray, np.ndarray] | None = None
        self._dist_row_sums: np.ndarray | None = None
        self._factored = None
        #: the per-mask structures, ``{kind: OrderedDict(mask bytes -> structure)}``
        self._per_mask: "dict[str, OrderedDict[bytes, object]]" = {}
        self._per_mask_lock = threading.RLock()  # a build may ask for another kind

    #: how many structures of each kind (one per absorbing mask) to keep: a
    #: bound on what an evaluator holds, not a tuned figure — a mask asked
    #: again after falling out pays its build again (a direct ordering 4–7 ms
    #: on system 0)
    _PER_MASK = 4

    #: cap on one chunk of a :meth:`fill_u_data` fill, in bytes of per-edge data
    batch_fill_bytes: int = 256 << 20

    def factored(self) -> "FactoredUEvaluator":
        """The distribution-factored multi-s engine sharing this kernel.

        Built lazily and cached: the pair decompositions cost one pass over
        the edges and are reused by every factored solve on this evaluator.
        """
        if self._factored is None:
            from .factored import FactoredUEvaluator

            self._factored = FactoredUEvaluator(self)
        return self._factored

    # ------------------------------------------------------------- batch API
    def lst_table(self, s_values) -> np.ndarray:
        """``(n_s, n_dists)`` table of the distributions' transforms over a grid.

        Each distinct distribution is evaluated exactly once over the whole
        grid, so the per-distribution Python overhead is amortised across it.
        """
        s_values = np.asarray(s_values, dtype=complex).ravel()
        table = np.empty((s_values.size, len(self.kernel.distributions)), dtype=complex)
        for k, dist in enumerate(self.kernel.distributions):
            table[:, k] = dist.lst_batch(s_values)
        return table

    def fill_u_data(self, table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """CSR data of ``U(s)`` for each row of an :meth:`lst_table`.

        Returns an ``(n_s, nnz)`` array whose row ``t`` is the data vector of
        ``U`` at the s-point of ``table[t]``, in the shared CSR entry order,
        written once (optionally straight into ``out``) by :func:`entry_values`
        in s-chunks of at most :attr:`batch_fill_bytes`.
        """
        csr, nnz = self.csr, self.csr.indices.size
        if out is None:
            out = np.empty((table.shape[0], nnz), dtype=complex)
        elif out.shape != (table.shape[0], nnz):
            raise ValueError("out must have shape (n_s, nnz)")
        chunk = max(1, int(self.batch_fill_bytes // max(nnz * 16, 1)))
        for lo in range(0, table.shape[0], chunk):
            entry_values(table[lo:lo + chunk], csr.dist_index, csr.probs, out[lo:lo + chunk])
        return out

    def u_data_batch(self, s_values, out: np.ndarray | None = None) -> np.ndarray:
        """CSR data of ``U(s)`` for a whole grid of s-points at once:
        :meth:`fill_u_data` of the grid's :meth:`lst_table`.

        The result scales as ``O(n_s · nnz)`` and is not retained: callers
        handling large kernels block their s-grid (see
        :class:`~repro.smp.passage.SPointPolicy.block_points`) or use the
        factored engine, which never materialises per-edge data.
        """
        return self.fill_u_data(self.lst_table(s_values), out)

    def sojourn_lst_batch(self, s_values) -> np.ndarray:
        """``(n_s, n_states)`` sojourn transforms ``h*_i(s)`` for a grid of s."""
        return np.add.reduceat(self.u_data_batch(s_values), self.csr.indptr[:-1], axis=1)

    def dist_row_sums(self) -> np.ndarray:
        """``R[d, i] = Σ_j p_ij`` over the transitions of distribution ``d``.

        ``(n_dists, n_states)``, built once per evaluator.
        """
        if self._dist_row_sums is None:
            csr = self.csr
            R = np.zeros((len(self.kernel.distributions), self.kernel.n_states))
            np.add.at(R, (csr.dist_index, csr.rows), csr.probs)
            self._dist_row_sums = R
        return self._dist_row_sums

    def contraction(
        self, table: np.ndarray, absorbing: np.ndarray | None, *, chunk: int = 65536
    ) -> np.ndarray:
        """``max_i Σ_j |m_ij(s)|`` per row of an :meth:`lst_table`.

        ``M`` is ``U`` with the ``absorbing`` states' rows zeroed, and
        ``|u_ij(s)| = p_ij |lst_d(s)|``, so the row sums are ``|L| @ R``
        (:meth:`dist_row_sums`) with the absorbing states' zeroed — an
        ``(n_s, n_dists) × (n_dists, n)`` product, evaluated in state chunks
        to keep the intermediate bounded, that never touches per-edge data.
        It bounds the per-iteration contraction of the iterative sum, which
        is what routing and run order read; both engines route by it.
        """
        abs_lst = np.abs(table)
        R = self.dist_row_sums()
        n = self.kernel.n_states
        best = np.zeros(abs_lst.shape[0])
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            rows = abs_lst @ R[:, lo:hi]
            if absorbing is not None and absorbing[lo:hi].any():
                rows[:, absorbing[lo:hi]] = 0.0
            if rows.size:
                np.maximum(best, rows.max(axis=1), out=best)
        return best

    def direct_solve_structure(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached CSC symbolic structure of ``A = I - U K`` (Eq. 3), unpermuted.

        The real solve at ``s = 0`` (:func:`repro.smp.linear.passage_moments`)
        reads it.  The pattern is independent of both ``s`` and the target
        set (targets only zero data), so it is assembled once per evaluator:
        the identity's coordinates are merged with ``U``'s, sorted into CSC
        order, and duplicates collapsed (a self-loop of ``U`` shares its
        position with the diagonal).  Returns ``(nnz_A, indices, indptr,
        diag_pos, u_pos)`` where ``diag_pos``/``u_pos`` map the identity/U
        entries into the CSC data vector.
        """
        if getattr(self, "_a_structure", None) is None:
            csr = self.csr
            self._a_structure = _csc_identity_plus(self.kernel.n_states, csr.rows, csr.indices)
        return self._a_structure

    def per_mask(self, kind: str, absorbing: np.ndarray, build):
        """``build(absorbing)``, kept for the last :attr:`_PER_MASK` masks of ``kind``.

        The one cache of the structures a solve derives from the kernel and
        an absorbing mask — the direct solve's ordering, the factored
        engine's row structure — so every s-point of a measure, across its
        blocks and its queries, uses one structure built once.  A server's
        request threads share one evaluator, so the cache is locked and
        single-flight: concurrent first asks for a mask wait on one build.
        """
        key = np.asarray(absorbing, dtype=bool).tobytes()
        with self._per_mask_lock:
            held_of_kind = self._per_mask.setdefault(kind, OrderedDict())
            held = held_of_kind.pop(key, None)
            if held is None:
                held = build(absorbing)
            held_of_kind[key] = held  # most recent last
            while len(held_of_kind) > self._PER_MASK:
                held_of_kind.popitem(last=False)
        return held

    def components(self, absorbing: np.ndarray) -> "StrongComponents":
        """The strong components of ``U K`` for one absorbing mask, in
        topological order (:class:`repro.smp.linear.StrongComponents`): what
        the direct ordering and the passage walk read, kept by :meth:`per_mask`.
        Built at a mask's first solve, never at build or registration."""
        from .linear import StrongComponents

        return self.per_mask(
            "components", absorbing, lambda mask: StrongComponents(self, mask)
        )

    def direct_ordering(self, absorbing: np.ndarray) -> "DirectOrdering":
        """The complex direct solve's symbolic analysis for one absorbing mask
        (:class:`repro.smp.linear.DirectOrdering`), kept by :meth:`per_mask`."""
        from .linear import DirectOrdering

        return self.per_mask(
            "direct-ordering", absorbing, lambda mask: DirectOrdering(self, mask)
        )

    def block_diag_structure(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of ``block_diag`` of ``width`` copies of :attr:`csr`.

        The structure the transient's batched iteration multiplies by (a
        passage walks its components on structures of its own,
        :meth:`StrongComponents.window_copies
        <repro.smp.linear.StrongComponents.window_copies>`): with the block's
        ``(width, nnz)`` data raveled it *is* ``block_diag(M(s_1), ...,
        M(s_width))`` in CSR form (one C-level product per iteration instead
        of ``width``), and its ``.T`` — scipy's CSC scatter over the same
        three arrays — applies every row-form product ``v_t @ M(s_t)``.  The
        arrays depend on the kernel alone, so they are built once, on first
        use, at the widest block seen (int32 while ``width · max(n, nnz)``
        fits); a block of ``w <= width`` points reads the prefixes
        ``indptr[:w·n + 1]``, ``indices[:w·nnz]``.  A structure above
        :data:`BLOCK_DIAG_RETAIN_BYTES` is handed out but not kept.
        """
        held = self._block_diag
        if held is None or held[0] < width:
            n = self.kernel.n_states
            held = (width, *_diagonal_copies(self.csr.indptr, self.csr.indices, width, n))
            if held[2].nbytes <= BLOCK_DIAG_RETAIN_BYTES:
                self._block_diag = held
        n, nnz = self.kernel.n_states, self.csr.indices.size
        return held[1][: width * n + 1], held[2][: width * nnz]

    @cached_property
    def reach(self) -> np.ndarray:
        """``reach[h]``: one past the highest state any of rows ``0..h-1`` leads to.

        A row vector supported on the states below ``h`` stays, after one
        product with ``U(s)`` or ``U'(s)``, supported below ``reach[h]`` —
        whatever ``s`` and the target set, because the bound reads the
        structure only.  The transient's row iteration multiplies just that
        prefix of source rows (a passage walks its strong components instead).  Length ``n + 1``, non-decreasing, ``reach[0] = 0``;
        built once per evaluator from :attr:`csr` (every row has an entry).
        """
        reach = np.zeros(self.kernel.n_states + 1, dtype=np.int64)
        row_max = np.maximum.reduceat(self.csr.indices, self.csr.indptr[:-1])
        np.maximum.accumulate(row_max, out=reach[1:])
        reach[1:] += 1
        return reach

    def row_entries(self, states: np.ndarray) -> np.ndarray:
        """Entry positions of the rows of ``states`` (ascending), in entry order.

        ``flatnonzero(mask[csr.rows])`` read off ``indptr`` instead: O(the
        rows' own entries), not O(nnz).
        """
        lo = self.csr.indptr[states].astype(np.int64)
        counts = self.csr.indptr[states + 1] - lo
        first = np.cumsum(counts) - counts  # where each row's run starts in the answer
        return np.repeat(lo - first, counts) + np.arange(counts.sum())

    def alpha_vec_matrix_batch(
        self, alpha: np.ndarray, table: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """``out[t] = alpha @ U(s_t)`` for each row ``t`` of an :meth:`lst_table`.

        The batched engines start every s-point from the same source
        weighting, so the product only needs the entries whose *source row*
        carries alpha weight — for the typical single-source passage measure
        that is a handful of transitions rather than the whole kernel — and
        those entries' values are written from the table by
        :func:`entry_values`.  ``columns`` renumbers the states of the result
        (the passage walk's positions).
        """
        alpha = np.asarray(alpha, dtype=complex)
        sel = self.row_entries(np.flatnonzero(alpha))
        out = np.zeros((table.shape[0], self.kernel.n_states), dtype=complex)
        if sel.size == 0:
            return out
        cols = self.csr.indices[sel]
        if columns is not None:
            cols = columns[cols]
        data = entry_values(table, self.csr.dist_index[sel], self.csr.probs[sel])
        contrib = data * alpha[self.csr.rows[sel]]
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_cols)) + 1))
        out[:, sorted_cols[starts]] = np.add.reduceat(contrib[:, order], starts, axis=1)
        return out
