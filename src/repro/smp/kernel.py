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
DIGEST_EPOCH = b"smp-digest-epoch-3"


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


def _diagonal_copies(csr: KernelCSR, n_states: int, width: int):
    """``(indptr, indices)`` of ``width`` diagonal copies of ``csr``."""
    nnz = csr.indices.size
    fits = width * max(n_states, nnz) <= np.iinfo(np.int32).max
    copies = np.arange(width, dtype=np.int32 if fits else np.int64)[:, None]
    indptr = np.empty(width * n_states + 1, dtype=copies.dtype)
    np.add(csr.indptr[:-1], copies * nnz, out=indptr[:-1].reshape(width, n_states))
    indptr[-1] = width * nnz
    indices = np.empty(width * nnz, dtype=copies.dtype)
    np.add(csr.indices, copies * n_states, out=indices.reshape(width, nnz))
    return indptr, indices


class _BatchLRU:
    """A handful of recent ``U(s)`` data grids, keyed by the grid bytes.

    One slot covers the transient computation (which re-requests the same
    grid once per target state); a long-lived analysis service additionally
    interleaves *measures* on one shared evaluator — density, CDF and
    quantile-refinement requests that alternate between a few distinct
    grids — so a short LRU keeps those from evicting each other.  Grids
    larger than ``max_entry_bytes`` are never retained: pinning several
    multi-GiB ``(n_s, nnz)`` arrays is exactly the failure mode the blocked
    evaluation path exists to avoid.
    """

    def __init__(self, capacity: int = 4, max_entry_bytes: int = 256 << 20):
        self.capacity = capacity
        self.max_entry_bytes = max_entry_bytes
        self._entries: "OrderedDict[bytes, np.ndarray]" = OrderedDict()

    def get(self, key: bytes) -> np.ndarray | None:
        data = self._entries.get(key)
        if data is not None:
            self._entries.move_to_end(key)
        return data

    def put(self, key: bytes, data: np.ndarray) -> None:
        if data.nbytes > self.max_entry_bytes:
            return
        self._entries[key] = data
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


class UEvaluator:
    """Evaluates ``U(s)`` over the kernel's image, a grid of s-points at a time.

    The iterative algorithm calls this once per s-block and then performs
    ``O(r)`` sparse products, so only the complex data grid is refreshed when
    the s-points change; the structural arrays are the kernel's
    :attr:`~SMPKernel.csr`, shared, never copied — constructing an evaluator
    is O(1) whatever the kernel's size.
    """

    def __init__(self, kernel: SMPKernel):
        self.kernel = kernel
        self.csr = kernel.csr
        self._batch_cache = _BatchLRU()
        self._block_diag: tuple[int, np.ndarray, np.ndarray] | None = None
        self._factored = None

    #: cap on the temporary working set of one internal ``u_data_batch``
    #: fill chunk; the gather below is performed in s-slices of at most this
    #: many bytes so building a large grid never doubles its own footprint
    batch_fill_bytes: int = 256 << 20

    def fill_chunk_points(self) -> int:
        """How many s-points of per-edge data fit one :attr:`batch_fill_bytes`
        working chunk (shared by the batch fill and the direct solver)."""
        return max(1, int(self.batch_fill_bytes // max(self.csr.indices.size * 16, 1)))

    def factored(self, exported: dict | None = None) -> "FactoredUEvaluator":
        """The distribution-factored multi-s engine sharing this kernel.

        Built lazily and cached: the pair decompositions cost one pass over
        the edges and are reused by every factored solve on this evaluator.
        ``exported`` (the arrays of :meth:`FactoredUEvaluator.export`, e.g.
        views into an attached plane) are adopted instead of recomputed.
        """
        if self._factored is None:
            from .factored import FactoredUEvaluator

            self._factored = FactoredUEvaluator(self, exported)
        return self._factored

    @property
    def factored_built(self) -> bool:
        """Whether :meth:`factored` has been asked for on this evaluator."""
        return self._factored is not None

    # ------------------------------------------------------------- batch API
    def u_data_batch(self, s_values, out: np.ndarray | None = None) -> np.ndarray:
        """CSR data of ``U(s)`` for a whole grid of s-points at once.

        Returns an ``(n_s, nnz)`` array whose row ``t`` is the data vector of
        ``U(s_values[t])`` in the shared CSR entry order.  Each distinct
        distribution's transform is evaluated exactly once over the full grid,
        so the per-distribution Python overhead is amortised across the
        batch.  The result is assembled in s-chunks bounded by
        :attr:`batch_fill_bytes` (optionally straight into ``out``), so the
        build never allocates beyond the result itself; results small enough
        to be worth retaining are cached (see :class:`_BatchLRU`): measures
        sharing one evaluator alternate between a few grids.

        The *result* still scales as ``O(n_s · nnz)``: callers handling
        large kernels should block their s-grid (see
        :class:`~repro.smp.passage.SPointPolicy.block_points`) or use the
        factored engine, which never materialises per-edge data.
        """
        s_values = np.asarray(s_values, dtype=complex).ravel()
        nnz = self.csr.indices.size
        if out is not None and out.shape != (s_values.size, nnz):
            raise ValueError("out must have shape (n_s, nnz)")
        key = s_values.tobytes()
        cached = self._batch_cache.get(key)
        if cached is not None:
            if out is not None:
                out[:] = cached
                return out
            return cached
        # A caller-owned buffer must never enter the LRU: the caller will
        # overwrite it, silently corrupting every alias in the cache.
        cacheable = out is None
        if out is None:
            out = np.empty((s_values.size, nnz), dtype=complex)
        lst_matrix = np.empty(
            (s_values.size, len(self.kernel.distributions)), dtype=complex
        )
        for k, dist in enumerate(self.kernel.distributions):
            lst_matrix[:, k] = dist.lst_batch(s_values)
        chunk = self.fill_chunk_points()
        for lo in range(0, s_values.size, chunk):
            hi = min(lo + chunk, s_values.size)
            block = out[lo:hi]
            np.take(lst_matrix[lo:hi], self.csr.dist_index, axis=1, out=block)
            block *= self.csr.probs
        if cacheable:
            self._batch_cache.put(key, out)
        return out

    def sojourn_lst_batch(self, s_values) -> np.ndarray:
        """``(n_s, n_states)`` sojourn transforms ``h*_i(s)`` for a grid of s."""
        return np.add.reduceat(self.u_data_batch(s_values), self.csr.indptr[:-1], axis=1)

    def row_abs_sums(self, data_batch: np.ndarray) -> np.ndarray:
        """Per-state row sums of ``|data|`` for every s-point: ``(n_s, n_states)``.

        The maximum over states bounds the per-iteration contraction of the
        iterative sum, which is what the adaptive iterative/direct policy uses
        to predict iteration counts.
        """
        return np.add.reduceat(np.abs(data_batch), self.csr.indptr[:-1], axis=1)

    def direct_solve_structure(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached CSC symbolic structure of ``A = I - U K`` (Eq. 3).

        The pattern is independent of both ``s`` and the target set (targets
        only zero data), so it is assembled once per evaluator: the identity's
        coordinates are merged with ``U``'s, sorted into CSC order, and
        duplicates collapsed (a self-loop of ``U`` shares its position with
        the diagonal).  Returns ``(nnz_A, indices, indptr, diag_pos, u_pos)``
        where ``diag_pos``/``u_pos`` map the identity/U entries into the CSC
        data vector.
        """
        if getattr(self, "_a_structure", None) is None:
            n = self.kernel.n_states
            diag = np.arange(n, dtype=np.int64)
            all_rows = np.concatenate((diag, self.csr.rows))
            all_cols = np.concatenate((diag, self.csr.indices))
            keys = all_cols * np.int64(n) + all_rows
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            a_indices = (unique_keys % n).astype(np.int32)
            col_counts = np.bincount((unique_keys // n).astype(np.int64), minlength=n)
            a_indptr = np.concatenate(([0], np.cumsum(col_counts))).astype(np.int32)
            self._a_structure = (
                int(unique_keys.size), a_indices, a_indptr, inverse[:n], inverse[n:]
            )
        return self._a_structure

    def block_diag_structure(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of ``block_diag`` of ``width`` copies of :attr:`csr`.

        The structure the batched iteration multiplies by: with the block's
        ``(width, nnz)`` data raveled it *is* ``block_diag(M(s_1), ...,
        M(s_width))`` in CSR form (one C-level product per iteration instead
        of ``width``), and its ``.T`` — scipy's CSC scatter over the same
        three arrays — applies every row-form product ``v_t @ M(s_t)``.  The
        arrays depend on the kernel alone, so they are built once, on first
        use, at the widest block seen (int32 while ``width · max(n, nnz)``
        fits); a block of ``w <= width`` points reads the prefixes
        ``indptr[:w·n + 1]``, ``indices[:w·nnz]``.  Retention follows the
        U-grid LRU's rule: a structure above ``max_entry_bytes`` is handed
        out but not kept.
        """
        held = self._block_diag
        if held is None or held[0] < width:
            held = (width, *_diagonal_copies(self.csr, self.kernel.n_states, width))
            if held[2].nbytes <= self._batch_cache.max_entry_bytes:
                self._block_diag = held
        n, nnz = self.kernel.n_states, self.csr.indices.size
        return held[1][: width * n + 1], held[2][: width * nnz]

    @cached_property
    def reach(self) -> np.ndarray:
        """``reach[h]``: one past the highest state any of rows ``0..h-1`` leads to.

        A row vector supported on the states below ``h`` stays, after one
        product with ``U(s)`` or ``U'(s)``, supported below ``reach[h]`` —
        whatever ``s`` and the target set, because the bound reads the
        structure only.  The row-form iteration multiplies just that prefix
        of source rows.  Length ``n + 1``, non-decreasing, ``reach[0] = 0``;
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
        self, alpha: np.ndarray, data_batch: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """``out[t] = alpha @ M(s)`` at the s-point of row ``points[t]`` of ``data_batch``.

        The batched engines start every s-point from the same source
        weighting, so the product only needs the entries whose *source row*
        carries alpha weight — for the typical single-source passage measure
        that is a handful of transitions rather than the whole kernel.
        """
        alpha = np.asarray(alpha, dtype=complex)
        sel = self.row_entries(np.flatnonzero(alpha))
        out = np.zeros((points.size, self.kernel.n_states), dtype=complex)
        if sel.size == 0:
            return out
        cols = self.csr.indices[sel]
        contrib = data_batch[points[:, None], sel] * alpha[self.csr.rows[sel]]
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_cols)) + 1))
        out[:, sorted_cols[starts]] = np.add.reduceat(contrib[:, order], starts, axis=1)
        return out
