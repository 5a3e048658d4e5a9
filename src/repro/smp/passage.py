"""The iterative passage-time algorithm of Section 3 of the paper.

For a fixed transform argument ``s`` the first-passage-time transform from a
weighted set of source states into a target set ``j`` is the limit of the
r-transition quantities

    L^(r)(s) = (alpha U + alpha U U' + ... + alpha U U'^(r-1)) e        (Eq. 10)

where ``U`` has entries ``r*_pq(s)``, ``U'`` equals ``U`` with the target
states made absorbing and ``e`` indicates the target states.  The sum is
evaluated with sparse vector–matrix products and truncated once successive
terms fall below a tolerance in both real and imaginary parts (Eq. 11) —
``O(N^2 r)`` work in the worst case versus the ``O(N^3)`` of a direct solve.

The computation has one shape, over a whole s-grid (a single s-point is a
grid of one — there is no scalar implementation): a row vector ``v``
advanced by ``v <- v @ M(s)`` from alpha, accumulating one complex per
s-point.  :func:`passage_transform_batch` sums Eq. (10) with ``M = U'`` and
the target indicator ``e``; :func:`repro.smp.transient.transient_transform_batch`
sums the transient's Markov-renewal series with ``M = U`` and the weight
``w(s) = (1 - h*(s)) / s`` on the targets in place of ``e``.

Batched evaluation
------------------
The batched entry points advance *all* s-points of an inversion grid through
one truncated sum.  Whatever the measure, the work runs through four layers,
each of which exists exactly once:

* **scaffold** (:func:`_block_loop`) — resolves the engine, sizes the blocks
  so the per-block working set respects the policy's memory budget (a
  165-point Euler grid streams through a million-state kernel instead of
  materialising an ``O(n_s · nnz)`` data matrix) and, per block, opens one
  ``s-block-solve`` span, times one solve and notes it once.  Passage,
  transient and explicit ``solver="direct"`` solves all loop here.
* **block** (:func:`_solve_block`) — computes the per-point contraction and
  the routing mask once, sends the routed points (all of them for an
  explicit direct solve) to the sparse-LU solver, drives the rest and
  re-solves cap-hitting points directly.  It knows passage from transient
  only through a small :class:`_Form`.
* **driver** (:func:`_drive`) — the active-set iteration: one truncation
  rule, converged points snapshotted and zeroed, the operator narrowed to
  the prefix that still holds a live point.  The block orders its points
  slowest first (largest contraction), so points converge from the back, the
  prefix is nearly the live set (1.02 rows advanced per useful one on the
  benchmark's grid) and narrowing is a view: no data moves, nothing is
  rebuilt.  It never asks which form or engine it runs.
* **operator** — what applies ``M(s)`` to every live point per iteration
  and accumulates the form's sum, the absorbing states (``M``) and the
  accumulation (``e`` or ``w``) held apart:
  ``batch`` (per-s-point complex CSR data, written once per block in run
  order: one block-diagonal sparse product for the whole block — views of
  that data under the kernel's one block-diagonal structure — or one call
  of scipy's sparse kernel per live point on its own data, while the
  frontier is short of ``n`` or once the block's state exceeds
  :data:`BLOCKDIAG_MAX_BYTES`) or ``factored`` (the distribution-factored
  product of :mod:`repro.smp.factored`, whose per-iteration sparse work is
  independent of the number of points in flight), behind one protocol.
  The frontier is structural: states are numbered in exploration order, so
  the support of ``v`` grows as a prefix from alpha's, and a step multiplies
  only the source rows of that prefix (:attr:`UEvaluator.reach
  <repro.smp.kernel.UEvaluator.reach>`) — same values, byte for byte.

Every engine therefore runs the *same* truncation rule through one shared
driver; a passage agrees with the one-point-at-a-time oracle of
``tests/reference`` to float associativity, a transient with the oracle's
target-by-target assembly of Eq. (7) to the truncation tolerance (the two
truncate different sums).  The :class:`SPointPolicy` picks the engine (once per
kernel), routes hard (small ``|s|``) points to the sparse-LU direct solve and
bounds block sizes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

from .factored import FactoredRowOperator
from .kernel import as_evaluator, check_alpha, target_mask, weighted_sums
from .linear import passage_transform_direct_batch, transient_transform_direct_batch

__all__ = [
    "PassageTimeOptions",
    "ConvergenceDiagnostics",
    "SPointPolicy",
    "passage_transform_batch",
]


@dataclass(frozen=True)
class PassageTimeOptions:
    """Truncation controls for the iterative sum.

    Attributes
    ----------
    epsilon:
        Convergence threshold applied separately to the real and imaginary
        part of the change between successive iterates (Eq. 11).
    max_iterations:
        Hard cap on the number of transitions ``r``; exceeding it marks the
        result as unconverged rather than raising, so long-running sweeps can
        report partial diagnostics.
    consecutive:
        Number of consecutive below-threshold steps required before the sum
        is declared converged (guards against coincidentally tiny terms).
    """

    epsilon: float = 1e-8
    max_iterations: int = 100_000
    consecutive: int = 2

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")


@dataclass
class ConvergenceDiagnostics:
    """Outcome of one truncated iterative sum."""

    iterations: int
    converged: bool
    final_delta: float
    matvec_count: int = field(default=0)
    #: which solver produced the value: "iterative", "direct" (policy-routed)
    #: or "direct-fallback" (iterative hit the cap and was re-solved exactly)
    solver: str = field(default="iterative")
    #: number of sparse-LU solves spent on this value (fallback points keep
    #: their matvec_count too — they paid for both)
    direct_solves: int = field(default=0)
    #: which evaluation engine advanced the iterative sum ("batch" or
    #: "factored"; direct-routed points keep the block's engine label), or
    #: "direct-lu" for a point of an explicit ``solver="direct"`` solve
    engine: str = field(default="batch")

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.converged


# Thresholds no benchmark, test matrix or deployment ever set to a second
# value: constants beside the code that reads them, not policy fields.

#: ``auto`` picks the factored engine when the kernel's fan-out measure
#: ``nnz / (pairs + 2n)`` is at least this (see
#: :meth:`FactoredUEvaluator.density_ratio
#: <repro.smp.factored.FactoredUEvaluator.density_ratio>`).
FACTORED_DENSITY_RATIO = 3.0
#: ``auto`` never factors kernels with more distinct distributions than this
#: (the per-distribution slices stop paying for themselves).
FACTORED_MAX_DISTRIBUTIONS = 64
#: Kernels larger than this never *route* points to the sparse-LU solver
#: (fill-in makes million-state factorisations slower than very long
#: iterative sums); unconverged points then come back truncated with
#: ``converged=False`` instead of falling back.  An explicit
#: ``solver="direct"`` is a request, not a routing decision, and is honoured.
DIRECT_MAX_STATES = 200_000
#: The batch engine applies one block-diagonal product for the whole block
#: while the block's state (``width × n`` complex) is at most this many
#: bytes, and one sparse kernel call per live point beyond it.  Measured on system 0
#: (1,876 states, 7,959 edges; scratch probe, PR 21): the product costs
#: 1.5-2.1 ns per edge at every width from 1 to 128 (state up to 3.7 MiB) —
#: scipy's scalar complex multiply-add rate, not a memory rate, so below the
#: threshold the block-diagonal form buys the per-matvec Python cost and
#: nothing else — and 3.5-3.9 ns per edge at widths 512 and 2,048 (state 15
#: and 59 MiB), where ``U'`` streams from memory.  The threshold itself
#: predates that probe and was not re-derived from it.
BLOCKDIAG_MAX_BYTES = 64 << 20


@dataclass(frozen=True)
class SPointPolicy:
    """Evaluation policy: engine choice, memory budget and per-point routing.

    The iterative algorithm's per-step contraction is bounded by the maximum
    row sum ``rho(s)`` of ``|U'(s)|``, which tends to one as ``s -> 0`` — the
    rare-event regime of Fig. 6, where a single s-point can need thousands of
    matvecs.  Since the first term of the sum has 1-norm at most one, reaching
    the truncation threshold ``epsilon`` needs roughly
    ``log(epsilon) / log(rho)`` transitions; points whose prediction exceeds
    ``predicted_iteration_limit`` are handed to the direct solver instead,
    where they cost one LU factorisation regardless of ``|s|`` (and come back
    exact rather than truncated).

    Attributes
    ----------
    predicted_iteration_limit:
        Predicted-iteration count above which an s-point is routed to the
        direct solver.  Set to a huge value to force the pure iterative path.
    fallback_to_direct:
        Re-solve directly any point that the iterative sum fails to converge
        within ``max_iterations`` (rather than returning a truncated value).
    engine:
        ``"auto"`` picks per kernel (see :meth:`resolve_engine`); ``"batch"``
        or ``"factored"`` force one engine.
    max_block_bytes:
        Memory budget for one s-block's working set; the s-grid is processed
        in blocks of :meth:`block_points` points.
    watchdog_floor_seconds / watchdog_multiplier:
        Hung-worker detection for dispatched s-blocks: a block running longer
        than ``max(floor, multiplier * longest observed block)`` is declared
        hung, its pool is torn down and the unfinished blocks are
        resubmitted.  ``multiplier <= 0`` disables the watchdog.  These (and
        ``poison_after``) tune failure handling, not the arithmetic — they
        are excluded from ``repr`` so job digests (and therefore on-disk
        checkpoints) are insensitive to them.
    poison_after:
        A block implicated in this many consecutive pool breaks is declared
        poisonous and the run fails fast with a structured error naming it,
        instead of burning every retry on a deterministic crasher.

    The engine-choice, LU-size and block-diagonal thresholds are module
    constants (:data:`FACTORED_DENSITY_RATIO`,
    :data:`FACTORED_MAX_DISTRIBUTIONS`, :data:`DIRECT_MAX_STATES`,
    :data:`BLOCKDIAG_MAX_BYTES`), not fields.
    """

    predicted_iteration_limit: int = 2000
    fallback_to_direct: bool = True
    engine: str = "auto"
    max_block_bytes: int = 1 << 30
    watchdog_floor_seconds: float = field(default=30.0, repr=False)
    watchdog_multiplier: float = field(default=8.0, repr=False)
    poison_after: int = field(default=3, repr=False)

    def __post_init__(self):
        if self.predicted_iteration_limit < 1:
            raise ValueError("predicted_iteration_limit must be >= 1")
        if self.engine not in ("auto", "batch", "factored"):
            raise ValueError("engine must be 'auto', 'batch' or 'factored'")
        if self.max_block_bytes < 1 << 20:
            raise ValueError("max_block_bytes must be at least 1 MiB")
        if self.watchdog_floor_seconds <= 0:
            raise ValueError("watchdog_floor_seconds must be > 0")
        if self.poison_after < 1:
            raise ValueError("poison_after must be >= 1")

    # ------------------------------------------------------------- routing
    def predicted_iterations(self, epsilon: float, contraction: np.ndarray) -> np.ndarray:
        """Estimated iterations to reach ``epsilon`` given per-s contractions."""
        contraction = np.minimum(np.asarray(contraction, dtype=float), 1.0 - 1e-15)
        with np.errstate(divide="ignore"):
            log_rho = np.log(contraction)
        return np.where(log_rho < 0.0, np.log(epsilon) / log_rho, np.inf)

    def route_direct(self, epsilon: float, contraction: np.ndarray) -> np.ndarray:
        """Boolean mask of s-points that should use the direct solver."""
        return self.predicted_iterations(epsilon, contraction) > self.predicted_iteration_limit

    # -------------------------------------------------------------- engines
    def resolve_engine(self, evaluator) -> str:
        """The evaluation engine a batched solve on this kernel will use.

        The one place ``"auto"`` is interpreted.  The choice depends on the
        kernel alone (its distribution count and fan-out), so it is made once
        and remembered on the evaluator.
        """
        if self.engine != "auto":
            return self.engine
        engine = getattr(evaluator, "_auto_engine", None)
        if engine is None:
            engine = "batch"
            if (
                evaluator.kernel.n_distributions <= FACTORED_MAX_DISTRIBUTIONS
                and evaluator.factored().density_ratio() >= FACTORED_DENSITY_RATIO
            ):
                engine = "factored"
            evaluator._auto_engine = engine
        return engine

    def _block_plan(self, evaluator, *, direct: bool = False) -> tuple[str, int]:
        """``(engine, s-points per block)`` — how a block loop starts.

        ``factored`` blocks hold ``O(block · (pairs + n))`` dense state and
        never touch per-edge data; every other block — ``batch`` and the
        explicit direct solve, labelled ``direct-lu``, whatever engine the
        kernel would iterate on — materialises ``O(block · nnz)`` complex
        data.  The direct solver's passage vectors add ``n`` per point.

        The ``64 · nnz`` bytes per point are what a batch block allocates per
        edge at its peak, plus headroom for its ``n``-vectors (``tracemalloc``
        on a fresh evaluator holds the whole block under the figure:
        ``tests/smp/test_block_pipeline.py``): 44-48 B, the ``U`` grid 16
        (alive for the block whether or not the LRU keeps it) + the
        iteration's ``M`` 16 + the block-diagonal structure 4 (int32; built
        once per kernel) + at most 8 while a block narrowed below half
        re-bases its ``M`` view (the per-point regime needs neither: it reads
        ``M`` where it lies, under one diagonal block's structure).  ``|U|``
        for the contraction, 8 B, and a transient's ``h*`` row sums, 16 B
        per *state*, are freed before ``M`` is written.  The other 16-20 B
        cover state, product and magnitude vectors, 40 B per state.
        """
        kernel = evaluator.kernel
        engine = "direct-lu" if direct else self.resolve_engine(evaluator)
        if engine == "factored":
            pairs = evaluator.factored().row_pair_count
            per_point = 16 * (3 * pairs + 3 * kernel.n_states)
        else:
            per_point = 64 * kernel.n_transitions + (48 * kernel.n_states if direct else 0)
        return engine, max(1, int(self.max_block_bytes // max(per_point, 1)))

    def block_points(self, evaluator) -> int:
        """s-points per block so the block working set fits the budget."""
        return self._block_plan(evaluator)[1]

    def dispatch_block_points(self, evaluator, n_points: int, workers: int) -> int:
        """s-points per *dispatched* block when farming a grid out to workers.

        The single code path for every parallel backend: the memory-budgeted
        :meth:`block_points` bound (a worker solves its block in one sweep),
        additionally capped so each worker sees several blocks — small grids
        still spread across the pool, and stragglers can be rebalanced.
        """
        workers = max(1, int(workers))
        spread_cap = max(1, -(-int(n_points) // (4 * workers)))
        return max(1, min(self.block_points(evaluator), spread_cap))


# ---------------------------------------------------------------------------
# Batched evaluation: scaffold -> block -> driver -> operator (module docstring).
# ---------------------------------------------------------------------------


class _BatchRowOperator:
    """The batch engine's stepper: ``v <- v @ M(s_t)`` on per-s-point CSR data.

    The operator runs ``points`` — rows of the block's ``U`` grid ``u_data``
    — in that order.  ``_state`` holds one ``n``-vector per point (the
    current term of the sum), ``_acc`` the sum accumulated from it, both
    indexed by run position along axis 0.  The form enters in two separate
    parts:

    * the *absorbing* states, whose rows of ``M`` are zeroed: the targets
      for a passage (``M = U'``), none for a transient (``M = U``).
      ``_data`` is ``M`` for the block's points, raveled: written here,
      once, and read where it lies;
    * the *accumulation* over ``targets``: ``v . e`` for a passage
      (``weights`` is None), ``v . w_t`` for a transient, whose
      ``weights[t]`` is ``w`` on the targets at the point of run position
      ``t``; the transient's sum also starts with its ``r = 0`` term
      ``alpha . w``.

    The kernel's data is read as ``csc_matrix((data, indices, indptr))``,
    the transpose of ``M``, so ``v @ M`` is scipy's CSC scatter and nothing
    is ever stored transposed.  States are numbered in exploration order, so
    the support of ``v`` after ``r`` steps is a prefix that grows from
    alpha's: the frontier ``_hi`` starts one past alpha's image, moves to
    ``reach[_hi]`` after every step, and a step multiplies the source rows
    below it only.  While the frontier is short of ``n``, or the live state
    (``width × n`` complex) exceeds :data:`BLOCKDIAG_MAX_BYTES`, each live
    point advances through one call of scipy's sparse kernel on its own data
    prefix (:meth:`_advance_points`).  Otherwise the whole block advances
    through one block-diagonal sparse product, amortising the per-call
    Python cost: a prefix view of ``_data`` under a prefix view of the
    kernel's :meth:`~repro.smp.kernel.UEvaluator.block_diag_structure`,
    whose first diagonal block is also the per-point calls' structure.
    """

    engine = "batch"

    def __init__(self, evaluator, absorbing, alpha, targets, weights, u_data, points):
        self.evaluator = evaluator
        self.n = evaluator.kernel.n_states
        self._u_data = u_data
        self._points = points
        self._alpha = alpha
        self._targets = targets
        self._weights = weights
        # M: the one gather of the block's U grid, absorbing states' rows zeroed
        data = u_data[points]
        data[:, evaluator.row_entries(np.flatnonzero(absorbing))] = 0.0
        self._data = data.reshape(-1)
        self._live = np.ones(points.size, dtype=bool)
        self._operator = self._diag = None
        #: point-rows advanced so far (what the block's ``product_rows`` sums)
        #: and the edge-point products they took
        self.product_rows = self.product_edges = 0
        self._bind(points.size)

    def _bind(self, width: int) -> None:
        """Point the product at the first ``width`` positions: views, no copy."""
        self.width = width
        n, nnz = self.n, self._u_data.shape[1]
        whole = width * n * 16 <= BLOCKDIAG_MAX_BYTES
        if self._diag is None or (whole and self._diag[1].size < width * nnz):
            self._diag = self.evaluator.block_diag_structure(width if whole else 1)
        indptr, indices = self._diag
        self._block0 = indptr[: n + 1], indices[:nnz]
        self._operator = None
        if whole:
            self._operator = sparse.csc_matrix(
                (self._data[: width * nnz], indices[: width * nnz], indptr[: width * n + 1]),
                shape=(width * n, width * n), copy=False,
            )
            # scipy re-bases a view smaller than half its base onto a copy:
            # narrowing from what it kept pays that once per halving.
            self._data, self._diag = self._operator.data, (indptr, self._operator.indices)

    def start(self) -> None:
        self._state = self.evaluator.alpha_vec_matrix_batch(
            self._alpha, self._u_data, self._points
        )
        self._hi = int(self.evaluator.reach[1 + np.flatnonzero(self._alpha)[-1]])
        self._acc = self._target_sums()
        if self._weights is not None:
            self._scale = np.maximum(np.abs(self._weights).max(axis=1), 1.0)
            self._acc += weighted_sums(self._alpha.real[self._targets], 0.0, self._weights)

    def step(self) -> None:
        if self._hi < self.n or self._operator is None:
            self._advance_points()
        else:
            self._state = (self._operator @ self._state.ravel()).reshape(
                self.width, self.n
            )
            self.product_rows += self.width
            self.product_edges += self.width * self._u_data.shape[1]
        self._acc = self._acc + self._target_sums()
        self._hi = int(self.evaluator.reach[self._hi])

    def _advance_points(self) -> None:
        """One kernel call per live point over the source rows below ``_hi``.

        Converged points are exactly zero, and so is every state entry at or
        past the frontier: the calls skip both, and each point's products and
        sums run in the order the full product would take them.
        """
        n, hi, nnz = self.n, self._hi, self._u_data.shape[1]
        indptr, indices = self._block0
        indptr = indptr[: hi + 1]
        stop = int(indptr[hi])
        data, state = self._data, self._state
        out = np.zeros(state.shape, dtype=complex)
        live = np.flatnonzero(self._live[: self.width]).tolist()
        for t in live:
            _sparsetools.csc_matvec(
                n, hi, indptr, indices, data[t * nnz : t * nnz + stop], state[t], out[t]
            )
        self._state = out
        self.product_rows += len(live)
        self.product_edges += len(live) * stop

    def _target_sums(self) -> np.ndarray:
        """``v . e`` (or ``v . w_t``) per point: each row of the gather reduced
        on its own, so a point's sum rounds the same whatever the width of
        the block."""
        picked = np.take(self._state, self._targets, axis=1)
        if self._weights is None:
            return np.add.reduce(picked, axis=1)
        return weighted_sums(picked.real, picked.imag, self._weights)

    def residual(self) -> np.ndarray:
        """``||v||_1`` per point rather than the added term of Eq. (11): the
        row sums of ``|M|`` never exceed one, so it is non-increasing and
        bounds *every* future term.  A structurally periodic model has
        exactly-zero terms at some transition counts (no path of that length
        reaches the target), which must not stop a sum whose later terms are
        still significant.  A transient's terms are ``v . w_t``, so its norm
        is scaled by ``max(1, max |w_t|)``: never a looser rule than the
        passage's, and a term bound where ``w`` is large.  (Scaling by
        ``max |w_t|`` alone, which is small far from ``s = 0``, stops those
        points with a relative error the Euler inversion multiplies by
        ``e^(A/2) / t``.)"""
        norm = np.abs(self._state).sum(axis=1)
        return norm if self._weights is None else norm * self._scale

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._acc[positions]

    def zero_points(self, positions: np.ndarray) -> None:
        self._state[positions] = 0.0
        self._live[positions] = False

    def narrow(self, width: int) -> None:
        if width < self.width:
            self._state = self._state[:width]
            self._acc = self._acc[:width]
            if self._weights is not None:
                self._weights, self._scale = self._weights[:width], self._scale[:width]
            self._bind(width)


def _drive(op, options: PassageTimeOptions, *, finalize_unconverged: bool = True):
    """Advance one block to convergence: any form, any engine.

    ``op`` is one of the two block operators (batch or factored).  The
    driver sees only their shared protocol — ``start()``, ``step()``
    (advance every position one transition and accumulate), ``residual()``
    (the per-point quantity the truncation rule tests), ``take(positions)``
    (accumulated sums) and ``zero_points`` / ``narrow``.

    Returns ``(order, results, iterations, deltas, converged)``:
    ``results[i]`` belongs to the operator's position ``order[i]``, the other
    three are indexed by position.  Converged points are snapshotted and
    their state zeroed (numerically inert thereafter), and the operator is
    narrowed to the prefix that still holds a live point — the block runs
    slowest point first, so that prefix is nearly the live set and the
    narrowing costs a view.  With ``finalize_unconverged=False`` points that
    hit the iteration cap are left out of ``order`` — for callers that will
    re-solve them directly anyway.
    """
    width = op.width
    iterations = np.full(width, options.max_iterations, dtype=np.int64)
    deltas = np.zeros(width)
    converged = np.zeros(width, dtype=bool)
    parked_pos: list[np.ndarray] = []
    parked: list[np.ndarray] = []

    op.start()
    below = np.zeros(width, dtype=np.int64)
    live = np.ones(width, dtype=bool)
    for iteration in range(1, options.max_iterations + 1):
        op.step()
        delta = op.residual()  # one per position the operator still holds
        below = np.where(delta < options.epsilon, below[: delta.size] + 1, 0)
        done_pos = np.flatnonzero(live[: delta.size] & (below >= options.consecutive))
        if done_pos.size:
            iterations[done_pos] = iteration
            deltas[done_pos] = delta[done_pos]
            converged[done_pos] = True
            parked_pos.append(done_pos)
            parked.append(op.take(done_pos))
            live[done_pos] = False
            if not live.any():
                break
            op.zero_points(done_pos)
            op.narrow(1 + int(np.flatnonzero(live)[-1]))
    live_pos = np.flatnonzero(live)
    if live_pos.size:
        deltas[live_pos] = delta[live_pos]
        if finalize_unconverged:
            parked_pos.append(live_pos)
            parked.append(op.take(live_pos))
    if not parked:
        return live_pos[:0], None, iterations, deltas, converged
    return np.concatenate(parked_pos), np.concatenate(parked), iterations, deltas, converged


@dataclass(frozen=True)
class _Form:
    """What a block solve sums: one row iteration from ``alpha``, two ways.

    A passage (Eq. 10) makes the target states ``mask`` absorbing and
    accumulates ``v . e``; a transient (``transient=True``; see
    :mod:`repro.smp.transient`) absorbs nothing and accumulates ``v . w(s)``
    with ``w = (1 - h*(s)) / s`` on the targets.  Either way the answer is
    one complex per s-point, and this is all the block solve knows about
    the difference.
    """

    alpha: np.ndarray
    mask: np.ndarray
    transient: bool = False

    @property
    def targets(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def absorbing(self) -> np.ndarray:
        """The states whose rows the iteration zeroes: the targets, or none."""
        return np.zeros_like(self.mask) if self.transient else self.mask

    def weights(self, evaluator, engine, s_block, u_data) -> np.ndarray | None:
        """``w`` on the targets at every point of the block (None for a passage).

        ``h*`` is read off what the block already holds — the row sums of its
        ``U`` grid, or the factored engine's distribution table — so no
        transform is evaluated twice.
        """
        if not self.transient:
            return None
        if engine == "factored":
            h = evaluator.factored().sojourn_lst_batch(s_block)
        else:
            h = np.add.reduceat(u_data, evaluator.csr.indptr[:-1], axis=1)
        return (1.0 - h[:, self.targets]) / s_block[:, None]

    def direct(self, evaluator, s_values, u_data) -> np.ndarray:
        """The values of points the sparse LU solves, one factorisation each.

        A passage reduces the LU's passage vectors ``vectors @ alpha`` over
        alpha's support, each row on its own — BLAS picks its kernel by the
        row count, and a point's value must not depend on how many points
        share its block.
        """
        if self.transient:
            return transient_transform_direct_batch(
                evaluator, self.alpha, self.targets, s_values, u_data=u_data
            )
        vectors = passage_transform_direct_batch(
            evaluator, self.targets, s_values, u_data=u_data
        )
        support = np.flatnonzero(self.alpha)
        return np.add.reduce(np.take(vectors, support, axis=1) * self.alpha[support], axis=1)

    def operator(self, evaluator, engine, s_iter, u_data, points, weights):
        """The stepper of the block's iterative points, in their run order:
        ``s_iter`` their s-values, ``points`` their rows of the block's U grid
        ``u_data`` (the batch engine reads the grid, the factored one ``s``),
        ``weights`` their rows of :meth:`weights`."""
        if engine == "factored":
            return FactoredRowOperator(
                evaluator.factored(), s_iter, self.absorbing, self.alpha, self.targets, weights
            )
        return _BatchRowOperator(
            evaluator, self.absorbing, self.alpha, self.targets, weights, u_data, points
        )


def _rows(grid: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Rows ``indices`` (ascending) of ``grid``: a view when they are one run."""
    lo, hi = int(indices[0]), int(indices[-1]) + 1
    return grid[lo:hi] if hi - lo == indices.size else grid[indices]


def _solve_block(evaluator, engine, form, s_block, options, policy):
    """One memory-bounded s-block: route, solve directly, drive, fall back.

    ``engine`` is the iterative engine of the block or ``"direct-lu"``, the
    explicit direct solve — the same routing with every point routed, which
    therefore never computes a contraction or the iteration's data.  Returns
    the values, one diagnostics per point and the iterative product's work:
    ``(point-rows advanced, edge-point products taken)``.
    """
    n_s = s_block.size
    n = evaluator.kernel.n_states
    result = np.empty(n_s, dtype=complex)
    diags: list[ConvergenceDiagnostics | None] = [None] * n_s
    may_route = n <= DIRECT_MAX_STATES

    u_data = None
    if engine != "factored":
        with _obs_trace.span("lst-fill", points=n_s):
            u_data = evaluator.u_data_batch(s_block)
    with _obs_trace.span("route", points=n_s):
        if engine == "direct-lu":
            direct_mask = np.ones(n_s, dtype=bool)
        else:
            absorbing = form.absorbing
            if engine == "factored":
                contraction = evaluator.factored().contraction(s_block, absorbing)
            else:
                # The row sums of |M| are those of |U| with the absorbing
                # rows' sums zeroed: routing reads the U grid, M is not built yet.
                contraction = np.where(absorbing, 0.0, evaluator.row_abs_sums(u_data)).max(axis=1)
            if may_route:
                direct_mask = policy.route_direct(options.epsilon, contraction)
            else:
                direct_mask = np.zeros(n_s, dtype=bool)
        direct_idx = np.flatnonzero(direct_mask)
        iter_idx = np.flatnonzero(~direct_mask)
        if iter_idx.size:
            # Slowest first: points then converge from the back of the block
            # and the driver narrows the product by view.
            iter_idx = iter_idx[np.argsort(-contraction[iter_idx], kind="stable")]

    def solve_direct(indices, solver_label, iterations, matvecs):
        u_rows = _rows(u_data, indices) if u_data is not None else None
        result[indices] = form.direct(evaluator, s_block[indices], u_rows)
        for idx in indices:
            diags[idx] = ConvergenceDiagnostics(
                iterations=iterations,
                converged=True,
                final_delta=0.0,
                matvec_count=matvecs,
                solver=solver_label,
                direct_solves=1,
                engine=engine,
            )

    if direct_idx.size:
        solve_direct(direct_idx, "direct", 0, 0)

    work = (0, 0)
    if iter_idx.size:
        # When the policy would re-solve cap-hitting points directly, their
        # finished result is wasted work — tell the driver to skip it.
        will_fallback = policy.fallback_to_direct and may_route
        with _obs_trace.span("drive", points=int(iter_idx.size)) as drive:
            weights = form.weights(evaluator, engine, s_block, u_data)
            op = form.operator(
                evaluator, engine, s_block[iter_idx], u_data, iter_idx,
                None if weights is None else weights[iter_idx],
            )
            order, results, iterations, deltas, conv = _drive(
                op, options, finalize_unconverged=not will_fallback
            )
            work = (op.product_rows, op.product_edges)
            drive.set(product_edges=op.product_edges)
        if order.size:
            result[iter_idx[order]] = results
        retried = ~conv if will_fallback else np.zeros(iter_idx.size, dtype=bool)
        for pos in np.flatnonzero(~retried):
            diags[iter_idx[pos]] = ConvergenceDiagnostics(
                iterations=int(iterations[pos]),
                converged=bool(conv[pos]),
                final_delta=float(deltas[pos]),
                matvec_count=int(iterations[pos]) + 1,
                engine=engine,
            )
        if retried.any():
            solve_direct(
                np.sort(iter_idx[retried]), "direct-fallback",
                options.max_iterations, options.max_iterations + 1,
            )
    return result, diags, work


def _note_block(report, *, points, seconds, diags, engine, work) -> None:
    product_rows, product_edges = (int(count) for count in work)
    iterations = int(sum(d.iterations for d in diags))
    direct_solves = int(sum(d.direct_solves for d in diags))
    # Points returned truncated (no convergence, no direct fallback —
    # e.g. kernels above DIRECT_MAX_STATES): downstream stats must be
    # able to see that the values are approximations.
    unconverged = int(sum(not d.converged for d in diags))
    _obs_metrics.note_solve_block(
        points=int(points),
        seconds=seconds,
        iterations=iterations,
        product_rows=product_rows,
        product_edges=product_edges,
        direct_solves=direct_solves,
        unconverged=unconverged,
        iteration_counts=[int(d.iterations) for d in diags],
        engine=engine,
    )
    if report is None:
        return
    report["blocks"].append(
        {
            "points": int(points),
            "seconds": round(seconds, 6),
            "iterations": iterations,
            "product_rows": product_rows,
            "direct_solves": direct_solves,
            "unconverged": unconverged,
        }
    )


def _block_loop(
    evaluator, policy, s_values, out, solve, report, *, direct: bool = False
) -> list[ConvergenceDiagnostics]:
    """The one block loop every batched solve runs through.

    Resolves the engine and the block size, then per block opens one
    ``s-block-solve`` span, times ``solve(engine, s_block) -> (values,
    diagnostics, work)`` once — ``work`` is ``(point-rows, edge-point
    products)`` the iterative product advanced — stores the values into ``out`` and
    notes the block once (metrics and ``report``) — so an s-block is traced,
    timed and counted exactly once whatever the measure computed inside it.
    """
    engine, block = policy._block_plan(evaluator, direct=direct)
    if report is not None:
        report["engine"] = engine
        report.setdefault("blocks", [])
    diags: list[ConvergenceDiagnostics] = []
    for lo in range(0, s_values.size, block):
        s_block = s_values[lo:lo + block]
        started = time.perf_counter()
        with _obs_trace.span("s-block-solve", points=s_block.size, engine=engine):
            out[lo:lo + block], block_diags, work = solve(engine, s_block)
        seconds = time.perf_counter() - started
        diags.extend(block_diags)
        _note_block(
            report, points=s_block.size, seconds=seconds, diags=block_diags,
            engine=engine, work=work,
        )
    return diags


def passage_transform_batch(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s_values,
    options: PassageTimeOptions | None = None,
    *,
    solver: str = "iterative",
    policy: SPointPolicy | None = None,
    report: dict | None = None,
) -> tuple[np.ndarray, list[ConvergenceDiagnostics]]:
    """Evaluate ``L_{i->j}(s)`` at every point of an s-grid in one sweep.

    Semantically equivalent to the one-point oracle of ``tests/reference``
    per point (same truncation rule, so iteratively-solved points match it
    up to float associativity), but the whole grid shares each
    transform evaluation of the underlying distributions and each iteration's
    sparse products, processed in memory-bounded blocks.  Points that the
    :class:`SPointPolicy` predicts to need too many iterations — the
    small-``|s|`` rare-event regime — are solved with the sparse-LU direct
    method instead and come back exact; ``solver="direct"`` solves every
    point that way (engine label ``direct-lu``).

    ``kernel_or_evaluator`` is the SMP kernel or a prepared
    :class:`~repro.smp.kernel.UEvaluator` (share one across calls on the same
    kernel), ``alpha`` the source weighting vector of Eq. (5), which must sum
    to one, ``targets`` the target state indices (the set ``j`` of the paper)
    and ``s_values`` complex transform arguments with ``Re(s) >= 0``.

    Returns the values as an ``(n_s,)`` array plus one
    :class:`ConvergenceDiagnostics` per s-point (in input order).  When a
    ``report`` dict is supplied it is filled with the engine used and
    per-block solve timings.
    """
    evaluator = as_evaluator(kernel_or_evaluator)
    n = evaluator.kernel.n_states
    form = _Form(check_alpha(alpha, n), target_mask(n, targets))
    return _form_batch(evaluator, form, s_values, options, solver, policy, report)


def _form_batch(evaluator, form, s_values, options, solver, policy, report):
    """A passage or a transient (``form``) over a whole s-grid."""
    if solver not in ("iterative", "direct"):
        raise ValueError("solver must be 'iterative' or 'direct'")
    options = options or PassageTimeOptions()
    policy = policy or SPointPolicy()
    s_values = np.asarray(s_values, dtype=complex).ravel()
    out = np.empty(s_values.size, dtype=complex)
    diags = _block_loop(
        evaluator, policy, s_values, out,
        lambda engine, s_block: _solve_block(evaluator, engine, form, s_block, options, policy),
        report, direct=solver == "direct",
    )
    return out, diags
