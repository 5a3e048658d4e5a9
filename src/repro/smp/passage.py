"""The iterative passage-time algorithm of Section 3 of the paper.

For a fixed transform argument ``s`` the first-passage-time transform from a
weighted set of source states into a target set ``j`` is the limit of the
r-transition quantities

    L^(r)(s) = (alpha U + alpha U U' + ... + alpha U U'^(r-1)) e        (Eq. 10)

where ``U`` has entries ``r*_pq(s)``, ``U'`` equals ``U`` with the target
states made absorbing and ``e`` indicates the target states.  The sum is
evaluated with sparse vector–matrix products, ``v_r = v_(r-1) U'``, and
truncated once ``||v_r||_1`` has been below a tolerance for a few
consecutive steps (:class:`PassageTimeOptions`) — ``O(N^2 r)`` work in the
worst case versus the ``O(N^3)`` of a direct solve.  For ``Re s >= 0`` that
norm never increases, and it bounds ``|L(s) - L^(r)(s)|``: what the sum has
not yet added is ``v_r`` times each state's own passage transform, of
modulus at most one.

The computation has one shape, over a whole s-grid (a single s-point is a
grid of one — there is no scalar implementation): a row vector ``v``
advanced by ``v <- v @ M(s)`` from alpha, accumulating one complex per
s-point.  :func:`passage_transform_batch` sums Eq. (10) with ``M = U'`` and
the target indicator ``e``; :func:`repro.smp.transient.transient_transform_batch`
sums the transient's Markov-renewal series with ``M = U`` and the weight
``w(s) = (1 - h*(s)) / s`` on the targets in place of ``e``.

On the batch engine a passage does not run that sum over the whole chain.
With the target columns dropped, ``U'`` is block upper triangular in the
topological order of its strong components
(:class:`~repro.smp.linear.StrongComponents`, the analysis the direct
solve's ordering reads too), so the passage *walks* them (:class:`_Walk`):
the targets leave the walk, each component is summed once, from its inflow,
by its own series, and its sum is pushed once into the later components and
the targets.  The global sum keeps multiplying every reached row until the
last of the mass has crossed the component graph; the walk multiplies each
component's block only while its own series runs — 7.2M instead of 29.2M
edge visits on the benchmark's 99 points of system 0.

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
* **block** (:func:`_solve_block`) — evaluates the block's transform
  table once, the only per-point data it holds, and computes the per-point
  contraction and the routing mask from it.  The routed points hand their
  rows of it to the sparse-LU solver, which writes each point's entries of
  ``I - U K`` from its row; the iterative points, slowest first, hand theirs
  to a stepper that fills what it reads — the walk's windows for a
  batch-engine passage, the transient stepper's ``U`` data.  It drives the
  iterative points and re-solves cap-hitting ones directly, from their
  rows too, knowing passage from transient only through a small
  :class:`_Form`.
* **driver** (:func:`_drive`) — the active-set iteration: one truncation
  rule, converged points snapshotted and zeroed, the operator narrowed to
  the prefix that still holds a live point.  The block orders its points
  slowest first (largest contraction), so points converge from the back, the
  prefix is nearly the live set and narrowing is a view: no data moves,
  nothing is rebuilt.  It never asks which form or engine it runs — the
  walk runs it once per window, on a window's operator.
* **operator** — what applies ``M(s)`` to every live point per iteration
  and accumulates the form's sum:
  ``batch`` for a transient (per-s-point complex CSR data, the stepper's
  own, written once in run order: one block-diagonal sparse product for the
  whole block — views of that data under the kernel's one block-diagonal
  structure — or
  one per live point on its own data, each a direct call of scipy's C
  kernel, while the frontier is short of ``n`` or once the block's state
  exceeds :data:`BLOCKDIAG_MAX_BYTES`), a walk window for a batch-engine
  passage (:class:`_WindowOperator`: the window's ``(width, |B|)`` state, one
  block-diagonal product over copies of its diagonal block), or
  ``factored`` for either form (the batch operator with another start
  vector and product: the distribution-factored pair expansion over the
  structures of :mod:`repro.smp.factored`, whose per-iteration sparse work
  is independent of the number of points in flight).  The batch and window
  operators keep two complex state buffers and step from one into the
  other; the factored one's product returns a fresh state.
  The frontier — a transient's only; a passage walks components instead —
  is structural: states are numbered in exploration order, so the support
  of ``v`` grows as a prefix from alpha's, and a step multiplies only the
  source rows of that prefix (:attr:`UEvaluator.reach
  <repro.smp.kernel.UEvaluator.reach>`) — same values, byte for byte.  The
  walk leaves the frontier, the kernel's block-diagonal structure and the
  certified ``dzasum`` residual to the transient (and the residual to the
  factored engine): a window is the support of its state, brings its own
  copies of its block, and takes the exact norm.

Every engine therefore runs the *same* truncation rule — one driver, and
one ``take`` / ``zero_points`` / ``narrow`` every operator inherits; a
passage agrees with the one-point-at-a-time oracle of ``tests/reference`` to
within the two sums' ``final_delta`` (each bounds its own error), a
transient with the oracle's target-by-target assembly of Eq. (7) to the
truncation tolerance (the two truncate different sums).  The
:class:`SPointPolicy` picks the engine (once per kernel), routes hard (small
``|s|``) points to the sparse-LU direct solve and bounds block sizes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import _sparsetools

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

from .kernel import as_evaluator, check_alpha, entry_values, target_mask, weighted_sums

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
        Truncation threshold on ``||v_r||_1``, the 1-norm of the row vector
        the sum has reached after ``r`` transitions — scaled by
        ``max(1, max |w|)`` for a transient, whose terms carry the weights
        ``w``.  For ``Re s >= 0`` the norm is non-increasing, and for a
        passage it bounds ``|L(s) - L^(r)(s)|``, the error of stopping at
        ``r``; it is reported as ``final_delta``.  A batch-engine passage
        walks its strong components and gives each window it enters
        ``epsilon / windows``; its ``final_delta`` is the windows' norms
        summed, still a bound of the error and below ``epsilon``.
    max_iterations:
        Hard cap on the number of transitions ``r`` (per window of a walk);
        exceeding it marks the result as unconverged rather than raising, so
        long-running sweeps can report partial diagnostics.
    consecutive:
        A point stops after this many consecutive steps with the (scaled)
        ``||v_r||_1`` below ``epsilon``.
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
#: ``dzasum`` sums ``|Re| + |Im|``, at most ``sqrt(2) |z|`` per entry, so this
#: factor times it bounds ``||v||_1`` from below: just under ``1 / sqrt(2)``,
#: the gap (1e-5 relative) absorbing the rounding of both sums.
ASUM_L1_FLOOR = 0.7071


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

        Beyond its ``(n_s, n_dists)`` transform table a block holds what its
        stepper fills: ``factored`` blocks ``O(block · (pairs + n))`` dense
        arrays and no per-edge data, ``batch`` blocks ``O(block · nnz)``
        complex data, the walk's windows or the transient stepper's.

        A batch block's peak per point, on ``tracemalloc`` with a fresh
        evaluator (``tests/smp/test_block_pipeline.py`` holds the whole block
        under the figure), is 20 B per edge: the transient stepper's data,
        16, and the block-diagonal structure, 4 (int32; built once per
        kernel).  Per state, the block holds two state buffers, 32 B (the
        step scatters from one into the other), and the structure's
        ``indptr``, 4: 36 B.  Nothing else is per state for long: a
        transient's ``h*``, 16 B, is gone before the buffers exist, and an
        exact ``||v||_1`` is taken one row at a time.  Measured, 37.6-41.9 B
        per state; the rest is under 4 KB per point (row views, sums), which
        weighs most on small kernels.  48 are budgeted.  A passage's walk
        holds the same per edge — its windows' data, 16, and their diagonal
        copies, 4, over the entries of rows outside the targets — and per
        state the ``(width, n)`` inflow, 16, the copies' two ``indptr``, 8,
        and three buffers of its largest window, 48 per state of that window
        (7 % of system 0's chain).

        A routed point holds its passage vector, 16 B per state, and the LU
        works one point at a time: under 64 B per edge on ``tracemalloc``
        (system 0; SuperLU's factors live outside it).  The explicit direct
        solve (``direct-lu``, every point routed) is sized as a batch block,
        whose 20 B per edge and point cover one LU from four points on.

        A factored block's working set per point is the pairs' transforms
        and the scaled pairs, 16 B per pair each, and the state, its
        transpose and the product, 16 B per state each.  A step frees the
        scaled pairs before it transposes the product back, so the five are
        never live together: on ``tracemalloc`` (the same test module) the
        block peaks at ``16 · (2 pairs + 2 n)`` and under 1 KB more per
        point.  ``16 · (2 pairs + 3 n)`` is budgeted, which also covers the
        step's last moment — the pairs' transforms, the state, the product
        and its transpose — when pairs are fewer than states.
        """
        kernel = evaluator.kernel
        engine = "direct-lu" if direct else self.resolve_engine(evaluator)
        if engine == "factored":
            pairs = evaluator.factored().row_pair_count
            per_point = 16 * (2 * pairs + 3 * kernel.n_states)
        else:
            per_point = 20 * kernel.n_transitions + 48 * kernel.n_states
        return engine, max(1, int(self.max_block_bytes // max(per_point, 1)))

    def block_points(self, evaluator) -> int:
        """s-points per block so the block working set fits the budget."""
        return self._block_plan(evaluator)[1]

    def dispatch_block_points(self, evaluator, n_points: int, workers: int) -> int:
        """s-points per *dispatched* block when farming a grid out to workers.

        The single code path for every parallel backend: one block per
        worker, ``ceil(n_points / workers)``, unless the memory-budgeted
        :meth:`block_points` bound (a worker solves its block in one sweep)
        is smaller.  :meth:`SBlockQueue.from_points
        <repro.distributed.queue.SBlockQueue.from_points>` deals the grid's
        points round-robin into the blocks, so each worker gets an even
        share of every t's slow and fast points and one hand-off per call.
        The price: a job's progress and cancellation advance one
        worker-sized block at a time, and on a large grid a block grows to
        the ``max_block_bytes`` plan.
        """
        workers = max(1, int(workers))
        per_worker = max(1, -(-int(n_points) // workers))
        return min(self.block_points(evaluator), per_worker)


# ---------------------------------------------------------------------------
# Batched evaluation: scaffold -> block -> driver -> operator (module docstring).
# ---------------------------------------------------------------------------


class _BatchRowOperator:
    """The batch engine's transient stepper: ``v <- v @ U(s_t)`` on
    per-s-point CSR data (a batch-engine passage walks, :class:`_Walk`).

    ``table`` holds the iterative points' rows of the block's transform
    table, in run order, and the stepper fills its own ``(width, nnz)`` data
    from them, once (:meth:`UEvaluator.fill_u_data
    <repro.smp.kernel.UEvaluator.fill_u_data>`), as the walk fills its
    windows; :meth:`start` takes ``alpha U`` per point off ``table`` too.
    ``_state`` holds one ``n``-vector per point (the current term of the
    sum), ``_acc`` the sum accumulated from it, both indexed by run position
    along axis 0.  The form enters as the *accumulation* over ``targets``:
    ``v . w_t``, whose ``weights[t]`` is ``w`` on the targets at the point of
    run position ``t`` (:meth:`_Form.weights`, read off the data), after the
    ``r = 0`` term ``alpha . w`` (the factored subclass also sums a passage's
    ``v . e``, ``weights`` None).

    The kernel's data is read as CSC — the transpose of ``M`` — so ``v @ M``
    is scipy's CSC scatter (``_sparsetools.csc_matvec``, called directly on
    prefix views: no scipy matrix is built) and nothing is ever stored
    transposed.  States are numbered in exploration order, so the support of
    ``v`` after ``r`` steps is a prefix that grows from alpha's: the frontier
    ``_hi`` starts one past alpha's image, moves to ``reach[_hi]`` after
    every step, and a step multiplies the source rows below it only.  While
    the frontier is short of ``n``, or the live state (``width × n``
    complex) exceeds :data:`BLOCKDIAG_MAX_BYTES`, each live point advances
    through one kernel call on its own data prefix (:meth:`_advance_points`).
    Otherwise the whole block advances through one block-diagonal product,
    amortising the per-call Python cost: the data's prefix under a prefix of
    the kernel's :meth:`~repro.smp.kernel.UEvaluator.block_diag_structure`,
    whose first diagonal block is also the per-point calls' structure.

    A step allocates nothing of size ``n``: the state lives in one of two
    ``(width, n)`` buffers and the product scatters into the other, whose
    stale contents — the state of two steps ago, supported below the old
    frontier — are cleared over the new frontier's prefix only.  So the
    frontier never moves back, though ``reach[hi]`` can fall below ``hi``
    on a reducible kernel numbered against its paths.  The
    per-point calls read full-length row views of the data and of both
    buffers, built once; scipy's kernel reads nothing past ``indptr[hi]``.
    """

    engine = "batch"

    def __init__(self, evaluator, form, table, s_values):
        self.evaluator = evaluator
        self.n = evaluator.kernel.n_states
        #: the stepper's own ``U`` data, ``(width, nnz)``, filled once
        self._u = evaluator.fill_u_data(table)
        self._nnz = self._u.shape[1]
        self._data = self._u.reshape(-1)  # a view: the data is C-contiguous
        self._table = table
        self._alpha = form.alpha
        self._targets = form.targets
        self._weights = form.weights(evaluator, s_values, table, self._u)
        self._live = np.ones(table.shape[0], dtype=bool)
        self._diag = None
        #: point-rows advanced so far (what the block's ``product_rows`` sums),
        #: the edge-point products they took and the rows whose ``||v||_1``
        #: :meth:`residual` computed exactly
        self.product_rows = self.product_edges = self.exact_rows = 0
        self.width = table.shape[0]
        self._one_product()

    def _one_product(self) -> bool:
        """Whether the live points advance through one block-diagonal
        product (their state is at most :data:`BLOCKDIAG_MAX_BYTES`), with
        ``_diag`` holding the structure it reads — or, when not, the one a
        point advanced on its own reads, its first diagonal block."""
        whole = self.width * self.n * 16 <= BLOCKDIAG_MAX_BYTES
        if self._diag is None or (whole and self._diag[1].size < self.width * self._nnz):
            self._diag = self.evaluator.block_diag_structure(self.width if whole else 1)
        return whole

    def start(self) -> None:
        state = self.evaluator.alpha_vec_matrix_batch(self._alpha, self._table)
        self._hi = int(self.evaluator.reach[1 + np.flatnonzero(self._alpha)[-1]])
        self._buffers = (state, np.zeros_like(state))
        self._rows = tuple(list(buffer) for buffer in self._buffers)
        self._u_rows = list(self._u)
        self._begin(state)

    def _begin(self, state: np.ndarray) -> None:
        """Take ``alpha U`` per point as the state and open the sums from it."""
        self._state = state
        self._acc = self._target_sums()
        if self._weights is not None:
            self._scale = np.maximum(np.abs(self._weights).max(axis=1), 1.0)
            self._acc += weighted_sums(self._alpha.real[self._targets], 0.0, self._weights)

    def step(self) -> None:
        width, reach = self.width, max(int(self.evaluator.reach[self._hi]), self._hi)
        self._buffers = self._buffers[::-1]
        self._rows = self._rows[::-1]
        out = self._buffers[0][:width]
        out[:, :reach] = 0.0
        if self._hi < self.n or not self._one_product():
            self._advance_points()
        else:
            rows, edges = width * self.n, width * self._nnz
            indptr, indices = self._diag
            _sparsetools.csc_matvec(
                rows, rows, indptr, indices, self._data, self._state.ravel(), out.ravel()
            )
            self.product_rows += width
            self.product_edges += edges
        self._state = out
        self._acc = self._acc + self._target_sums()
        self._hi = reach

    def _advance_points(self) -> None:
        """One kernel call per live point over the source rows below ``_hi``,
        into the freshly cleared buffer ``_rows[0]``.

        Converged points are exactly zero, and so is every state entry at or
        past the frontier: the calls skip both, and each point's products and
        sums run in the order the full product would take them.
        """
        n, hi = self.n, self._hi
        indptr, indices = self._diag
        stop = int(indptr[hi])
        m_rows, v_rows, out_rows = self._u_rows, self._rows[1], self._rows[0]
        live = np.flatnonzero(self._live[: self.width]).tolist()
        for t in live:
            _sparsetools.csc_matvec(n, hi, indptr, indices, m_rows[t], v_rows[t], out_rows[t])
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

    def residual(self, epsilon: float) -> np.ndarray:
        """``||v||_1`` per point wherever it is below ``epsilon``, and a lower
        bound of it that is not below ``epsilon`` elsewhere.

        The norm rather than the added term of Eq. (11): the row sums of
        ``|M|`` never exceed one, so it is non-increasing and bounds *every*
        future term.  A structurally periodic model has exactly-zero terms at
        some transition counts (no path of that length reaches the target),
        which must not stop a sum whose later terms are still significant.
        A transient's terms are ``v . w_t``, so its norm is scaled by
        ``max(1, max |w_t|)``: never a looser rule than the passage's, and a
        term bound where ``w`` is large.  (Scaling by ``max |w_t|`` alone,
        which is small far from ``s = 0``, stops those points with a
        relative error the Euler inversion multiplies by ``e^(A/2) / t``.)

        Each live row is first bounded by BLAS ``dzasum`` over the frontier
        prefix (every entry past it is zero) times :data:`ASUM_L1_FLOOR`; only
        rows whose bound falls below ``epsilon`` get the exact norm, each row
        reduced on its own, so the bits and every comparison with
        ``epsilon`` are those of the full-width norm.  Converged rows are
        zero and report 0."""
        from scipy.linalg.blas import dzasum

        hi, state = self._hi, self._state
        live = np.flatnonzero(self._live[: self.width])
        norm = np.zeros(self.width)
        norm[live] = [dzasum(state[t], hi) for t in live.tolist()]
        norm *= ASUM_L1_FLOOR
        if self._weights is not None:
            norm *= self._scale
        exact = live[norm[live] < epsilon]
        if exact.size:
            self.exact_rows += exact.size
            exact_norm = np.array([np.abs(state[t]).sum() for t in exact.tolist()])
            norm[exact] = exact_norm if self._weights is None else exact_norm * self._scale[exact]
        return norm

    def take(self, positions: np.ndarray) -> np.ndarray:
        return self._acc[positions]

    def zero_points(self, positions: np.ndarray) -> None:
        self._state[positions] = 0.0
        self._live[positions] = False

    def narrow(self, width: int) -> None:
        """Keep the first ``width`` positions: views, no copy."""
        if width < self.width:
            self.width = width
            self._state = self._state[:width]
            self._acc = self._acc[:width]
            if self._weights is not None:
                self._weights, self._scale = self._weights[:width], self._scale[:width]


class _FactoredRowOperator(_BatchRowOperator):
    """The factored engine's stepper: the batch operator with another product.

    The state, the sums, the residual, the zeroing and the narrowing are the
    batch operator's own, so the two engines run one truncation test.  Only
    the start vector and the product differ: ``table`` holds the live points'
    rows of the block's transform table, ``(width, n_dists)``, and no
    per-edge data is filled.  A step is the pair expansion of
    :mod:`repro.smp.factored` — transpose the state to ``(n, width)``,
    gather it at the pair sources, scale by the pairs' transforms and apply
    the real pair-expansion matrix to the result, viewed as ``2 · width``
    real columns, in one call of scipy's ``csr_matvecs``.
    """

    engine = "factored"

    def __init__(self, evaluator, form, table, s_values):
        self.evaluator = evaluator
        self.n = evaluator.kernel.n_states
        self._alpha = form.alpha
        self._targets = form.targets
        self._weights = form.weights(evaluator, s_values, table, None)
        self._lst = table
        self.width = table.shape[0]
        self._live = np.ones(self.width, dtype=bool)
        self._hi = self.n  # the pair expansion writes every state
        structure = evaluator.factored().row_structure(form.absorbing)
        self._pair_src, self._matrix = structure.pair_src, structure.matrix
        #: ``(pairs, width)``: the transform each pair's entries carry, per point
        self._pair_lst = np.take(table.T, structure.pair_dist, axis=0)
        self.product_rows = self.product_edges = self.exact_rows = 0

    def start(self) -> None:
        self._begin(_dist_sum(self._lst, self.evaluator.factored().alpha_dist_matrix(self._alpha)))

    def step(self) -> None:
        n, width, matrix = self.n, self.width, self._matrix
        scaled = np.take(np.ascontiguousarray(self._state.T), self._pair_src, axis=0)
        scaled *= self._pair_lst[:, :width]
        out = np.zeros((n, width), dtype=complex)
        _sparsetools.csr_matvecs(
            n, scaled.shape[0], 2 * width, matrix.indptr, matrix.indices, matrix.data,
            scaled.view(float).ravel(), out.view(float).ravel(),
        )
        del scaled  # the block's memory plan holds the pairs or the new state, not both
        self._state = np.ascontiguousarray(out.T)
        self.product_rows += width
        self.product_edges += width * matrix.nnz
        self._acc = self._acc + self._target_sums()


def _dist_sum(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``table @ rows`` summed over the distributions one at a time, in their
    order: a BLAS product blocks by the number of points, and a point's value
    must not depend on how many points share its block."""
    total = table[:, 0, None] * rows[0]
    for d in range(1, rows.shape[0]):
        total += table[:, d, None] * rows[d]
    return total


def _drive(op, options: PassageTimeOptions, *, finalize_unconverged: bool = True):
    """Advance one block to convergence: any form, any engine.

    ``op`` is one of the two block operators (batch or factored).  The
    driver sees only their shared protocol — ``start()``, ``step()``
    (advance every position one transition and accumulate),
    ``residual(epsilon)`` (the per-point quantity the truncation rule tests:
    exact wherever it is below ``epsilon``, a lower bound not below it
    elsewhere, so the stop decisions are the exact norm's; at the cap it is
    asked once more with ``epsilon = inf`` for the live points'
    ``final_delta``), ``take(positions)`` (accumulated sums) and
    ``zero_points`` / ``narrow``.

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
        # one per position the operator still holds: exact below epsilon
        delta = op.residual(options.epsilon)
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
        deltas[live_pos] = op.residual(np.inf)[live_pos]
        if finalize_unconverged:
            parked_pos.append(live_pos)
            parked.append(op.take(live_pos))
    if not parked:
        return live_pos[:0], None, iterations, deltas, converged
    return np.concatenate(parked_pos), np.concatenate(parked), iterations, deltas, converged


class _WindowOperator(_BatchRowOperator):
    """One window of the passage walk: ``x_B = sum_r b_B (U_BB)^r`` for
    every point of the block, driven by :func:`_drive`.

    The state is ``(width, |B|)``, started from the window's inflow ``b_B``,
    and steps by one call of scipy's CSC scatter over ``width`` diagonal
    copies of the window's inner structure, reading the window's inner data
    where the block filled it; the sum ``x_B`` accumulates in place from
    ``b_B`` on, so it stays whole when the driver narrows.  The residual is
    the exact ``||v||_1`` of every live row — on a window's narrow state one
    vectorised pass costs less than the batch operator's certified bound, a
    BLAS call per row — and it bounds what stopping leaves out:
    ``|U'(s)| <= P'`` and every later operator is non-expansive in l1, so
    the window's part of ``|L - L_r|`` is at most its last state's norm.
    Zeroing, narrowing and the sums taken are the batch operator's.
    """

    def __init__(self, walk, k: int, buffers):
        lo, hi = walk.components.window(k)
        self.window = k
        self.width = walk.width
        self.n = hi - lo
        self._inflow = walk.inflow[:, lo:hi]
        self._data = walk.inner[k]
        self._copies = walk.copies[k][:2]
        self._edges = walk.inner[k].size // max(self.width, 1)
        self._flat = buffers[:2]
        #: ``x_B``, whole-width whatever the driver narrows
        self.x = buffers[2][: self.width * self.n].reshape(self.width, self.n)
        self._weights = None
        self._live = np.ones(self.width, dtype=bool)
        self.product_rows = self.product_edges = self.exact_rows = 0

    def start(self) -> None:
        state = self._flat[0][: self.width * self.n].reshape(self.width, self.n)
        state[...] = self._inflow
        self.x[...] = state
        self._state, self._acc = state, self.x

    def step(self) -> None:
        width, size = self.width, self.width * self.n
        self._flat = self._flat[::-1]
        out = self._flat[0][:size]
        out[:] = 0.0
        indptr, indices = self._copies
        _sparsetools.csc_matvec(
            size, size, indptr[: size + 1], indices, self._data, self._state.ravel(), out
        )
        self._state = out.reshape(width, self.n)
        self._acc += self._state
        self.product_rows += width
        self.product_edges += width * self._edges

    def residual(self, epsilon: float) -> np.ndarray:
        self.exact_rows += int(self._live[: self.width].sum())
        return np.abs(self._state).sum(axis=1)


class _Walk:
    """The batch engine's passage: its strong components, one at a time.

    With the target columns dropped, ``U'`` is block upper triangular in the
    rank order of :class:`~repro.smp.linear.StrongComponents`, and the
    targets leave the walk: ``v (I - U') = alpha U`` is solved by forward
    substitution, one window (component) ``B`` at a time, each from its
    inflow ``b_B`` — ``(alpha U)_B`` plus what earlier windows pushed into
    it — by its own series ``x_B = sum_r b_B (U_BB)^r``
    (:class:`_WindowOperator` under :func:`_drive`), and ``x_B`` is then
    pushed once through ``U_B,later``, the window's cross structure, into
    the later inflows and the targets'.  ``L(s)`` is the targets' inflow
    summed: ``(alpha U) . e + sum_B x_B . g_B``, ``g = U[:, targets] 1``.

    Only the windows ``alpha U`` reaches are walked, and each stops under the
    driver's one rule at ``epsilon / windows``: a window's residual bounds
    its share of the error, so ``final_delta`` — the sum over windows — stays
    a bound of ``|L - L_r|`` and below ``epsilon``.  A point's iterations
    are its steps summed over windows, each window capped at
    ``max_iterations``.  The block's data is filled per window straight
    from the transform table, inner and cross apart, so every window reads
    a ``(width, entries)`` array of its own and nothing is gathered again.
    """

    def __init__(self, evaluator, form, table):
        self.components = components = evaluator.components(form.mask)
        self.width = width = table.shape[0]
        self.windows = components.reached(evaluator, form.alpha)
        self.copies = components.window_copies(width)
        regions = [
            (k, rows, rows.entries(*components.window(k)))
            for k in self.windows.tolist() for rows in (components.inner, components.cross)
        ]
        data = np.empty(width * sum(part.stop - part.start for _, _, part in regions), complex)
        self.inner, self.cross, lo = {}, {}, 0
        for k, rows, part in regions:
            size = part.stop - part.start
            region = data[lo:lo + width * size].reshape(width, size)
            entry_values(table, rows.dist[part], rows.probs[part], region)
            (self.inner if rows is components.inner else self.cross)[k] = region.reshape(-1)
            lo += width * size
        self.inflow = evaluator.alpha_vec_matrix_batch(
            form.alpha, table, columns=components.position
        )
        self.product_rows = self.product_edges = self.exact_rows = 0

    def drive(self, options: PassageTimeOptions, will_fallback: bool):
        """Walk every window in rank order; ``_drive``'s return, for the block.

        A point that hits the cap in a window is re-solved by the caller when
        ``will_fallback``: it is left out of ``order`` and its rows go to zero
        so it sends nothing on.
        """
        width, components = self.width, self.components
        iterations = np.zeros(width, dtype=np.int64)
        deltas = np.zeros(width)
        converged = np.ones(width, dtype=bool)
        options = replace(options, epsilon=options.epsilon / max(self.windows.size, 1))
        windows = [components.window(k) for k in self.windows.tolist()]
        largest = max((hi - lo for lo, hi in windows), default=0)
        buffers = [np.empty(width * largest, dtype=complex) for _ in range(3)]
        inflow = self.inflow.reshape(-1)
        for k in self.windows.tolist():
            op = _WindowOperator(self, k, buffers)
            _, _, steps, delta, done = _drive(op, options, finalize_unconverged=False)
            iterations += steps
            deltas += delta
            converged &= done
            if will_fallback and not done.all():
                op.x[~done] = 0.0
                self.inflow[~done] = 0.0
            size = width * op.n
            indptr, indices = self.copies[k][2:]
            cross = self.cross[k]
            _sparsetools.csc_matvec(
                width * components.position.size, size, indptr[: size + 1], indices, cross,
                op.x.ravel(), inflow,
            )
            self.product_rows += op.product_rows
            self.product_edges += op.product_edges + cross.size
            self.exact_rows += op.exact_rows
        values = np.add.reduce(self.inflow[:, components.walked:], axis=1)
        order = np.flatnonzero(converged) if will_fallback else np.arange(width)
        return order, values[order], iterations, deltas, converged


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

    def weights(self, evaluator, s_values, table, data) -> np.ndarray | None:
        """``w`` on the targets at the points ``s_values`` of a stepper, in
        run order (None for a passage).

        ``h*`` is read off what the stepper holds — the row sums of its ``U``
        data (a transient zeroes no row), or, with none (the factored
        engine), its rows ``table`` of the transform table times the
        distribution row sums, summed in a fixed order (:func:`_dist_sum`) —
        so no transform is evaluated twice.
        """
        if not self.transient:
            return None
        if data is None:
            h = _dist_sum(table, evaluator.dist_row_sums()[:, self.targets])
        else:
            h = np.add.reduceat(data, evaluator.csr.indptr[:-1], axis=1)[:, self.targets]
        return (1.0 - h) / s_values[:, None]

    def direct(self, evaluator, s_values, table) -> np.ndarray:
        """The values of points the sparse LU solves, one factorisation each,
        from their rows ``table`` of the block's transform table
        (:class:`~repro.smp.linear.DirectOrdering`).

        A passage reduces the LU's passage vectors ``vectors @ alpha`` over
        alpha's support, each row on its own — BLAS picks its kernel by the
        row count, and a point's value must not depend on how many points
        share its block.
        """
        ordering = evaluator.direct_ordering(self.absorbing)
        if self.transient:
            return ordering.transient(table, self.alpha, self.targets, s_values)
        vectors = ordering.passage(table)
        support = np.flatnonzero(self.alpha)
        return np.add.reduce(np.take(vectors, support, axis=1) * self.alpha[support], axis=1)

    def operator(self, evaluator, engine, table, s_values):
        """The stepper of the block's iterative points, in their run order:
        ``table`` holds their rows of the block's transform table,
        ``s_values`` their s-points.  A passage on the batch engine walks
        (:class:`_Walk`)."""
        if engine == "factored":
            return _FactoredRowOperator(evaluator, self, table, s_values)
        if not self.transient:
            return _Walk(evaluator, self, table)
        return _BatchRowOperator(evaluator, self, table, s_values)


def _solve_block(evaluator, engine, form, s_block, options, policy):
    """One memory-bounded s-block: route, solve directly, fill, drive, fall back.

    ``engine`` is the iterative engine of the block or ``"direct-lu"``, the
    explicit direct solve — the same routing with every point routed, which
    therefore never computes a contraction.  The block's transform table is
    the only per-point data it holds, evaluated once: routing reads it, the
    routed points hand the sparse LU their rows of it, and the iterative
    points — slowest first — take theirs to a stepper that fills what it
    reads: the walk's windows for a batch-engine passage, the transient
    stepper's ``U`` data, nothing per edge on the factored engine.  Points
    that hit the cap are re-solved from their rows too.  Returns the values,
    one diagnostics per point and the iterative product's work:
    ``(point-rows advanced, edge-point products taken)``.
    """
    n_s = s_block.size
    n = evaluator.kernel.n_states
    result = np.empty(n_s, dtype=complex)
    diags: list[ConvergenceDiagnostics | None] = [None] * n_s
    may_route = n <= DIRECT_MAX_STATES

    with _obs_trace.span("route", points=n_s):
        table = evaluator.lst_table(s_block)
        if engine == "direct-lu":
            direct_mask = np.ones(n_s, dtype=bool)
        else:
            contraction = evaluator.contraction(table, form.absorbing)
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
    n_iter = iter_idx.size

    def solve_direct(indices, solver_label, iterations, matvecs):
        result[indices] = form.direct(evaluator, s_block[indices], table[indices])
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
    if n_iter:
        rows, s_iter = table[iter_idx], s_block[iter_idx]
        op = None
        if engine != "factored":  # the factored stepper fills nothing per edge
            with _obs_trace.span("lst-fill", points=n_iter):
                op = form.operator(evaluator, engine, rows, s_iter)
        # When the policy would re-solve cap-hitting points directly, their
        # finished result is wasted work — tell the driver to skip it.
        will_fallback = policy.fallback_to_direct and may_route
        with _obs_trace.span("drive", points=n_iter) as drive:
            if isinstance(op, _Walk):
                order, results, iterations, deltas, conv = op.drive(options, will_fallback)
            else:
                op = op or form.operator(evaluator, engine, rows, s_iter)
                order, results, iterations, deltas, conv = _drive(
                    op, options, finalize_unconverged=not will_fallback
                )
            work = (op.product_rows, op.product_edges)
            drive.set(product_edges=op.product_edges, exact_rows=op.exact_rows)
        if order.size:
            result[iter_idx[order]] = results
        retried = ~conv if will_fallback else np.zeros(n_iter, dtype=bool)
        for pos in np.flatnonzero(~retried):
            diags[iter_idx[pos]] = ConvergenceDiagnostics(
                iterations=int(iterations[pos]),
                converged=bool(conv[pos]),
                final_delta=float(deltas[pos]),
                matvec_count=int(iterations[pos]) + 1,
                engine=engine,
            )
        if retried.any():
            op = None  # free what the iteration held before the LU runs
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
            "product_edges": product_edges,
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
