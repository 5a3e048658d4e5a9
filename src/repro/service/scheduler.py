"""The one loop that turns plan points into stored values.

:meth:`CoalescingScheduler.evaluate` is the paper's master: it resolves a
plan's s-points through the result store (memory LRU over an optional disk
checkpoint), hands the leftovers to an executor
(:class:`~repro.distributed.SerialBackend` in-process,
:class:`~repro.distributed.MultiprocessingBackend` on a worker pool) as
s-blocks, and lands every solved block in one place — store, tickets,
progress, then the caller's observer.  The api engines, the solver classes,
the analysis service and the job runner all evaluate through it; they differ
only in the store and executor they construct it with and in the observer
they pass.

Each point is evaluated at most once.  Concurrent queries on the same measure
expand to overlapping inversion s-grids (the Euler grid for a given t-grid is
identical across requests).  The scheduler keeps a single-flight table keyed
by ``(measure digest, canonical s)``: the first request to need a point
registers a ticket and evaluates it; every other in-flight request needing
that point blocks on the ticket and receives the same value — one evaluation
fans out to all waiting queries.

Evaluations on one kernel are serialised by the model entry's ``eval_lock``
(the shared :class:`~repro.smp.kernel.UEvaluator`'s lazily built
structures are not thread-safe), held per s-block; waiting on tickets never happens while that
lock is held, so the scheme is deadlock-free.
"""
from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

from ..core.jobs import TransformJob
from ..distributed.backends import Backend, SerialBackend
from ..laplace.inverter import canonical_keys
from ..obs.metrics import get_metrics, merge_worker_stats, worker_stats_snapshot
from ..utils.timing import Stopwatch
from .cache import TieredResultCache

__all__ = ["CoalescingScheduler", "QueryStatistics"]

#: upper bound on waiting for another request's in-flight evaluation; far
#: beyond any single batch on models this library handles in-process
_COALESCE_TIMEOUT_SECONDS = 600.0


@dataclass
class QueryStatistics:
    """Per-request accounting, returned in every query response."""

    s_points_required: int = 0
    s_points_from_memory: int = 0
    s_points_from_disk: int = 0
    s_points_coalesced: int = 0
    s_points_computed: int = 0
    batches: int = 0
    evaluation_seconds: float = 0.0
    inversion_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "s_points_required": self.s_points_required,
            "s_points_from_memory": self.s_points_from_memory,
            "s_points_from_disk": self.s_points_from_disk,
            "s_points_coalesced": self.s_points_coalesced,
            "s_points_computed": self.s_points_computed,
            "batches": self.batches,
            "evaluation_seconds": self.evaluation_seconds,
            "inversion_seconds": self.inversion_seconds,
        }
        out.update(self.extra)
        return out


class _Ticket:
    """One in-flight s-point: waiters block on ``event`` for the value."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: complex | None = None
        self.error: BaseException | None = None


class CoalescingScheduler:
    """Single-flight block evaluation over a tiered result cache.

    ``backend`` is the executor the owned points of every call are solved
    on; the default solves them in the calling process.  With a pool backend
    (the service's ``workers > 1`` mode) the blocks go to worker processes
    that share the kernel plane, and per-worker block counts and busy time
    show up in ``/v1/stats``.
    """

    def __init__(
        self,
        cache: TieredResultCache,
        *,
        backend: Backend | None = None,
        progress_board=None,
        coalesce_timeout: float = _COALESCE_TIMEOUT_SECONDS,
    ):
        if coalesce_timeout <= 0:
            raise ValueError("coalesce_timeout must be > 0")
        self.cache = cache
        self.backend = backend if backend is not None else SerialBackend()
        #: upper bound on waiting for another request's in-flight point; a
        #: dead leader resolves its tickets with the error immediately, so
        #: this only guards against a leader stuck outside Python's control
        self.coalesce_timeout = float(coalesce_timeout)
        #: optional :class:`~repro.obs.progress.ProgressBoard`; owned batches
        #: register a per-digest reporter so ``GET /v1/progress/{digest}``
        #: shows in-flight evaluations
        self.progress_board = progress_board
        self._lock = threading.Lock()
        self._in_flight: dict[tuple[str, complex], _Ticket] = {}
        self.points_evaluated = 0
        self.points_coalesced = 0
        self.batches_dispatched = 0
        self.evaluation_seconds_total = 0.0
        #: batches served per evaluation engine ("batch", "factored", ...)
        self.engine_batches: dict[str, int] = {}
        #: solve blocks executed per engine (one batch spans >= 1 blocks)
        self.engine_blocks: dict[str, int] = {}

    # ------------------------------------------------------------------ API
    def evaluate(
        self,
        job: TransformJob,
        s_points,
        *,
        keys=None,
        eval_lock=None,
        stats: QueryStatistics | None = None,
        progress_key: str | None = None,
        reporter=None,
        block_points: int | None = None,
        on_block=None,
    ) -> dict[complex, complex]:
        """Transform values for ``s_points``, keyed by canonical s.

        Points are resolved in tier order: memory cache, disk checkpoint,
        another request's in-flight evaluation, and only then a fresh
        evaluation of the leftovers on the executor, in blocks of
        ``block_points`` (default: the executor's own sizing), serialised on
        ``eval_lock`` per block when the job shares its evaluator.  ``keys``
        are the points' canonical keys when the caller's plan already derived
        them.

        Every solved block lands the same way: into the cache (memory and,
        with a disk tier, the checkpoint), its tickets resolved, progress
        advanced, then ``on_block(values)`` — the caller's observer, keyed
        like the return value.  An observer that raises (a cancelled or
        drained job) stops the run at that block boundary: what has landed
        stays stored, the rest is not solved, and waiters on it see the error.
        ``reporter`` is a caller-owned progress reporter (the CLI's, or a
        job's spanning several calls): fed here, never finished here.
        """
        digest = job.digest()
        s_points = np.asarray(s_points, dtype=complex).ravel()
        if keys is None:
            keys = canonical_keys(s_points)
        exact: dict[complex, complex] = {}
        for key, s in zip(keys, s_points.tolist()):
            exact.setdefault(key, s)
        canonical = list(exact)

        lookup = self.cache.lookup(digest, canonical)
        found = lookup.found
        if stats is not None:
            stats.s_points_required += len(canonical)
            stats.s_points_from_memory += lookup.memory_hits
            stats.s_points_from_disk += lookup.disk_hits

        waits: dict[complex, _Ticket] = {}
        owned: list[complex] = []
        if lookup.missing:
            with self._lock:
                for s in lookup.missing:
                    ticket = self._in_flight.get((digest, s))
                    if ticket is not None:
                        waits[s] = ticket
                    else:
                        ticket = _Ticket()
                        self._in_flight[(digest, s)] = ticket
                        owned.append(s)

        if owned:
            # From here to the end of the owned evaluation, *any* failure must
            # resolve the registered tickets: a waiter blocked on a ticket its
            # dead leader never resolves would sit out the whole coalesce
            # timeout instead of seeing the error immediately.
            try:
                # Double-check the memory tier: an owner that completed
                # between our lookup and our ticket registration has already
                # inserted its values, and those points must not be evaluated
                # a second time.
                already = self.cache.peek(digest, owned)
                if already:
                    self._resolve(digest, already, values=already)
                    owned = [s for s in owned if s not in already]
                    found.update(already)
                    if stats is not None:
                        stats.s_points_from_memory += len(already)
                if owned:
                    found.update(self._evaluate_owned(
                        job, digest, owned, exact, eval_lock, stats,
                        progress_key, reporter, block_points, on_block,
                    ))
            except BaseException as exc:
                self._resolve(digest, owned, error=exc)
                raise

        for s, ticket in waits.items():
            if not ticket.event.wait(self.coalesce_timeout):
                raise TimeoutError(
                    f"timed out waiting for in-flight evaluation of s={s}"
                )
            if ticket.error is not None:
                raise RuntimeError(
                    f"coalesced evaluation of s={s} failed in another request"
                ) from ticket.error
            found[s] = ticket.value
        if waits:
            with self._lock:
                self.points_coalesced += len(waits)
            get_metrics().counter(
                "repro_coalesced_points_total",
                "s-points served by another request's in-flight evaluation",
            ).inc(len(waits))
            if stats is not None:
                stats.s_points_coalesced += len(waits)
        return found

    def stats(self) -> dict:
        with self._lock:
            out = {
                "points_evaluated": self.points_evaluated,
                "points_coalesced": self.points_coalesced,
                "batches_dispatched": self.batches_dispatched,
                "points_in_flight": len(self._in_flight),
                "evaluation_seconds_total": self.evaluation_seconds_total,
                "engine_batches": dict(self.engine_batches),
                "engine_blocks": dict(self.engine_blocks),
            }
        # The per-worker view comes straight from the obs metrics registry —
        # the one place a pool backend records completed blocks.
        workers = worker_stats_snapshot()
        if workers:
            out["workers"] = workers
        return out

    # ------------------------------------------------------------ internals
    def _resolve(self, digest: str, keys, *, values=None, error=None) -> None:
        """Wake the waiters of ``keys``' still-registered tickets — with the
        point's value, or with the error that means it will not get one
        (tickets whose block landed are already gone from the table)."""
        with self._lock:
            for key in keys:
                ticket = self._in_flight.pop((digest, key), None)
                if ticket is not None:
                    if error is None:
                        ticket.value = values[key]
                    ticket.error = error
                    ticket.event.set()

    def _evaluate_owned(
        self,
        job: TransformJob,
        digest: str,
        owned: list[complex],
        exact: dict[complex, complex],
        eval_lock,
        stats: QueryStatistics | None,
        progress_key: str | None,
        reporter,
        block_points: int | None,
        on_block,
    ) -> dict[complex, complex]:
        # Evaluate at the *exact* s-points the caller supplied, not at their
        # canonically rounded cache keys: rounding perturbs contour points
        # whose components differ by many orders of magnitude (the Laguerre
        # grid), and evaluating the same inputs on every surface is what
        # keeps their results bit-identical.
        key_of = {exact[key]: key for key in owned}
        todo = list(key_of)
        # The board is keyed by the *model* digest (what clients poll at
        # /v1/progress/{digest}), not the per-measure job digest.
        board_key = progress_key or digest
        own_reporter = reporter is None and self.progress_board is not None
        if own_reporter:
            reporter = self.progress_board.start(board_key, label=job.kind())
        computed: dict[complex, complex] = {}

        def land(values: dict[complex, complex]) -> None:
            # Called by the executor in this thread between two blocks, so the
            # evaluation lock can be let go while the block is stored: another
            # query on the same kernel gets its turn between a job's blocks.
            block = {key_of[s]: v for s, v in values.items()}
            if eval_lock is not None:
                eval_lock.release()
            try:
                self.cache.insert(digest, block)
                self._resolve(digest, block, values=block)
                computed.update(block)
                if stats is not None:
                    stats.s_points_computed += len(block)
                if reporter is not None:
                    reporter.advance(1, len(block))
                if on_block is not None:
                    on_block(block)
            finally:
                if eval_lock is not None:
                    eval_lock.acquire()

        stopwatch = Stopwatch()
        try:
            # With a pool the lock still serialises use of the master-side
            # evaluator (block sizing, engine resolution, plane export).
            with stopwatch, eval_lock or contextlib.nullcontext():
                size = block_points or self.backend.block_points(job, len(todo))
                if reporter is not None:
                    reporter.add_total(-(-len(todo) // size), len(todo))
                self.backend.evaluate(job, todo, block_points=size, on_block=land)
        finally:
            with self._lock:
                self.points_evaluated += len(computed)  # also of a stopped run
            if own_reporter:
                self.progress_board.done(board_key, reporter)
        report = job.last_report
        engine = report.get("engine") if report else None
        with self._lock:
            self.batches_dispatched += 1
            self.evaluation_seconds_total += stopwatch.elapsed
            if engine:
                self.engine_batches[engine] = self.engine_batches.get(engine, 0) + 1
                self.engine_blocks[engine] = (
                    self.engine_blocks.get(engine, 0) + len(report.get("blocks") or [])
                )
        if stats is not None:
            stats.batches += 1
            stats.evaluation_seconds += stopwatch.elapsed
            if engine:
                stats.extra["evaluator_engine"] = engine
                # Extend, never replace: a query whose points resolve in
                # several coalesced batches reports every batch's blocks.
                stats.extra.setdefault("solve_blocks", []).extend(
                    report.get("blocks") or []
                )
            if report and report.get("workers"):
                merge_worker_stats(stats.extra.setdefault("workers", {}),
                                   report["workers"])
        return computed
