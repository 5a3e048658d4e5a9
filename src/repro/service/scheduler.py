"""Coalescing s-point scheduler: each point is evaluated at most once.

Concurrent queries on the same measure expand to overlapping inversion
s-grids (the Euler grid for a given t-grid is identical across requests).
The scheduler keeps a single-flight table keyed by ``(measure digest,
canonical s)``: the first request to need a point registers a ticket and
evaluates it as part of one :meth:`TransformJob.evaluate_batch` call on the
batched engine; every other in-flight request needing that point blocks on
the ticket and receives the same value — one evaluation fans out to all
waiting queries.

Evaluations on one kernel are serialised by the model entry's ``eval_lock``
(the shared :class:`~repro.smp.kernel.UEvaluator` grid caches are not
thread-safe); waiting on tickets never happens while that lock is held, so
the scheme is deadlock-free.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..core.jobs import TransformJob
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
    """Single-flight batched evaluation over a tiered result cache.

    With a block-dispatching ``backend`` (the service's ``workers > 1``
    mode), each owned batch is farmed out as s-blocks to a worker pool that
    shares the kernel plane; per-worker block counts and busy time are
    accumulated for ``/v1/stats``.
    """

    def __init__(
        self,
        cache: TieredResultCache,
        *,
        backend=None,
        progress_board=None,
        coalesce_timeout: float = _COALESCE_TIMEOUT_SECONDS,
    ):
        if coalesce_timeout <= 0:
            raise ValueError("coalesce_timeout must be > 0")
        self.cache = cache
        self.backend = backend
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
    ) -> dict[complex, complex]:
        """Transform values for ``s_points``, keyed by canonical s.

        Points are resolved in tier order: memory cache, disk checkpoint,
        another request's in-flight evaluation, and only then a fresh batched
        evaluation of the leftovers (one ``evaluate_batch`` call, serialised
        on ``eval_lock`` when the job shares its evaluator).  ``keys`` are the
        points' canonical keys when the caller's plan already derived them.

        A caller spanning several ``evaluate`` calls — the async job runner
        dispatches one call per s-block — passes its own ``reporter`` so the
        progress board shows a single monotone run instead of one micro-run
        per block; the scheduler then never finishes that reporter.
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
                    with self._lock:
                        for s, v in already.items():
                            ticket = self._in_flight.pop((digest, s), None)
                            if ticket is not None:
                                ticket.value = v
                                ticket.event.set()
                    owned = [s for s in owned if s not in already]
                    found.update(already)
                    if stats is not None:
                        stats.s_points_from_memory += len(already)
                if owned:
                    computed = self._evaluate_owned(
                        job, digest, owned, exact, eval_lock, stats,
                        progress_key, reporter,
                    )
                    found.update(computed)
            except BaseException as exc:
                self._resolve_with_error(digest, owned, exc)
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
        # Pool mode only: the per-worker view comes straight from the obs
        # metrics registry — the one place the backend records completed
        # blocks — instead of a scheduler-private merge of report dicts.
        if self.backend is not None:
            workers = worker_stats_snapshot()
            if workers:
                out["workers"] = workers
        return out

    # ------------------------------------------------------------ internals
    def _resolve_with_error(
        self, digest: str, owned: list[complex], exc: BaseException
    ) -> None:
        """Wake waiters of any still-registered owned tickets with ``exc``.

        Idempotent with the resolution inside :meth:`_evaluate_owned` —
        tickets it already popped are simply gone from the table.
        """
        with self._lock:
            for s in owned:
                ticket = self._in_flight.pop((digest, s), None)
                if ticket is not None:
                    ticket.error = exc
                    ticket.event.set()

    def _evaluate_owned(
        self,
        job: TransformJob,
        digest: str,
        owned: list[complex],
        exact: dict[complex, complex],
        eval_lock,
        stats: QueryStatistics | None,
        progress_key: str | None = None,
        reporter=None,
    ) -> dict[complex, complex]:
        # Evaluate at the *exact* s-points the caller supplied, not at their
        # canonically rounded cache keys: rounding perturbs contour points
        # whose components differ by many orders of magnitude (the Laguerre
        # grid), and every other evaluation path (solvers, pipeline, api
        # engines) evaluates exact points — evaluating the same inputs is
        # what keeps remote results bit-identical to local ones.
        todo = [exact.get(key, key) for key in owned]
        stopwatch = Stopwatch()
        report = None
        # The board is keyed by the *model* digest (what clients poll at
        # /v1/progress/{digest}), not the per-measure job digest.
        board_key = progress_key or digest
        external_reporter = reporter is not None
        if not external_reporter and self.progress_board is not None:
            reporter = self.progress_board.start(board_key, label=job.kind())

        def _dispatch():
            # Pool mode dispatches s-blocks to workers sharing the kernel
            # plane; the lock still serialises use of the master-side
            # evaluator (plane export, engine resolution) per kernel.
            if self.backend is not None:
                if getattr(self.backend, "supports_progress", False):
                    return self.backend.evaluate(job, todo, progress=reporter)
                return self.backend.evaluate(job, todo)
            if reporter is not None:
                reporter.add_total(1, len(todo))
            computed = job.evaluate_many(todo)
            if reporter is not None:
                reporter.advance(1, len(todo))
            return computed

        try:
            with stopwatch:
                # Capture the evaluation report right after the call (while
                # still holding the evaluation lock where one exists): another
                # request sharing the job's measure may evaluate concurrently
                # and overwrite job.last_report.
                if eval_lock is not None:
                    with eval_lock:
                        computed = _dispatch()
                        report = getattr(job, "last_report", None)
                else:
                    computed = _dispatch()
                    report = getattr(job, "last_report", None)
        except BaseException as exc:
            with self._lock:
                for s in owned:
                    ticket = self._in_flight.pop((digest, s), None)
                    if ticket is not None:
                        ticket.error = exc
                        ticket.event.set()
            raise
        finally:
            if reporter is not None and not external_reporter:
                self.progress_board.done(board_key, reporter)
        # Re-key the values by their canonical cache keys (evaluate_many
        # keyed them by the exact inputs).
        computed = {key: computed[s] for key, s in zip(owned, todo)}
        self.cache.insert(digest, computed)
        with self._lock:
            for s in owned:
                ticket = self._in_flight.pop((digest, s), None)
                if ticket is not None:
                    ticket.value = computed[s]
                    ticket.event.set()
            self.points_evaluated += len(owned)
            self.batches_dispatched += 1
            self.evaluation_seconds_total += stopwatch.elapsed
            if report and report.get("engine"):
                engine = report["engine"]
                self.engine_batches[engine] = self.engine_batches.get(engine, 0) + 1
                blocks = report.get("blocks") or []
                self.engine_blocks[engine] = self.engine_blocks.get(engine, 0) + len(blocks)
        if stats is not None:
            stats.s_points_computed += len(owned)
            stats.batches += 1
            stats.evaluation_seconds += stopwatch.elapsed
            if report and report.get("engine"):
                stats.extra["evaluator_engine"] = report["engine"]
                # Extend, never replace: a query whose points resolve in
                # several coalesced batches reports every batch's blocks.
                stats.extra.setdefault("solve_blocks", []).extend(
                    report.get("blocks") or []
                )
            if report and report.get("workers"):
                merge_worker_stats(stats.extra.setdefault("workers", {}),
                                   report["workers"])
        return computed
