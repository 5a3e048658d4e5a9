"""Background executor draining the job queue through the serving pipeline.

The :class:`JobRunner` owns one daemon thread.  Each claimed job is executed
through the *same* code path a synchronous query takes —
``AnalysisService.measure`` on the stored request, over the coalescing
scheduler, in the blocks the executor cuts — with one difference: the runner
hangs a :class:`_JobObserver` on the evaluation loop, which sees every block
the moment it has landed in the tiered result cache (and, with a checkpoint
directory, on disk), so that

* the job record's progress is advanced once per completed s-block
  (``GET /v1/jobs/{id}`` shows monotone progress),
* cancellation and drain are honoured at the next block boundary
  (``DELETE /v1/jobs/{id}``): blocks not yet started are never solved,
* a job re-queued after a crash resumes from its checkpointed blocks: the
  scheduler's disk tier answers the already-solved points, so only the
  genuinely unfinished blocks are computed (no loss, no double-count).

Because the final response is assembled by the synchronous query method
from the very values the blocks produced, an async job's result is
bit-identical to the synchronous path's.
"""
from __future__ import annotations

import logging
import os
import threading
import time

from .. import faults
from .store import JobRecord, JobStore, JobStoreError

__all__ = ["JobCancelled", "JobDrained", "JobRunner"]

logger = logging.getLogger("repro.jobs")

#: test/ops hook: force the runner's per-dispatch block size
_BLOCK_POINTS_ENV = "REPRO_JOBS_BLOCK_POINTS"


def _block_size(name: str, value) -> int:
    """``value`` as an s-block size; anything but an integer >= 1 would let a
    job's blocks go unsolved, so it is refused up front, naming ``name``."""
    try:
        points = int(value)
    except (TypeError, ValueError):
        points = 0
    if points < 1 or isinstance(value, (bool, float)):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return points


class JobCancelled(Exception):
    """Raised between blocks when the job's cancel flag is set."""


class JobDrained(Exception):
    """Raised between blocks when the runner is draining for shutdown.

    The in-flight job goes back to ``queued`` with its checkpointed blocks
    intact, so the next server to open the store resumes it from where the
    drain cut it off.
    """


class JobRunner:
    """Drains ``queued`` jobs from a :class:`JobStore`, one at a time.

    A single executor thread is deliberate: transform evaluation already
    parallelises *inside* a job (the worker pool shares the kernel plane),
    and concurrent sync queries still coalesce with a running job through
    the scheduler, so a second executor would only fight the first for the
    same evaluator lock.
    """

    def __init__(
        self,
        service,
        store: JobStore,
        *,
        block_points: int | None = None,
        poll_interval: float = 0.5,
    ):
        self.service = service
        self.store = store
        env_block = os.environ.get(_BLOCK_POINTS_ENV)
        if env_block:
            block_points = _block_size(_BLOCK_POINTS_ENV, env_block)
        elif block_points is not None:
            block_points = _block_size("job_block_points", block_points)
        self.block_points = block_points
        self.poll_interval = float(poll_interval)
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stop = False
        self._draining = False
        self._active: str | None = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-job-runner", daemon=True
        )
        self._thread.start()

    def wake(self) -> None:
        """Nudge the loop (called after every submit and cancel)."""
        with self._cond:
            self._cond.notify_all()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop = True
        self.wake()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop claiming jobs; re-queue the in-flight one at a block boundary.

        Returns True once the executor is idle (the in-flight job, if any,
        has been pushed back to ``queued`` with its completed blocks already
        checkpointed), False if it was still busy when ``timeout`` expired.
        """
        self._draining = True
        self.wake()
        deadline = time.monotonic() + float(timeout)
        with self._cond:
            while self._active is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=min(remaining, 0.25))
        return True

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def draining(self) -> bool:
        return self._draining

    # ----------------------------------------------------------------- loop
    def _loop(self) -> None:
        while not self._stop:
            if self._draining:
                with self._cond:
                    self._cond.wait(timeout=self.poll_interval)
                continue
            record = self.store.next_queued()
            if record is None:
                with self._cond:
                    self._cond.wait(timeout=self.poll_interval)
                continue
            try:
                record = self.store.transition(record.job_id, "running")
            except JobStoreError:
                continue  # cancelled (or otherwise claimed) since we looked
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        from ..service.service import ServiceError

        observer = _JobObserver(self, record)
        self._active = record.job_id
        try:
            response = self.service.measure(
                record.kind, record.request, tenant=record.tenant, observer=observer
            )
            observer.settle()
            self.store.transition(record.job_id, "done", result=response)
            logger.info("job=%s tenant=%s kind=%s state=done",
                        record.job_id, record.tenant, record.kind)
        except JobCancelled:
            self.store.transition(record.job_id, "cancelled",
                                  note="cancelled between blocks")
            logger.info("job=%s tenant=%s state=cancelled", record.job_id,
                        record.tenant)
        except JobDrained:
            self.store.transition(record.job_id, "queued",
                                  note="re-queued by graceful drain")
            logger.info("job=%s tenant=%s state=queued (drained)",
                        record.job_id, record.tenant)
        except ServiceError as exc:
            self.store.transition(record.job_id, "failed",
                                  error=f"{type(exc).__name__}: {exc}")
            logger.warning("job=%s tenant=%s state=failed error=%s",
                           record.job_id, record.tenant, exc)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self.store.transition(record.job_id, "failed",
                                  error=f"{type(exc).__name__}: {exc}")
            logger.exception("job=%s tenant=%s state=failed", record.job_id,
                             record.tenant)
        finally:
            observer.close()
            with self._cond:
                self._active = None
                self._cond.notify_all()


class _JobObserver:
    """One running job's hooks on the evaluation loop.

    The service tells it every plan before gathering it (:meth:`on_plan`: the
    measure's grid first, then one single-t plan per quantile probe).  The
    scheduler tells it how it cut the points no cache tier holds
    (:meth:`add_total`: it is the run's progress reporter) and every landed
    block (:meth:`on_block`).  The executor sizes the blocks as for a
    synchronous query, one per worker unless the memory plan caps them, so
    progress and cancellation advance one worker-sized block at a time: a
    2-worker job over one cold grid reports two blocks, and a cancel is seen
    only when a worker's whole share lands (the blocks still running then
    finish and are discarded).  The record's plan counts the blocks the
    measure's grid was solved in.
    """

    def __init__(self, runner: JobRunner, record: JobRecord):
        self.runner = runner
        self.job_id = record.job_id
        self.board = runner.service.progress_board
        self.board_key: str | None = None
        self.reporter = None
        #: the measure's plan, recorded once its grid's blocks are known
        self.plan: dict | None = None
        self.progress = {
            "points_total": 0, "blocks_total": 0,
            "points_done": 0, "blocks_done": 0, "points_computed": 0,
        }

    def on_plan(self, job, plan, entry) -> dict:
        """Account for ``plan``; returns how the scheduler is to dispatch it."""
        runner, store = self.runner, self.runner.store
        if store.cancel_requested(self.job_id):
            raise JobCancelled(self.job_id)
        n_points = plan.n_evaluations
        if self.reporter is not None:
            self.settle()  # the previous gather returned: all of it is done
        self.progress["points_total"] += n_points
        if self.reporter is None:
            # One board run spans the whole job — each landed block advances
            # it, so /v1/progress/{digest} shows a single monotone run
            # instead of one micro-run per gather.
            self.board_key = entry.digest
            self.reporter = self.board.start(
                entry.digest, label=f"job:{self.job_id}"
            )
            self.plan = {
                "measure": job.digest(),
                "engine": entry.evaluator_engine,
                "n_s_points": n_points,
                "solver": job.solver,
                "points_checkpointed": runner.service.cache.checkpointed_points(
                    job.digest()
                ),
            }
            store.progress(self.job_id, dict(self.progress))
        return {
            "block_points": runner.block_points, "on_block": self.on_block,
            "reporter": self,
        }

    def add_total(self, blocks: int, points: int = 0) -> None:
        """The scheduler cut ``points`` leftover s-points into ``blocks``
        round-robin blocks (so of at most ``ceil(points / blocks)`` points)."""
        self.reporter.add_total(blocks, points)
        self.progress["blocks_total"] += blocks
        self._record_plan(blocks, -(-points // blocks))

    def advance(self, blocks: int = 1, points: int = 0) -> None:
        self.reporter.advance(blocks, points)

    def _record_plan(self, n_blocks: int, block_points: int) -> None:
        """Record the measure's plan with the blocks its grid was solved in
        (the first gather's; none when every point was stored already)."""
        if self.plan is not None:
            self.runner.store.annotate_plan(self.job_id, {
                **self.plan, "n_blocks": n_blocks, "block_points": block_points,
            })
            self.plan = None

    def on_block(self, values: dict) -> None:
        """A block has landed (stored, checkpointed): record it, then stop
        the run here if the job was cancelled or the server is draining."""
        progress, store = self.progress, self.runner.store
        progress["points_done"] += len(values)
        progress["points_computed"] += len(values)
        progress["blocks_done"] += 1
        store.progress(self.job_id, dict(progress))
        # e.g. jobs.block=crash:done=1 hard-kills the process after the first
        # completed block: blocks are checkpointed, the job is still `running`
        # in the store — the durability scenario.
        faults.fire("jobs.block", done=progress["blocks_done"], job=self.job_id)
        if self.runner.draining:
            raise JobDrained(self.job_id)
        if store.cancel_requested(self.job_id):
            raise JobCancelled(self.job_id)

    def settle(self) -> None:
        """Everything planned so far is resolved — points served from the
        cache tiers never pass :meth:`on_block`, so count them in here."""
        self._record_plan(0, 0)
        progress = self.progress
        if progress["points_done"] != progress["points_total"]:
            progress["points_done"] = progress["points_total"]
            self.runner.store.progress(self.job_id, dict(progress))

    def close(self) -> None:
        if self.reporter is not None:
            self.board.done(self.board_key, self.reporter)
            self.reporter = None
