"""Executors: the only code that calls ``TransformJob.evaluate_batch``.

An executor takes a :class:`~repro.core.jobs.TransformJob` and a list of
s-points, solves them as s-blocks and returns ``{s: L(s)}``; the caller's
``on_block(values)`` sees every block as it completes.  It knows nothing of
caches, checkpoints, tickets or progress — those live in the one loop that
drives it, :meth:`repro.service.scheduler.CoalescingScheduler.evaluate`.

* :class:`SerialBackend` — the ``workers=0`` case: blocks solved one after
  the other in the calling process (one block unless the caller sizes them),
  optionally recording a wall-clock duration per s-point (the durations feed
  the simulated cluster used to regenerate Table 2),
* :class:`MultiprocessingBackend` — a pool of worker *processes* sharing one
  kernel image: the master exports the kernel plane once (a CRC-checked file
  in a :class:`~repro.smp.plane.PlaneStore`, mmap'd by every worker), ships
  each worker a few-hundred-byte :class:`~repro.core.jobs.JobSpec` at pool
  start, and then streams :class:`~repro.distributed.queue.SBlock` work units.

(:class:`repro.distributed.simcluster.SimulatedCluster` is not an executor
but a timing model; see that module.)
"""
from __future__ import annotations

import contextlib
import logging
import os
import shutil
import signal
import tempfile
import threading
import time
import weakref
from concurrent import futures
from typing import Callable, Iterable, Protocol

import numpy as np

from .. import faults
from ..core.jobs import JobSpec, TransformJob
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..smp.kernel import kernel_content_digest
from ..smp.passage import SPointPolicy
from ..smp.plane import PlaneHandle, PlaneStore
from .queue import SBlock, SBlockQueue

__all__ = [
    "Backend",
    "PoisonBlockError",
    "SerialBackend",
    "MultiprocessingBackend",
]

logger = logging.getLogger("repro.distributed")


class PoisonBlockError(RuntimeError):
    """One s-block keeps killing the pool: quarantined, run failed fast.

    Raised when the same block is implicated in ``poison_after`` consecutive
    pool breaks — a deterministic crasher (or hanger) that would otherwise
    burn every rebuild the retry budget allows while the rest of the grid
    starves.  Carries the block and its s-points so the operator can
    reproduce the failure in isolation.
    """

    def __init__(self, block_index: int, s_points, failures: int, reason: str):
        self.block_index = int(block_index)
        self.s_points = [complex(s) for s in s_points]
        self.failures = int(failures)
        self.reason = str(reason)
        preview = ", ".join(f"{s:.6g}" for s in self.s_points[:4])
        if len(self.s_points) > 4:
            preview += f", ... ({len(self.s_points)} points)"
        super().__init__(
            f"s-block {self.block_index} quarantined: implicated in "
            f"{self.failures} consecutive pool breaks (last reason: "
            f"{self.reason}); s-points: [{preview}]"
        )


class Backend(Protocol):
    """Anything that can solve a job's s-points block by block."""

    def block_points(self, job: TransformJob, n_points: int) -> int:
        """s-points per block when the caller of :meth:`evaluate` names none."""
        ...  # pragma: no cover - protocol definition

    def evaluate(
        self,
        job: TransformJob,
        s_points: Iterable[complex],
        *,
        block_points: int | None = None,
        on_block: Callable[[dict[complex, complex]], None] | None = None,
    ) -> dict[complex, complex]:
        """``{s: L(s)}`` for every point; ``on_block(values)`` per solved block.

        An exception out of ``on_block`` stops the run at that block boundary:
        no further block is started and the exception propagates.
        """
        ...  # pragma: no cover - protocol definition


class SerialBackend:
    """Solve the blocks one after the other in the calling process.

    Parameters
    ----------
    record_timings:
        When true, per-s-point wall-clock durations are appended to
        :attr:`task_durations`; the Table 2 benchmark replays them through the
        simulated cluster.  The batched engine evaluates a block in one sweep,
        so the measured block time is apportioned over its points in
        proportion to the per-point work reported by the job (iteration/matvec
        counts, LU-solve equivalents) — the per-task durations keep the same
        relative shape a scalar evaluation loop would have recorded.
    """

    def __init__(self, *, record_timings: bool = False):
        self.record_timings = record_timings
        self.task_durations: list[float] = []

    def block_points(self, job: TransformJob, n_points: int) -> int:
        return max(1, n_points)

    def evaluate(
        self, job: TransformJob, s_points, *, block_points=None, on_block=None
    ) -> dict[complex, complex]:
        s_list = [complex(s) for s in s_points]
        size = block_points or self.block_points(job, len(s_list))
        out: dict[complex, complex] = {}
        reports = []
        for lo in range(0, len(s_list), size):
            block = s_list[lo:lo + size]
            start = time.perf_counter()
            values, costs = job.evaluate_batch(np.asarray(block, dtype=complex))
            elapsed = time.perf_counter() - start
            reports.append(job.last_report)
            if self.record_timings:
                total_cost = float(np.sum(costs))
                if total_cost > 0:
                    durations = elapsed * np.asarray(costs, dtype=float) / total_cost
                else:
                    durations = np.full(len(block), elapsed / len(block))
                self.task_durations.extend(float(d) for d in durations)
            solved = {s: complex(v) for s, v in zip(block, values)}
            out.update(solved)
            if on_block is not None:
                on_block(solved)
        if len(reports) > 1:
            # one report for the whole call, as the pool backend leaves
            job.last_report = {
                "engine": next((r["engine"] for r in reports if r), None),
                "blocks": [b for r in reports if r for b in r.get("blocks", [])],
            }
        return out


# ---------------------------------------------------------------------------
# Multiprocessing backend.  Pool start-up attaches every worker to the one
# kernel plane and builds the job from its JobSpec (the paper's "slaves are
# assigned the model" handshake, minus the model copy); each task message then
# carries one s-block, so the worker runs the batched engine on a
# memory-budgeted block rather than a single s-value.
# ---------------------------------------------------------------------------

_WORKER_JOB: TransformJob | None = None
_WORKER_PLANE = None
_WORKER_INCIDENT: str | None = None


def _block_worker_init(
    spec: JobSpec,
    handle: PlaneHandle,
    trace_enabled: bool = False,
    incident_dir: str | None = None,
) -> None:  # pragma: no cover - subprocess
    global _WORKER_JOB, _WORKER_PLANE, _WORKER_INCIDENT
    tracer = obs_trace.get_tracer()
    tracer.clear()  # drop spans inherited from the parent on fork
    if trace_enabled:
        tracer.enable()
    _WORKER_INCIDENT = incident_dir
    _WORKER_PLANE = handle.attach()
    _WORKER_JOB = spec.build(_WORKER_PLANE.evaluator)


def _block_worker_run(block: SBlock):  # pragma: no cover - subprocess
    assert _WORKER_JOB is not None, "worker used before initialisation"
    # Drop a started-marker before solving and remove it after: when the pool
    # breaks, the master scans the leftover markers to learn which block(s)
    # were in flight on the dead (or hung, and then terminated) worker — the
    # worker cannot report its own crash, so the blame trail must be on disk.
    marker = None
    if _WORKER_INCIDENT is not None:
        marker = os.path.join(
            _WORKER_INCIDENT, f"started.{block.index}.{os.getpid()}"
        )
        try:
            with open(marker, "w") as handle:
                handle.write(str(time.time()))
        except OSError:
            marker = None
    faults.fire("worker.solve", block=block.index, pid=os.getpid())
    registry = obs_metrics.get_metrics()
    baseline = registry.snapshot()
    started = time.perf_counter()
    with obs_trace.span("s-block", index=block.index, points=block.n_points):
        values, _ = _WORKER_JOB.evaluate_batch(block.s_points)
    elapsed = time.perf_counter() - started
    pairs = [(complex(s), complex(v)) for s, v in zip(block.s_points, values)]
    # Everything the master-side observability needs from this block: the
    # worker's finished spans and its metrics delta, shipped with the result
    # so crashes lose a block's telemetry only alongside the block itself.
    obs = {
        "spans": obs_trace.get_tracer().drain(),
        "metrics": registry.diff(baseline),
    }
    if marker is not None:
        with contextlib.suppress(OSError):
            os.unlink(marker)
    return block.index, pairs, elapsed, os.getpid(), _WORKER_JOB.last_report, obs


class MultiprocessingBackend:
    """Evaluate s-blocks on a pool of worker processes sharing one kernel plane.

    Parameters
    ----------
    processes:
        Number of worker processes (defaults to the machine's CPU count).
    block_size:
        Upper bound on the s-points per dispatched :class:`SBlock` when the
        caller of :meth:`evaluate` names no size.  ``None`` (default)
        delegates to :meth:`SPointPolicy.dispatch_block_points` — the same
        memory-budget computation the in-process engines block by, capped so
        every worker sees about four blocks.
    plane_store:
        Where the kernel plane files go (a :class:`~repro.smp.plane.PlaneStore`
        or a directory path) — the serve-fleet layout, workers attach by
        digest.  Default is a private temporary directory, made on the first
        export and removed by :meth:`close` (or when the backend is
        collected).
    max_retries:
        How many times a broken pool is rebuilt and the unfinished blocks
        resubmitted before giving up.  Completed blocks are never recomputed
        (``on_block`` has already seen them).
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        block_size: int | None = None,
        plane_store: PlaneStore | str | None = None,
        max_retries: int = 2,
    ):
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes or os.cpu_count() or 1
        if block_size is not None and block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        if isinstance(plane_store, (str, os.PathLike)):
            plane_store = PlaneStore(plane_store)
        self.plane_store = plane_store
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.last_wall_clock: float | None = None
        #: per-worker {"blocks", "busy_seconds", "points"} of the last evaluate
        self.last_worker_stats: dict[str, dict] | None = None
        #: {"retries": {block: n}, "suspected": {block: n}} of the last evaluate
        self.last_retry_stats: dict[str, dict] | None = None
        self._private_planes_lock = threading.Lock()
        self._remove_private_planes = None

    # --------------------------------------------------------------- plumbing
    def _plane_handle(self, job: TransformJob, include_factored: bool) -> PlaneHandle:
        evaluator = job.evaluator
        with obs_trace.span(
            "plane-export",
            digest=kernel_content_digest(job.kernel),
            factored=include_factored,
        ):
            if include_factored:
                evaluator.factored().prewarm()
                evaluator.factored().col_structure()
            with self._private_planes_lock:
                if self.plane_store is None:
                    directory = tempfile.mkdtemp(prefix=f"repro-planes-{os.getpid()}-")
                    self.plane_store = PlaneStore(directory)
                    self._remove_private_planes = weakref.finalize(
                        self, shutil.rmtree, directory, ignore_errors=True
                    )
                store = self.plane_store
            return store.export(evaluator, include_factored=include_factored)

    def close(self) -> None:
        """Remove the private plane directory, if this backend made one."""
        with self._private_planes_lock:
            if self._remove_private_planes is not None:
                self._remove_private_planes()
                self.plane_store = self._remove_private_planes = None

    # -------------------------------------------------------------------- API
    def block_points(self, job: TransformJob, n_points: int) -> int:
        policy = job.policy or SPointPolicy()
        size = policy.dispatch_block_points(
            job.evaluator, n_points, min(self.processes, n_points),
            vector=job.kind() == "transient",
        )
        return size if self.block_size is None else min(self.block_size, size)

    def evaluate(
        self, job: TransformJob, s_points, *, block_points=None, on_block=None
    ) -> dict[complex, complex]:
        """Evaluate ``s_points``, dispatching s-blocks to the worker pool.

        ``on_block(values)`` runs in the calling thread once per completed
        block, in completion order — this is where the caller checkpoints,
        reports progress or cancels.  When it raises, blocks not yet started
        are cancelled, running ones finish and are discarded, and the
        exception propagates.
        """
        s_list = [complex(s) for s in np.asarray(list(s_points), dtype=complex)]
        if not s_list:
            return {}
        start = time.perf_counter()
        workers = min(self.processes, len(s_list))
        policy = job.policy or SPointPolicy()
        block_size = block_points or self.block_points(job, len(s_list))
        include_factored = (
            policy.resolve_engine(job.evaluator) == "factored"
            and job.solver != "direct"
        )
        handle = self._plane_handle(job, include_factored)
        spec = JobSpec.from_job(job)

        queue = SBlockQueue.from_points(s_list, block_size)
        reports: list[tuple[int, str, dict | None]] = []
        attempts = 0
        #: block index -> consecutive pool breaks it was implicated in
        suspects: dict[int, int] = {}
        watch_state = {"longest": 0.0}
        incident_dir = tempfile.mkdtemp(prefix="repro-incident-")
        try:
            while queue.n_pending:
                outstanding = queue.outstanding()
                pending_before = queue.n_pending
                pool = futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(outstanding)),
                    initializer=_block_worker_init,
                    initargs=(
                        spec, handle, obs_trace.get_tracer().enabled, incident_dir
                    ),
                )
                try:
                    # A worker whose initializer fails can break the pool
                    # while blocks are still being queued, and submit raises
                    # from then on: what was queued drains as a crash below.
                    by_future = {}
                    with contextlib.suppress(futures.process.BrokenProcessPool):
                        for block in outstanding:
                            by_future[pool.submit(_block_worker_run, block)] = block
                    procs = dict(pool._processes or {})
                    reason, hung = self._drain(
                        by_future, queue, on_block, reports,
                        policy=policy, pool=pool, watch_state=watch_state,
                    )
                finally:
                    # On a clean drain nothing is left to cancel; when
                    # on_block (or a worker) raised, the blocks still queued
                    # must not be solved just to be thrown away.
                    pool.shutdown(wait=True, cancel_futures=True)
                # All workers are joined once the pool is shut down, so exit
                # codes are final: the worker that *caused* the break died on
                # its own (positive code, or SIGKILL e.g. the OOM killer),
                # while innocent bystanders were SIGTERMed during teardown.
                exitcodes = {
                    proc.pid: proc.exitcode for proc in procs.values()
                }
                if reason is None:
                    continue
                blamed = (
                    hung
                    if hung
                    else self._implicated_blocks(incident_dir, queue, exitcodes)
                )
                for index in blamed:
                    suspects[index] = suspects.get(index, 0) + 1
                # Forward progress (any block completed since the last break)
                # buys back the full retry budget — only a pool that dies
                # over and over without finishing *anything* exhausts it.
                attempts = 1 if queue.n_pending < pending_before else attempts + 1
                queue.note_retry(block.index for block in queue.outstanding())
                obs_metrics.note_block_retry(reason, queue.n_pending)
                # A block implicated in poison_after consecutive breaks is a
                # deterministic crasher: fail fast with a reproducible report
                # instead of burning pool rebuilds on it.  Checked before the
                # retry budget so the structured error wins the race.
                for index, block in sorted(queue.pending.items()):
                    if suspects.get(index, 0) >= policy.poison_after:
                        raise PoisonBlockError(
                            index, block.s_points, suspects[index], reason
                        )
                if attempts > self.max_retries:
                    raise futures.process.BrokenProcessPool(
                        f"worker pool died {attempts} time(s) without progress "
                        f"(last reason: {reason}); "
                        f"{queue.n_pending} block(s) unfinished"
                    )
        finally:
            shutil.rmtree(incident_dir, ignore_errors=True)
        self.last_retry_stats = {
            "retries": dict(queue.retries),
            "suspected": dict(suspects),
        }
        self._finalise_report(job, queue, reports)
        self.last_wall_clock = time.perf_counter() - start
        self._note_busy_fractions(self.last_wall_clock)
        return dict(queue.results)

    @staticmethod
    def _implicated_blocks(
        incident_dir: str, queue: SBlockQueue, exitcodes: dict[int, int | None]
    ) -> set[int]:
        """Which still-pending blocks killed their worker when the pool broke.

        Workers drop ``started.{block}.{pid}`` markers before solving and
        remove them after, so a leftover marker names a block that was in
        flight on a dead worker.  Only the worker whose death *broke* the
        pool is blamed — it exited on its own (positive code, or SIGKILL,
        e.g. the OOM killer); every other in-flight worker was SIGTERMed
        (-15) by pool teardown and its block is an innocent bystander.  All
        markers are consumed per scan so the next break starts clean.
        """
        teardown = -int(signal.SIGTERM)
        pending = set(queue.pending)
        blamed: set[int] = set()
        try:
            names = os.listdir(incident_dir)
        except OSError:
            return blamed
        for name in names:
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == "started":
                with contextlib.suppress(ValueError):
                    index, pid = int(parts[1]), int(parts[2])
                    code = exitcodes.get(pid)
                    if (
                        index in pending
                        and code is not None
                        and code not in (0, teardown)
                    ):
                        blamed.add(index)
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(incident_dir, name))
        return blamed

    def _drain(
        self,
        by_future,
        queue,
        on_block,
        reports,
        *,
        policy: SPointPolicy,
        pool,
        watch_state: dict,
    ) -> tuple[str | None, set[int]]:
        """Process completions until the pool drains.

        Returns ``(reason, hung_blocks)``: reason is ``None`` on a clean
        drain, ``"crashed"`` when the pool broke on its own, ``"hung"`` when
        the watchdog killed it.  Results that finished before a break are
        kept (``on_block`` has seen them), so a retry only re-runs the
        genuinely unfinished blocks.  Each completed block is recorded exactly
        once here — telemetry (global per-worker counters, queue-depth gauge,
        worker spans and metric deltas) rides the same path as the results,
        so a pool rebuild neither loses nor double-counts it.

        The watchdog: a worker that stops making progress (deadlocked solve,
        injected hang) never completes its future, so the pool would wait
        forever.  Every poll tick the master compares each running block's
        age against ``max(watchdog_floor_seconds, watchdog_multiplier x
        longest completed block so far)``; a block past the deadline gets its
        whole pool terminated and is retried/suspected like a crash.
        """
        registry = obs_metrics.get_metrics()
        depth_gauge = registry.gauge(
            "repro_sblocks_pending", "s-blocks not yet completed"
        )
        depth_gauge.set(queue.n_pending)
        broken = False
        hung: set[int] = set()
        not_done = set(by_future)
        started_at: dict = {}
        mult, floor = policy.watchdog_multiplier, policy.watchdog_floor_seconds
        watchdog_on = mult > 0
        poll = min(1.0, max(0.05, floor / 20.0)) if watchdog_on else None
        while not_done:
            done, not_done = futures.wait(
                not_done, timeout=poll, return_when=futures.FIRST_COMPLETED
            )
            now = time.monotonic()
            for future in done:
                block = by_future[future]
                started_at.pop(future, None)
                error = future.exception()
                if error is not None:
                    if isinstance(error, futures.process.BrokenProcessPool):
                        broken = True
                        continue
                    raise error
                index, pairs, elapsed, pid, report, obs = future.result()
                watch_state["longest"] = max(watch_state["longest"], elapsed)
                values = {s: v for s, v in pairs}
                queue.complete(block, values, worker=pid, duration=elapsed)
                reports.append((index, str(pid), report))
                obs_trace.get_tracer().absorb(obs.get("spans"))
                registry.absorb(obs.get("metrics"))
                obs_metrics.record_worker_block(
                    pid, block.n_points, elapsed, registry=registry
                )
                depth_gauge.set(queue.n_pending)
                if on_block is not None:
                    on_block(values)
            if watchdog_on and not broken and not_done:
                for future in not_done:
                    if future not in started_at and future.running():
                        started_at[future] = now
                deadline = max(floor, mult * watch_state["longest"])
                expired = [
                    future for future, t0 in started_at.items()
                    if future in not_done and now - t0 > deadline
                ]
                if expired:
                    hung.update(by_future[future].index for future in expired)
                    logger.warning(
                        "watchdog: block(s) %s still running after %.1fs "
                        "deadline; terminating worker pool",
                        sorted(hung), deadline,
                    )
                    for proc in list((pool._processes or {}).values()):
                        with contextlib.suppress(Exception):
                            proc.terminate()
                    broken = True
        if hung:
            return "hung", hung
        return ("crashed", set()) if broken else (None, set())

    def _note_busy_fractions(self, wall_clock: float) -> None:
        """Per-worker busy fraction of the evaluate that just finished."""
        if not wall_clock or not self.last_worker_stats:
            return
        gauge = obs_metrics.get_metrics().gauge(
            "repro_worker_busy_fraction",
            "busy seconds / wall-clock of the last pool evaluate",
            ("worker",),
        )
        for worker, entry in self.last_worker_stats.items():
            gauge.set(
                min(entry["busy_seconds"] / wall_clock, 1.0), worker=str(worker)
            )

    def _finalise_report(self, job, queue: SBlockQueue, reports) -> None:
        """Aggregate the workers' engine reports onto the master-side job."""
        blocks: list[dict] = []
        engine = None
        for index, pid, report in sorted(reports, key=lambda r: r[0]):
            if not report:
                continue
            engine = report.get("engine", engine)
            for entry in report.get("blocks", []):
                entry = dict(entry)
                entry["worker"] = pid
                blocks.append(entry)
        self.last_worker_stats = queue.worker_stats()
        job.last_report = {
            "engine": engine,
            "blocks": blocks,
            "workers": self.last_worker_stats,
        }