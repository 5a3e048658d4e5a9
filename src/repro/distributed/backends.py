"""Executors: the only code that calls ``TransformJob.evaluate_batch``.

An executor takes a :class:`~repro.core.jobs.TransformJob` and a list of
s-points, solves them as s-blocks and returns ``{s: L(s)}``; the caller's
``on_block(values)`` sees every block as it completes.  It knows nothing of
caches, checkpoints, tickets or progress — those live in the one loop that
drives it, :meth:`repro.service.scheduler.CoalescingScheduler.evaluate`.

* :class:`SerialBackend` — the ``workers=0`` case: blocks solved one after
  the other in the calling process (one block unless the caller sizes them),
* :class:`MultiprocessingBackend` — a pool of worker *processes* sharing one
  kernel image, and the paper's hand-out: slaves are assigned the model once
  and then pull s-values until the analysis is done.  The pool belongs to the
  backend, not to a call.  The first ``evaluate`` forks ``processes``
  job-agnostic workers; every later one — the next query, each block of a
  job, each bisection probe of a quantile, a caller on another thread —
  submits to the same workers, so a backend never runs more than
  ``processes`` busy processes.  The master exports the kernel plane once (a
  CRC-checked file in a :class:`~repro.smp.plane.PlaneStore`) and every task
  message carries one :class:`~repro.distributed.queue.SBlock` plus the
  few-hundred-byte :class:`~repro.core.jobs.JobSpec` and plane path that say
  what it is a block *of*; a worker attaches a plane the first time it is
  named (one CRC pass per worker and file) and builds a job the first time
  its measure digest is (one kernel-digest check per worker and measure),
  keeps both, and from then on goes from message to ``evaluate_batch``.

  What ends a pool: a worker that dies (a crash, the OOM killer), a block
  the watchdog gives up on, a worker that cannot attach its plane — each
  breaks the whole pool, which is then shut down, its exit codes and
  started-markers read for blame, and replaced by the next submit — or
  ``close()``, which reaps the workers and removes the private plane
  directory; a later ``evaluate`` starts again from nothing.  Who closes it
  is who made it: :class:`~repro.service.AnalysisService` its own,
  an api engine the one it built (``with MultiprocessingEngine(workers=8) as
  engine:``; ``query.run(engine="multiprocessing")`` around the one run),
  and a ``weakref.finalize`` whatever nobody did.  Workers restore the
  default SIGTERM, ignore SIGINT and ask the kernel to be killed with their
  master, so neither a server's signal handlers nor its violent death
  leave a worker behind.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Protocol

import numpy as np

from .. import faults
from ..core.jobs import JobSpec, TransformJob
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..smp.kernel import kernel_content_digest
from ..smp.passage import SPointPolicy
from ..smp.plane import AttachedPlane, PlaneHandle, PlaneStore
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
    """Solve the blocks one after the other in the calling process."""

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
            values = job.evaluate_batch(np.asarray(block, dtype=complex))
            reports.append(job.last_report)
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
# Multiprocessing backend, worker side.  The paper's slaves are assigned the
# model once and then pull s-values until the analysis is done.  A worker here
# is forked knowing nothing; it learns of a model from the first block that
# names it and keeps what it attached and built for the blocks that follow —
# of this call, of the next job, of a quantile probe, of another caller.
# ---------------------------------------------------------------------------

#: Planes a worker keeps mapped.  The mapping itself is page cache shared by
#: every process; what a plane costs its worker is the caches its evaluator
#: grows — the block-diagonal image and U(s) grids of the widest block solved
#: on it, which the block solve sizes to ``BLOCKDIAG_MAX_BYTES`` of state.
#: Two (the model being solved and the one before it, so a server that
#: alternates between two models re-attaches neither) holds a worker to twice
#: the peak of a worker that lived for one call.
_RESIDENT_PLANES = 2
#: Built jobs a worker keeps per plane.  A job is its dense source weighting,
#: 8 B x n_states: eight of them are 64 MiB — one ``BLOCKDIAG_MAX_BYTES`` —
#: at a million states.  Every bisection probe of a quantile is the same job,
#: so eight covers the measures a few concurrent queries interleave; a bound
#: there must be, because a server is asked about new measures for ever.
_RESIDENT_JOBS = 8

_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


@dataclass(frozen=True)
class _BlockTask:
    """One task message: a block, and all a job-agnostic worker needs to solve it.

    The spec and the handle are a few hundred bytes whatever the kernel's
    size, so they ride with every block instead of behind an addressing
    scheme; ``digest`` (the measure's :meth:`TransformJob.digest`) is the name
    under which a worker that has already built the job finds it again.
    """

    digest: str
    spec: JobSpec
    handle: PlaneHandle
    block: SBlock
    #: the call's directory of started-markers (the blame trail of a break)
    incident_dir: str
    #: whether the calling process is tracing
    trace: bool
    #: the fault plan in force in the calling process (:func:`faults.active_spec`)
    faults: str | None


class _Resident(NamedTuple):
    """What a worker keeps of one plane file."""

    #: (st_ino, st_mtime_ns, st_size) of the file when it was attached
    identity: tuple
    plane: AttachedPlane
    #: measure digest -> built job, least recently used first
    jobs: OrderedDict


#: pid of this worker's parent, as the worker found it when it started
_MASTER_PID: int | None = None
#: plane path -> what is resident of it, least recently used first
_RESIDENT: "OrderedDict[str, _Resident]" = OrderedDict()


def _block_worker_init() -> None:  # pragma: no cover - subprocess
    global _MASTER_PID
    _MASTER_PID = os.getppid()
    # The master decides when a worker dies.  A handler it installed before
    # the fork (``semimarkov serve`` drains on SIGTERM and SIGINT) would turn
    # the watchdog's and the teardown's SIGTERM into a log line, and a Ctrl-C
    # on the server's terminal into a drain in every worker.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # ... and none outlives it: a resident worker orphaned by SIGKILL or the
    # OOM killer would hold its planes mapped for ever.  The kernel delivers
    # the signal when the *thread* that forked this process ends — the reason
    # `_WorkerPool` forks from a thread of its own; without prctl the
    # getppid() check in `_block_worker_run` is the floor.
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError, AttributeError):
            prctl = ctypes.CDLL(None, use_errno=True).prctl
            prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            prctl.restype = ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)
    if os.getppid() != _MASTER_PID:
        os._exit(0)  # orphaned before the prctl took effect
    # the master's spans, metric values and installed fault plan, as copied
    # by the fork: each block's task says what applies to it
    obs_trace.get_tracer().clear()
    obs_metrics.get_metrics().reset()
    faults.clear()


def _resident_job(task: _BlockTask, registry) -> TransformJob:  # pragma: no cover - subprocess
    """The task's job on the task's plane, from residency where it can be.

    The plane's CRC pass runs once per (worker, plane file) and the kernel
    digest check of ``spec.build`` once per (worker, measure): never skipped,
    never repeated for a later block.
    """
    residency = registry.counter(
        "repro_worker_residency_total",
        "blocks that found their plane / job already resident in the worker",
        ("kind", "outcome"),
    )
    path = task.handle.path
    found = os.stat(path)
    # A quarantined and re-exported plane is a new file under the old name;
    # the mapping a worker holds of the old one must not serve another block.
    identity = (found.st_ino, found.st_mtime_ns, found.st_size)
    held = _RESIDENT.get(path)
    if held is not None and held.identity != identity:
        _RESIDENT.pop(path).plane.close()
        held = None
    residency.inc(1, kind="plane", outcome="miss" if held is None else "hit")
    if held is None:
        held = _RESIDENT[path] = _Resident(
            identity, task.handle.attach(), OrderedDict()
        )
        while len(_RESIDENT) > _RESIDENT_PLANES:
            _RESIDENT.popitem(last=False)[1].plane.close()
    _RESIDENT.move_to_end(path)
    job = held.jobs.get(task.digest)
    residency.inc(1, kind="job", outcome="miss" if job is None else "hit")
    if job is None:
        job = held.jobs[task.digest] = task.spec.build(held.plane.evaluator)
        while len(held.jobs) > _RESIDENT_JOBS:
            held.jobs.popitem(last=False)
    held.jobs.move_to_end(task.digest)
    return job


def _block_worker_run(task: _BlockTask):  # pragma: no cover - subprocess
    if os.getppid() != _MASTER_PID:
        os._exit(0)  # the master is gone and so is whoever wanted this block
    block, pid = task.block, os.getpid()
    # Drop a started-marker before anything else and remove it after: the
    # master's watchdog times a block from its marker, and when the pool
    # breaks the leftover markers say which block(s) were in flight on the
    # dead (or hung, and then terminated) worker — the worker cannot report
    # its own crash, so the blame trail must be on disk.
    marker = os.path.join(task.incident_dir, f"started.{block.index}.{pid}")
    try:
        with open(marker, "w"):
            pass
    except OSError:
        marker = None
    faults.adopt(task.faults)
    tracer = obs_trace.get_tracer()
    if task.trace:
        tracer.enable()
    else:
        tracer.disable()
    registry = obs_metrics.get_metrics()
    baseline = registry.snapshot()
    try:
        job = _resident_job(task, registry)
    except Exception:
        # A worker that cannot reach the model is of no use to any block.  It
        # dies, which breaks the pool like any crash, and says on the blame
        # trail that the block it was handed had nothing to do with it.
        logger.critical("worker %d cannot attach %s", pid, task.handle.path,
                        exc_info=True)
        with contextlib.suppress(OSError):
            unattached = os.path.join(task.incident_dir, f"unattached.{pid}")
            if marker is None:
                open(unattached, "w").close()
            else:
                os.replace(marker, unattached)
        os._exit(1)
    faults.fire("worker.solve", block=block.index, pid=pid, measure=task.digest)
    started = time.perf_counter()
    with obs_trace.span("s-block", index=block.index, points=block.n_points):
        values = job.evaluate_batch(block.s_points)
    elapsed = time.perf_counter() - started
    pairs = [(complex(s), complex(v)) for s, v in zip(block.s_points, values)]
    # Everything the master-side observability needs from this block: the
    # worker's finished spans and its metrics delta, shipped with the result
    # so crashes lose a block's telemetry only alongside the block itself.
    obs = {"spans": tracer.drain(), "metrics": registry.diff(baseline)}
    if marker is not None:
        with contextlib.suppress(OSError):
            os.unlink(marker)
    return block.index, pairs, elapsed, pid, job.last_report, obs


# ---------------------------------------------------------------------------
# Multiprocessing backend, master side.
# ---------------------------------------------------------------------------


class _WorkerPool:
    """One generation of resident workers, from fork to reaped.

    After :meth:`shutdown` — which the backend runs once, under its lock —
    the object is the record of how the generation ended: the workers' exit
    codes, why it broke, and which calls' blocks the evidence points at.
    """

    def __init__(self, processes: int):
        self._retired = threading.Event()
        forked: futures.Future = futures.Future()
        threading.Thread(
            target=self._keep, args=(processes, forked),
            name="repro-pool-keeper", daemon=True,
        ).start()
        self.executor: futures.ProcessPoolExecutor = forked.result()
        self.processes = dict(self.executor._processes)
        self.exitcodes: dict[int, int | None] = {}
        #: how it broke, once it has: "crashed" | "hung" | "attach"
        self.reason = "crashed"
        #: call -> blocks of it the break is blamed on (none for a worker
        #: that could not attach): whose break it was.  Empty when no marker
        #: and no watchdog explains it.
        self.culprits: dict[_Call, set[int]] = {}

    def _keep(self, processes: int, forked: futures.Future) -> None:
        """Fork every worker from this thread and stay for as long as they do:
        their parent-death signal follows the forking thread, not the process,
        and the thread that happens to submit first may be a request handler
        that ends with its request."""
        executor = futures.ProcessPoolExecutor(
            max_workers=processes, initializer=_block_worker_init
        )
        try:
            executor.submit(os.getpid).result()  # the first submit forks them all
        except BaseException as exc:
            executor.shutdown(wait=False, cancel_futures=True)
            forked.set_exception(exc)
            return
        forked.set_result(executor)
        self._retired.wait()

    def terminate(self) -> None:
        for proc in self.processes.values():
            with contextlib.suppress(Exception):
                proc.terminate()

    def shutdown(self) -> None:
        """Cancel what has not started, join every worker, keep the exit codes."""
        self.executor.shutdown(wait=True, cancel_futures=True)
        self._retired.set()
        self.exitcodes = {pid: proc.exitcode for pid, proc in self.processes.items()}


@dataclass(eq=False)
class _Call:
    """The state of one :meth:`MultiprocessingBackend.evaluate` in flight."""

    queue: SBlockQueue
    #: this call's started-markers; see `_block_worker_run`
    incident_dir: str
    #: (block index, worker pid, engine report) per completed block
    reports: list = field(default_factory=list)
    #: block index -> consecutive pool breaks it was implicated in
    suspects: dict[int, int] = field(default_factory=dict)
    #: consecutive breaks charged to this call without a block completing
    attempts: int = 0
    #: longest completed block so far, the watchdog's yardstick
    longest: float = 0.0


class MultiprocessingBackend:
    """Evaluate s-blocks on a resident pool of worker processes.

    The backend owns at most one pool of ``processes`` workers.  The first
    :meth:`evaluate` forks it; every later one — sync query, job, quantile
    probe, a concurrent caller on another thread — shares it, so ``N``
    workers stay ``N`` busy processes however many calls are in flight.
    Workers keep the planes they attached and the jobs they built
    (``_RESIDENT_PLANES``, ``_RESIDENT_JOBS``), so a warm worker goes from
    task message to ``evaluate_batch`` with nothing to attach, verify or
    rebuild.  A pool is replaced only when it breaks (worker crash, watchdog
    kill, failed attach) — by the next submit, once, whichever call gets
    there first — and shut down by :meth:`close`.

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
        How many consecutive pool breaks without a completed block a call
        sits through before giving up.  Completed blocks are never recomputed
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
        # What the last evaluate to finish left; a call's own copy is on its
        # job's ``last_report``, which concurrent calls do not share.
        #: per-worker {"blocks", "busy_seconds", "points"}
        self.last_worker_stats: dict[str, dict] | None = None
        #: {"retries": {block: n}, "suspected": {block: n}}
        self.last_retry_stats: dict[str, dict] | None = None
        # One lock for everything with a lifetime: the pool and its
        # generation count, the calls in flight, the private plane directory.
        self._lock = threading.Lock()
        self._pool: _WorkerPool | None = None
        self._shutdown_pool = None
        self._generation = 0
        #: why the next spawn happens: "first", or how the last pool broke
        self._spawn_reason = "first"
        self._spawns: dict[str, int] = {}
        self._calls: set[_Call] = set()
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
            with self._lock:
                if self.plane_store is None:
                    directory = tempfile.mkdtemp(prefix=f"repro-planes-{os.getpid()}-")
                    self.plane_store = PlaneStore(directory)
                    self._remove_private_planes = weakref.finalize(
                        self, shutil.rmtree, directory, ignore_errors=True
                    )
                store = self.plane_store
            return store.export(evaluator, include_factored=include_factored)

    def _live_pool(self) -> _WorkerPool:
        """The pool to submit to, forked here if there is none."""
        with self._lock:
            if self._pool is None:
                reason = self._spawn_reason
                with obs_trace.span(
                    "pool-spawn", reason=reason, processes=self.processes,
                    generation=self._generation + 1,
                ):
                    self._pool = _WorkerPool(self.processes)
                # the safety net the plane directory has: a backend nobody
                # closed still reaps its workers when it is collected
                self._shutdown_pool = weakref.finalize(self, self._pool.shutdown)
                self._generation += 1
                self._spawns[reason] = self._spawns.get(reason, 0) + 1
                obs_metrics.note_pool_spawn(reason)
            return self._pool

    def _retire(self, pool: _WorkerPool) -> None:
        """Shut a broken pool down and read how it ended — once.

        Of the calls that saw one break, the first to get here does the work
        and the others find it done; all of them then resubmit to the one
        successor that the next :meth:`_live_pool` forks.  Shutting down
        joins every worker, so exit codes are final: the worker that *caused*
        the break died on its own (positive code, or SIGKILL, e.g. the OOM
        killer), while bystanders were SIGTERMed by the teardown.  Every
        marker in every in-flight call's directory is from this pool (no call
        resubmits before it has been here), so all are read and consumed.
        """
        with self._lock:
            if self._pool is not pool:
                return
            self._shutdown_pool()
            self._pool = None
            teardown = (0, -int(signal.SIGTERM))
            died = {
                pid for pid, code in pool.exitcodes.items() if code not in teardown
            }
            for call in self._calls:
                blocks, unattached = _read_markers(call.incident_dir, died)
                if blocks or unattached:
                    pool.culprits.setdefault(call, set()).update(blocks)
                if unattached and pool.reason == "crashed":
                    pool.reason = "attach"
            self._spawn_reason = pool.reason

    def close(self) -> None:
        """Shut the pool down, reap its workers and remove the private plane
        directory, if this backend made one.  Idempotent; a later
        :meth:`evaluate` starts again from nothing."""
        with self._lock:
            if self._pool is not None:
                self._shutdown_pool()
                self._pool = None
            self._spawn_reason = "first"
            if self._remove_private_planes is not None:
                self._remove_private_planes()
                self.plane_store = self._remove_private_planes = None

    def pool_stats(self) -> dict:
        """The pool's life so far: ``/v1/stats`` serves this as ``pool``."""
        with self._lock:
            return {
                "generation": self._generation,
                "workers": sorted(self._pool.processes) if self._pool else [],
                "spawns": dict(self._spawns),
            }

    # -------------------------------------------------------------------- API
    def block_points(self, job: TransformJob, n_points: int) -> int:
        policy = job.policy or SPointPolicy()
        size = policy.dispatch_block_points(
            job.evaluator, n_points, min(self.processes, n_points)
        )
        return size if self.block_size is None else min(self.block_size, size)

    def evaluate(
        self, job: TransformJob, s_points, *, block_points=None, on_block=None
    ) -> dict[complex, complex]:
        """Evaluate ``s_points``, dispatching s-blocks to the worker pool.

        ``on_block(values)`` runs in the calling thread once per completed
        block, in completion order — this is where the caller checkpoints,
        reports progress or cancels.  When it raises, this call's blocks not
        yet started are cancelled, its running ones finish and are discarded,
        the exception propagates and the pool serves the next call.

        A break is charged against ``max_retries`` to the calls the evidence
        points at — the call whose watchdog fired, the calls in whose marker
        directory a worker that died on its own left a marker — and to every
        call that saw it when nothing explains it, as it would be to a call
        alone.  A call that finds the evidence in another's directory
        resubmits its unfinished blocks for free and blames none of them.
        """
        s_list = [complex(s) for s in np.asarray(list(s_points), dtype=complex)]
        if not s_list:
            return {}
        start = time.perf_counter()
        policy = job.policy or SPointPolicy()
        block_size = block_points or self.block_points(job, len(s_list))
        include_factored = (
            policy.resolve_engine(job.evaluator) == "factored"
            and job.solver != "direct"
        )
        message = functools.partial(
            _BlockTask, job.digest(), JobSpec.from_job(job),
            self._plane_handle(job, include_factored),
            trace=obs_trace.get_tracer().enabled, faults=faults.active_spec(),
        )
        call = _Call(
            SBlockQueue.from_points(s_list, block_size),
            tempfile.mkdtemp(prefix="repro-incident-"),
        )
        queue = call.queue
        with self._lock:
            self._calls.add(call)
        try:
            while queue.n_pending:
                pending_before = queue.n_pending
                pool = self._live_pool()
                # A pool that broke while nobody was looking (a worker killed
                # between two calls) refuses the first submit, one that breaks
                # now a later one: what was queued drains as a crash below.
                by_future = {}
                with contextlib.suppress(futures.process.BrokenProcessPool):
                    for block in queue.outstanding():
                        by_future[pool.executor.submit(
                            _block_worker_run,
                            message(block=block, incident_dir=call.incident_dir),
                        )] = block
                hung = self._drain(by_future, call, on_block, policy, pool)
                if not queue.n_pending:
                    break
                self._retire(pool)
                reason = pool.reason
                blamed = hung or pool.culprits.get(call, set()) & set(queue.pending)
                for index in blamed:
                    call.suspects[index] = call.suspects.get(index, 0) + 1
                # Forward progress (any block completed since the last break)
                # buys back the full retry budget — only a pool that dies
                # over and over without finishing *anything* exhausts it.
                if queue.n_pending < pending_before:
                    call.attempts = 0
                if call in pool.culprits or not pool.culprits:
                    call.attempts += 1
                queue.note_retry(queue.pending)
                obs_metrics.note_block_retry(reason, queue.n_pending)
                # A block implicated in poison_after consecutive breaks is a
                # deterministic crasher: fail fast with a reproducible report
                # instead of burning pool rebuilds on it.  Checked before the
                # retry budget so the structured error wins the race.
                for index, block in sorted(queue.pending.items()):
                    if call.suspects.get(index, 0) >= policy.poison_after:
                        raise PoisonBlockError(
                            index, block.s_points, call.suspects[index], reason
                        )
                if call.attempts > self.max_retries:
                    raise futures.process.BrokenProcessPool(
                        f"worker pool died {call.attempts} time(s) without "
                        f"progress (last reason: {reason}); "
                        f"{queue.n_pending} block(s) unfinished"
                    )
        finally:
            with self._lock:
                self._calls.discard(call)
            shutil.rmtree(call.incident_dir, ignore_errors=True)
        return self._finish(job, call, time.perf_counter() - start)

    def _drain(
        self, by_future: dict, call: _Call, on_block, policy: SPointPolicy,
        pool: _WorkerPool,
    ) -> set[int]:
        """Process this call's completions until none of its futures is left.

        Returns the blocks its watchdog gave up on (empty: none).  Blocks a
        broken pool never finished simply stay pending on the call's queue;
        results that finished before a break are kept (``on_block`` has seen
        them), so a retry only re-runs the genuinely unfinished blocks.  Each
        completed block is recorded exactly once here — telemetry (global
        per-worker counters, queue-depth gauge, worker spans and metric
        deltas) rides the same path as the results, so a pool rebuild neither
        loses nor double-counts it.

        The watchdog: a worker that stops making progress (deadlocked solve,
        injected hang) never completes its future, so the call would wait
        forever.  Every poll tick the master compares the age of each block a
        worker has *begun* — its started-marker says so; a future counts as
        running from the moment it is queued behind other callers' blocks —
        against ``max(watchdog_floor_seconds, watchdog_multiplier x longest
        completed block so far)``; a block past the deadline gets the whole
        pool terminated and is retried/suspected like a crash.
        """
        registry = obs_metrics.get_metrics()
        depth_gauge = registry.gauge(
            "repro_sblocks_pending", "s-blocks not yet completed"
        )
        queue = call.queue
        depth_gauge.set(queue.n_pending)
        broken = False
        hung: set[int] = set()
        not_done = set(by_future)
        started_at: dict[int, float] = {}
        mult, floor = policy.watchdog_multiplier, policy.watchdog_floor_seconds
        watchdog_on = mult > 0
        poll = min(1.0, max(0.05, floor / 20.0)) if watchdog_on else None
        try:
            while not_done:
                done, not_done = futures.wait(
                    not_done, timeout=poll, return_when=futures.FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in done:
                    block = by_future[future]
                    started_at.pop(block.index, None)
                    if future.cancelled():  # close() took the pool away
                        broken = True
                        continue
                    error = future.exception()
                    if error is not None:
                        if isinstance(error, futures.process.BrokenProcessPool):
                            broken = True
                            continue
                        raise error
                    index, pairs, elapsed, pid, report, obs = future.result()
                    call.longest = max(call.longest, elapsed)
                    values = {s: v for s, v in pairs}
                    queue.complete(block, values, worker=pid, duration=elapsed)
                    call.reports.append((index, str(pid), report))
                    obs_trace.get_tracer().absorb(obs.get("spans"))
                    registry.absorb(obs.get("metrics"))
                    obs_metrics.record_worker_block(
                        pid, block.n_points, elapsed, registry=registry
                    )
                    depth_gauge.set(queue.n_pending)
                    if on_block is not None:
                        on_block(values)
                if watchdog_on and not broken and not_done:
                    for index in _started_blocks(call.incident_dir):
                        started_at.setdefault(index, now)
                    deadline = max(floor, mult * call.longest)
                    hung = {
                        index for index, t0 in started_at.items()
                        if index in queue.pending and now - t0 > deadline
                    }
                    if hung:
                        logger.warning(
                            "watchdog: block(s) %s still running after %.1fs "
                            "deadline; terminating worker pool",
                            sorted(hung), deadline,
                        )
                        pool.reason = "hung"
                        pool.culprits[call] = set(hung)
                        pool.terminate()
                        broken = True
        except BaseException:
            # on_block (a cancelled or drained job) or a block raised.  The
            # blocks still queued must not be solved just to be thrown away;
            # the running ones finish — a worker has no other way to stop —
            # and the pool is as good as before for the next call.
            for future in not_done:
                future.cancel()
            futures.wait(not_done)
            raise
        return hung

    def _finish(self, job: TransformJob, call: _Call, wall_clock: float) -> dict:
        """Aggregate the workers' engine reports and the call's statistics
        onto the master-side job; returns the call's values."""
        blocks: list[dict] = []
        engine = None
        for _, pid, report in sorted(call.reports, key=lambda r: r[0]):
            if not report:
                continue
            engine = report.get("engine", engine)
            for entry in report.get("blocks", []):
                entry = dict(entry)
                entry["worker"] = pid
                blocks.append(entry)
        workers = call.queue.worker_stats()
        retry_stats = {
            "retries": dict(call.queue.retries),
            "suspected": dict(call.suspects),
        }
        job.last_report = {
            "engine": engine, "blocks": blocks, "workers": workers,
            **retry_stats, "wall_clock": wall_clock,
        }
        self.last_worker_stats = workers
        self.last_retry_stats = retry_stats
        gauge = obs_metrics.get_metrics().gauge(
            "repro_worker_busy_fraction",
            "busy seconds / wall-clock of the last pool evaluate",
            ("worker",),
        )
        for worker, entry in workers.items():
            gauge.set(
                min(entry["busy_seconds"] / max(wall_clock, 1e-9), 1.0),
                worker=str(worker),
            )
        return dict(call.queue.results)


def _marker_names(incident_dir: str) -> list[str]:
    try:
        return os.listdir(incident_dir)
    except OSError:
        return []


def _started_blocks(incident_dir: str) -> set[int]:
    """The blocks of a call that a worker has begun and not finished."""
    return {
        int(name.split(".")[1])
        for name in _marker_names(incident_dir) if name.startswith("started.")
    }


def _read_markers(incident_dir: str, died: set[int]) -> tuple[set[int], bool]:
    """What a call's markers say about a pool break; consumes them all.

    Workers drop ``started.{block}.{pid}`` before solving and remove it
    after, and one that cannot attach its plane renames it
    ``unattached.{pid}``: a leftover marker of a worker in ``died`` — the
    pids that exited on their own — names a block that was in flight on it,
    or says that it gave up before any was.  A marker of any other pid is a
    bystander's, SIGTERMed with its block by the teardown.
    """
    blocks: set[int] = set()
    unattached = False
    for name in _marker_names(incident_dir):
        parts = name.split(".")
        with contextlib.suppress(ValueError):
            if int(parts[-1]) in died:
                if parts[0] == "started" and len(parts) == 3:
                    blocks.add(int(parts[1]))
                elif parts[0] == "unattached":
                    unattached = True
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(incident_dir, name))
    return blocks, unattached
