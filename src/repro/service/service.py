"""The analysis service: registry + coalescing scheduler + tiered cache.

:class:`AnalysisService` is the long-lived, transport-agnostic core of the
serving layer.  It owns a :class:`~repro.service.registry.ModelRegistry` (one
build per distinct spec), a :class:`~repro.service.cache.TieredResultCache`
(in-memory LRU over the on-disk checkpoint store) and a
:class:`~repro.service.scheduler.CoalescingScheduler` (each s-point evaluated
at most once across concurrent queries).  The HTTP layer in
:mod:`repro.service.server` is a thin JSON adapter over it; tests and
benchmarks may drive the service in-process.

A measure request is a JSON object and :meth:`AnalysisService.measure` its
one path: :func:`repro.api.queries.from_wire` turns the body into a query
(every field validated there, before any work — synchronous call, async
submission and job replay alike), the tenant-scoped registry turns the
query's model reference into a built entry, :func:`repro.api.measures.compute`
runs the shared recipe with this service's gather, and the result object's
``to_wire()`` is the reply.  The api layer's errors become HTTP statuses in
one place, :func:`_api_errors`.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time

import numpy as np

from .. import faults
from ..api import measures
from ..api.errors import PlanError, PredicateError
from ..api.model import Model, resolve_state_sets
from ..api.plan import QueryPlan
from ..api.queries import from_wire
from ..core.jobs import TransformJob
from ..distributed.checkpoint import CheckpointStore
from ..dnamaca.expressions import ExpressionError, parse_overrides
from ..jobs import (
    DEFAULT_TENANT,
    JobRunner,
    JobStore,
    QuotaError,
    TenancyManager,
    TenantQuotas,
    open_backend,
)
from ..obs.metrics import effective_cores, get_metrics
from ..obs.progress import ProgressBoard
from .cache import TieredResultCache
from .registry import ModelEntry, ModelRegistry
from .scheduler import CoalescingScheduler, QueryStatistics

__all__ = [
    "AnalysisService",
    "ServiceError",
    "ServiceUnavailable",
    "ValidationError",
    "ModelNotFound",
    "JobNotFound",
    "QueryError",
    "QuotaExceeded",
]


class ServiceError(Exception):
    """Base class for errors the transport layer maps to HTTP statuses."""

    status = 500

    def payload(self) -> dict:
        """The structured JSON error body the transport layer serves."""
        return {"error": str(self), "status": self.status}


class ValidationError(ServiceError):
    """Malformed request payload (missing fields, wrong types)."""

    status = 400


class ModelNotFound(ServiceError):
    """Query referenced a model digest the registry does not hold."""

    status = 404


class JobNotFound(ServiceError):
    """Job id unknown — or owned by a different tenant (indistinguishable)."""

    status = 404


class QueryError(ServiceError):
    """Well-formed request the model cannot answer (bad predicate, ...)."""

    status = 422


class ServiceUnavailable(ServiceError):
    """The server is draining for shutdown; retry against its successor."""

    status = 503

    def __init__(self, message: str, *, retry_after: float | None = 5.0):
        super().__init__(message)
        self.retry_after = retry_after

    def payload(self) -> dict:
        out = super().payload()
        if self.retry_after is not None:
            out["retry_after_seconds"] = self.retry_after
        return out


class QuotaExceeded(ServiceError):
    """A tenant exceeded one of its budgets (rate, active jobs, models)."""

    status = 429

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        quota: str | None = None,
        limit=None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.quota = quota
        self.limit = limit
        self.retry_after = retry_after

    @classmethod
    def wrap(cls, exc: QuotaError) -> "QuotaExceeded":
        return cls(
            str(exc), tenant=exc.tenant, quota=exc.quota, limit=exc.limit,
            retry_after=exc.retry_after,
        )

    def payload(self) -> dict:
        out = super().payload()
        out["quota"] = self.quota
        out["tenant"] = self.tenant
        if self.limit is not None:
            out["limit"] = self.limit
        if self.retry_after is not None:
            out["retry_after_seconds"] = self.retry_after
        return out


@contextlib.contextmanager
def _api_errors():
    """The api layer's errors as the statuses the transport serves: a
    malformed request is a 400, a well-formed one the model cannot answer a
    422."""
    try:
        yield
    except PlanError as exc:
        raise ValidationError(str(exc)) from None
    except (PredicateError, measures.QuantileNotBracketed) as exc:
        raise QueryError(str(exc)) from None


def _package_version() -> str:
    import repro

    return getattr(repro, "__version__", "unknown")


def _build_info() -> dict:
    """Toolchain fingerprint for fleet debugging (``GET /v1/stats``)."""
    import platform

    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "effective_cores": effective_cores(),
    }


class AnalysisService:
    """Serves passage-time and transient queries over registered models."""

    def __init__(
        self,
        *,
        checkpoint_dir=None,
        cache_points: int = 500_000,
        default_max_states: int | None = None,
        workers: int = 1,
        quotas: TenantQuotas | None = None,
        job_store: str | object = "auto",
        job_block_points: int | None = None,
        job_max_attempts: int = 5,
    ):
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        self._checkpoint_store = store
        self._draining = False
        self.tenancy = TenancyManager(quotas)
        self.registry = ModelRegistry(
            default_max_states=default_max_states, tenancy=self.tenancy
        )
        self.cache = TieredResultCache(store=store, max_points=cache_points)
        self.workers = int(workers)
        backend = None
        if workers > 1:
            from ..distributed.backends import MultiprocessingBackend

            # One resident pool for the server's whole life: sync queries,
            # jobs and quantile probes share its workers.  With a checkpoint
            # directory the kernel plane files go under <checkpoint>/planes,
            # so workers — including ones started later, or sharing the
            # directory across serve processes — attach by content digest;
            # without one they go in a temporary directory private to the
            # backend, which close() removes.
            plane_store = str(store.directory / "planes") if store else None
            backend = MultiprocessingBackend(
                processes=workers, plane_store=plane_store
            )
        self.backend = backend
        self.progress_board = ProgressBoard()
        self.scheduler = CoalescingScheduler(
            self.cache, backend=backend, progress_board=self.progress_board
        )
        self._counter_lock = threading.Lock()
        self._query_counts = {"passage": 0, "transient": 0}
        self._started = time.monotonic()
        if isinstance(job_store, str) or job_store is None:
            job_backend = open_backend(job_store or "auto", checkpoint_dir=checkpoint_dir)
        else:
            job_backend = job_store  # a pre-built JobBackend instance
        self.jobs = JobStore(job_backend, max_attempts=job_max_attempts)
        self._runner = JobRunner(self, self.jobs, block_points=job_block_points)
        if self.jobs.next_queued() is not None:
            # a durable store replayed queued (or re-queued crashed) jobs;
            # resume them without waiting for the next submission
            self._runner.start()

    # ------------------------------------------------------------ models
    def register_model(
        self,
        spec: str,
        *,
        name: str | None = None,
        overrides: dict | None = None,
        max_states: int | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> dict:
        """Register (or look up) a spec; returns the JSON-ready description."""
        if not isinstance(spec, str) or not spec.strip():
            raise ValidationError("spec must be a non-empty DNAmaca specification string")
        overrides = self._checked_overrides(overrides)
        try:
            entry, created = self.registry.register(
                spec, name=name, overrides=overrides, max_states=max_states,
                tenant=tenant,
            )
        except QuotaError as exc:
            raise QuotaExceeded.wrap(exc) from None
        except ServiceError:
            raise
        except Exception as exc:
            raise QueryError(f"cannot build model: {exc}") from exc
        out = entry.describe()
        out["created"] = created
        return out

    def list_models(self, tenant: str = DEFAULT_TENANT) -> dict:
        """Models visible to this tenant (``GET /v1/models``)."""
        return {
            "models": [entry.describe() for entry in self.registry.models(tenant)],
            "tenant": tenant,
        }

    @staticmethod
    def _checked_overrides(overrides: dict | None) -> dict | None:
        """Validate a JSON overrides object via the shared dnamaca helper."""
        if overrides is None:
            return None
        if not isinstance(overrides, dict):
            raise ValidationError("overrides must be a {constant: value} object")
        try:
            return parse_overrides(overrides)
        except ExpressionError as exc:
            raise ValidationError(str(exc)) from None

    def _resolve_entry(
        self, model: Model, tenant: str = DEFAULT_TENANT
    ) -> tuple[ModelEntry, bool]:
        """The tenant's built entry for a request's model reference."""
        if model.spec_text is not None:
            try:
                return self.registry.register(
                    model.spec_text, overrides=model.overrides,
                    max_states=model.max_states, tenant=tenant,
                )
            except QuotaError as exc:
                raise QuotaExceeded.wrap(exc) from None
            except Exception as exc:
                raise QueryError(f"cannot build model: {exc}") from exc
        entry = self.registry.get(model.digest, tenant=tenant)
        if entry is None:
            raise ModelNotFound(
                f"unknown model {model.digest!r}; register it via POST /v1/models first"
            )
        return entry, False

    # ------------------------------------------------------------ queries
    def measure(
        self, kind: str, body: dict, *, tenant: str = DEFAULT_TENANT, observer=None
    ) -> dict:
        """Answer one measure request: the wire body in, the reply JSON out.

        ``observer`` is the job runner's hook on the evaluation loop (see
        :meth:`_gather`); synchronous queries pass none.
        """
        with _api_errors():
            query = from_wire(kind, body)
            entry, registered = self._resolve_entry(query.model, tenant)
            stats = QueryStatistics()
            stats.extra["model_registered"] = registered
            result = measures.compute(
                query, entry, stats,
                functools.partial(self._gather, entry, stats, observer),
            )
        self._count_query(kind, tenant)
        return result.to_wire(entry.digest)

    def passage(self, *, tenant: str = DEFAULT_TENANT, observer=None, **body) -> dict:
        """First-passage-time density (and optionally CDF / quantile); the
        keywords are the request's fields."""
        return self.measure("passage", body, tenant=tenant, observer=observer)

    def transient(self, *, tenant: str = DEFAULT_TENANT, observer=None, **body) -> dict:
        """Transient probability ``P(Z(t) in targets)`` on a t-grid; the
        keywords are the request's fields."""
        return self.measure("transient", body, tenant=tenant, observer=observer)

    # ------------------------------------------------------------ async jobs
    def admit(self, tenant: str) -> None:
        """Charge one request against the tenant's rate limit (or 429)."""
        try:
            self.tenancy.admit(tenant)
        except QuotaError as exc:
            raise QuotaExceeded.wrap(exc) from None

    def submit(self, kind: str, payload: dict, *, tenant: str = DEFAULT_TENANT) -> dict:
        """Enqueue an async query; returns the ``202``-ready job view.

        Validation happens *now* (bad payloads fail the submission, not the
        job), and the stored request carries the spec text rather than the
        digest: a durable job must be replayable on a restarted server whose
        in-memory registry is empty.
        """
        if self._draining:
            raise ServiceUnavailable(
                "server is draining for shutdown; submit to its successor"
            )
        with _api_errors():
            query = from_wire(kind, payload)
            entry, _ = self._resolve_entry(query.model, tenant)
            resolve_state_sets(entry, query.source, query.target)
        try:
            self.tenancy.check_active_jobs(tenant, self.jobs.active_count(tenant))
        except QuotaError as exc:
            raise QuotaExceeded.wrap(exc) from None
        by_spec = Model.from_spec(
            entry.spec_text, overrides=entry.overrides, max_states=entry.max_states
        )
        record = self.jobs.create(
            tenant=tenant, kind=kind, model=entry.digest,
            request=dataclasses.replace(query, model=by_spec).to_wire(),
        )
        # The view is taken before the runner may claim the job: the record
        # is live, and a fast job could otherwise be reported already done.
        view = record.view(include_result=False)
        self._runner.start()
        self._runner.wake()
        return view

    def job_view(self, job_id: str, *, tenant: str = DEFAULT_TENANT) -> dict:
        """One job's state/progress/result (``GET /v1/jobs/{id}``)."""
        record = self.jobs.get(str(job_id))
        if record is None or record.tenant != tenant:
            # another tenant's job is indistinguishable from a missing one
            raise JobNotFound(f"unknown job {job_id!r}")
        return record.view()

    def list_jobs(self, tenant: str = DEFAULT_TENANT) -> dict:
        """This tenant's jobs, newest first (``GET /v1/jobs``)."""
        return {
            "jobs": [r.view(include_result=False) for r in self.jobs.list(tenant)],
            "tenant": tenant,
        }

    def cancel_job(self, job_id: str, *, tenant: str = DEFAULT_TENANT) -> dict:
        """Cancel a job (``DELETE /v1/jobs/{id}``); terminal jobs no-op."""
        record = self.jobs.get(str(job_id))
        if record is None or record.tenant != tenant:
            raise JobNotFound(f"unknown job {job_id!r}")
        record = self.jobs.request_cancel(record.job_id)
        self._runner.wake()
        return record.view(include_result=False)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful-shutdown step 1: refuse new work, park the in-flight job.

        After this returns, new submissions get a 503 (the transport layer
        adds ``Retry-After``), the runner has pushed any in-flight job back
        to ``queued`` at an s-block boundary (its completed blocks already
        checkpointed), and every job state the clients observed is durable.
        Synchronous queries already underway run to completion.  Returns
        False if the in-flight job did not reach a block boundary in time.
        """
        self._draining = True
        return self._runner.drain(timeout)

    def close(self) -> None:
        """Release everything: runner, job store, worker pool and planes,
        lock files."""
        self._runner.stop()
        self.jobs.close()
        if self.backend is not None:
            # reaps the resident workers and removes the backend's private
            # plane directory, if it made one
            self.backend.close()
        if self._checkpoint_store is not None:
            self._checkpoint_store.release_artifacts()

    # ------------------------------------------------------------ stats
    def stats(self) -> dict:
        with self._counter_lock:
            queries = dict(self._query_counts)
        queries["total"] = sum(queries.values())
        out = {
            "uptime_seconds": time.monotonic() - self._started,
            "queries": queries,
            "workers": self.workers,
            "draining": self._draining,
            "version": _package_version(),
            "build": _build_info(),
            "registry": self.registry.stats(),
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.stats(),
            "jobs": self.jobs.stats(),
            "tenancy": self.tenancy.stats(),
        }
        if self.backend is not None:
            out["pool"] = self.backend.pool_stats()
        return out

    def progress(self, digest: str) -> dict:
        """In-flight / recently finished evaluations for one model digest."""
        return self.progress_board.view(str(digest))

    def metrics_text(self) -> str:
        """The Prometheus exposition body served at ``GET /metrics``."""
        return get_metrics().render_prometheus()

    # ------------------------------------------------------------ internals
    def _gather(
        self,
        entry: ModelEntry,
        stats: QueryStatistics,
        observer,
        job: TransformJob,
        plan: QueryPlan,
    ) -> dict[complex, complex]:
        """One plan's transform values through the scheduler.

        The canonical s-grid comes from the same :class:`QueryPlan` the api
        engines derive, so the scheduler/cache see identical points for
        identical queries whatever the entry surface.  A job's ``observer``
        is told the plan first and answers with how the job wants it
        dispatched (block size, per-block hook, progress reporter); the loop
        is the one a synchronous query takes, so async results match exactly.
        """
        faults.fire("service.gather", digest=entry.digest, kind=job.kind())
        dispatch = observer.on_plan(job, plan, entry) if observer is not None else {}
        return measures.gather(
            self.scheduler, job, plan, stats,
            eval_lock=entry.eval_lock, progress_key=entry.digest, **dispatch,
        )

    def _count_query(self, kind: str, tenant: str) -> None:
        with self._counter_lock:
            self._query_counts[kind] += 1
        get_metrics().counter(
            "repro_queries_total", "queries served by measure kind and tenant",
            ("kind", "tenant"),
        ).inc(1, kind=kind, tenant=tenant)
