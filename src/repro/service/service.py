"""The analysis service: registry + coalescing scheduler + tiered cache.

:class:`AnalysisService` is the long-lived, transport-agnostic core of the
serving layer.  It owns a :class:`~repro.service.registry.ModelRegistry` (one
build per distinct spec), a :class:`~repro.service.cache.TieredResultCache`
(in-memory LRU over the on-disk checkpoint store) and a
:class:`~repro.service.scheduler.CoalescingScheduler` (each s-point evaluated
at most once across concurrent queries).  The HTTP layer in
:mod:`repro.service.http` is a thin JSON adapter over the three query
methods; tests and benchmarks may drive the service in-process.
"""
from __future__ import annotations

import functools
import threading
import time

import numpy as np

from .. import faults
from ..api import measures
from ..api.errors import PlanError, PredicateError
from ..api.plan import QueryPlan, build_job
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
from ..laplace import get_inverter
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
    "measure_kwargs",
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


#: request fields each measure kind accepts; shared by the synchronous HTTP
#: handlers, async submission and the job runner so every surface parses one
#: payload shape
_MEASURE_FIELDS = {
    "passage": (
        "model", "spec", "overrides", "max_states", "source", "target",
        "t_points", "include_cdf", "quantile", "solver", "inversion",
        "epsilon",
    ),
    "transient": (
        "model", "spec", "overrides", "max_states", "source", "target",
        "t_points", "include_steady_state", "solver", "inversion", "epsilon",
    ),
}


def measure_kwargs(payload: dict, kind: str) -> dict:
    """Extract the keyword arguments of one measure call from a JSON body."""
    if kind not in _MEASURE_FIELDS:
        raise ValidationError(f"unknown measure kind {kind!r}")
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    return {k: payload[k] for k in _MEASURE_FIELDS[kind] if k in payload}


def _as_t_points(raw) -> np.ndarray:
    try:
        t_points = np.asarray(list(raw), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"t_points must be a list of numbers: {exc}") from None
    if t_points.size == 0:
        raise ValidationError("t_points must not be empty")
    if not np.all(np.isfinite(t_points)) or np.any(t_points <= 0):
        raise ValidationError("t_points must be finite and strictly positive")
    return t_points


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

            # With a checkpoint directory the kernel plane files go under
            # <checkpoint>/planes, so workers — including ones started later,
            # or sharing the directory across serve processes — attach by
            # content digest; without one they go in a temporary directory
            # private to the backend, which close() removes.
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
        self,
        model: str | None,
        spec: str | None,
        overrides: dict | None,
        max_states: int | None,
        tenant: str = DEFAULT_TENANT,
    ) -> tuple[ModelEntry, bool]:
        overrides = self._checked_overrides(overrides)
        if spec is not None:
            if not isinstance(spec, str) or not spec.strip():
                raise ValidationError("spec must be a non-empty string")
            try:
                return self.registry.register(
                    spec, overrides=overrides, max_states=max_states,
                    tenant=tenant,
                )
            except QuotaError as exc:
                raise QuotaExceeded.wrap(exc) from None
            except Exception as exc:
                raise QueryError(f"cannot build model: {exc}") from exc
        if not model:
            raise ValidationError("request needs either 'model' (a digest) or 'spec'")
        if overrides:
            raise ValidationError(
                "constant overrides apply at registration; re-register the spec "
                "with 'overrides' instead of overriding a digest"
            )
        entry = self.registry.get(str(model), tenant=tenant)
        if entry is None:
            raise ModelNotFound(
                f"unknown model {model!r}; register it via POST /v1/models first"
            )
        return entry, False

    def _state_sets(self, entry: ModelEntry, source: str, target: str):
        if not source or not isinstance(source, str):
            raise ValidationError("source must be a marking-predicate expression")
        if not target or not isinstance(target, str):
            raise ValidationError("target must be a marking-predicate expression")
        from ..api.model import resolve_state_sets

        try:
            return resolve_state_sets(entry, source, target)
        except PredicateError as exc:
            raise QueryError(str(exc)) from None

    # ------------------------------------------------------------ queries
    def passage(
        self,
        *,
        model: str | None = None,
        spec: str | None = None,
        overrides: dict | None = None,
        max_states: int | None = None,
        source: str,
        target: str,
        t_points,
        include_cdf: bool = True,
        quantile: float | None = None,
        solver: str = "iterative",
        inversion: str = "euler",
        epsilon: float = 1e-8,
        tenant: str = DEFAULT_TENANT,
        observer=None,
    ) -> dict:
        """First-passage-time density (and optionally CDF / quantile).

        ``observer`` is the job runner's hook on the evaluation loop (see
        :meth:`_gather`); synchronous queries pass none.
        """
        t_points = _as_t_points(t_points)
        entry, registered = self._resolve_entry(
            model, spec, overrides, max_states, tenant=tenant
        )
        sources, targets = self._state_sets(entry, source, target)
        job = self._make_job("passage", entry, sources, targets, solver, epsilon)
        inverter = self._make_inverter(inversion)
        stats = QueryStatistics()
        stats.extra["model_registered"] = registered

        plan = QueryPlan.derive(inverter, t_points)
        resolved = self._gather(job, entry, stats, observer, plan)
        density = measures.invert(plan, resolved, stats)
        cdf = measures.invert(plan, resolved, stats, cdf=True) if include_cdf else None

        response = {
            "model": entry.digest,
            "measure": "passage",
            "t_points": [float(t) for t in t_points],
            "density": [float(f) for f in density],
        }
        if cdf is not None:
            response["cdf"] = [float(F) for F in cdf]
        if quantile is not None:
            response["quantile"] = {
                "q": float(quantile),
                "t": self._refine_quantile(
                    job, entry, inverter, t_points, quantile, stats, observer
                ),
            }
        self._count_query("passage", tenant)
        response["statistics"] = stats.as_dict()
        return response

    def transient(
        self,
        *,
        model: str | None = None,
        spec: str | None = None,
        overrides: dict | None = None,
        max_states: int | None = None,
        source: str,
        target: str,
        t_points,
        include_steady_state: bool = True,
        solver: str = "iterative",
        inversion: str = "euler",
        epsilon: float = 1e-8,
        tenant: str = DEFAULT_TENANT,
        observer=None,
    ) -> dict:
        """Transient probability ``P(Z(t) in targets)`` on a t-grid."""
        t_points = _as_t_points(t_points)
        entry, registered = self._resolve_entry(
            model, spec, overrides, max_states, tenant=tenant
        )
        sources, targets = self._state_sets(entry, source, target)
        job = self._make_job("transient", entry, sources, targets, solver, epsilon)
        inverter = self._make_inverter(inversion)
        stats = QueryStatistics()
        stats.extra["model_registered"] = registered

        plan = QueryPlan.derive(inverter, t_points)
        resolved = self._gather(job, entry, stats, observer, plan)
        probability = measures.invert(plan, resolved, stats)

        response = {
            "model": entry.digest,
            "measure": "transient",
            "t_points": [float(t) for t in t_points],
            "probability": [float(p) for p in probability],
        }
        if include_steady_state:
            response["steady_state"] = entry.steady_state(targets)
        self._count_query("transient", tenant)
        response["statistics"] = stats.as_dict()
        return response

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
        kwargs = measure_kwargs(payload, kind)
        _as_t_points(kwargs.get("t_points", ()))
        entry, _ = self._resolve_entry(
            kwargs.get("model"), kwargs.get("spec"), kwargs.get("overrides"),
            kwargs.get("max_states"), tenant=tenant,
        )
        self._state_sets(entry, kwargs.get("source"), kwargs.get("target"))
        self._make_inverter(kwargs.get("inversion", "euler"))
        try:
            self.tenancy.check_active_jobs(tenant, self.jobs.active_count(tenant))
        except QuotaError as exc:
            raise QuotaExceeded.wrap(exc) from None
        request = dict(kwargs)
        request.pop("model", None)
        request["spec"] = entry.spec_text
        request["overrides"] = entry.overrides
        request["max_states"] = entry.max_states
        record = self.jobs.create(
            tenant=tenant, kind=kind, request=request, model=entry.digest
        )
        self._runner.start()
        self._runner.wake()
        return record.view(include_result=False)

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
        """Release everything: runner, job store, worker planes, lock files."""
        self._runner.stop()
        self.jobs.close()
        if self.backend is not None:
            # removes the backend's private plane directory, if it made one
            self.backend.close()
        if self._checkpoint_store is not None:
            self._checkpoint_store.release_artifacts()

    # ------------------------------------------------------------ stats
    def stats(self) -> dict:
        with self._counter_lock:
            queries = dict(self._query_counts)
        queries["total"] = sum(queries.values())
        return {
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

    def progress(self, digest: str) -> dict:
        """In-flight / recently finished evaluations for one model digest."""
        return self.progress_board.view(str(digest))

    def metrics_text(self) -> str:
        """The Prometheus exposition body served at ``GET /metrics``."""
        return get_metrics().render_prometheus()

    # ------------------------------------------------------------ internals
    def _make_job(self, kind, entry, sources, targets, solver, epsilon) -> TransformJob:
        try:
            return build_job(
                entry, kind, sources, targets, solver=solver, epsilon=epsilon
            )
        except PlanError as exc:
            raise ValidationError(str(exc)) from None

    def _make_inverter(self, inversion: str):
        try:
            return get_inverter(inversion)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None

    def _gather(
        self,
        job: TransformJob,
        entry: ModelEntry,
        stats: QueryStatistics,
        observer,
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

    def _refine_quantile(
        self,
        job: TransformJob,
        entry: ModelEntry,
        inverter,
        t_points: np.ndarray,
        q,
        stats: QueryStatistics,
        observer,
    ) -> float:
        """Root-find ``F(t) = q`` with extra inversions through the scheduler."""
        try:
            q = float(q)
        except (TypeError, ValueError):
            raise ValidationError("quantile must be a number") from None
        if not 0.0 < q < 1.0:
            raise ValidationError("quantile must lie strictly between 0 and 1")
        cdf_at = measures.cdf_probe(
            functools.partial(self._gather, job, entry, stats, observer),
            inverter, stats,
        )
        try:
            return measures.refine_quantile(
                cdf_at, q, float(np.min(t_points)), 10.0 * float(np.max(t_points))
            )
        except measures.QuantileNotBracketed as exc:
            raise QueryError(str(exc)) from None

    def _count_query(self, kind: str, tenant: str) -> None:
        with self._counter_lock:
            self._query_counts[kind] += 1
        get_metrics().counter(
            "repro_queries_total", "queries served by measure kind and tenant",
            ("kind", "tenant"),
        ).inc(1, kind=kind, tenant=tenant)
