"""Pluggable execution engines: one query, four ways to run it.

An :class:`Engine` turns a lazy query into a result object.  Engines are
selected by name through a registry, so new execution modes (async pools,
sharded clusters, ...) plug in at this single seam::

    result = query.run()                              # inline, this process
    result = query.run(engine="multiprocessing", processes=8)
    result = query.run(engine="distributed", checkpoint="/var/ckpt")
    result = query.run(engine="remote", url="http://analysis:8400")

All engines return the same result types (:class:`PassageTimeResult` /
:class:`TransientResult`) with the same numbers — the engine-parity tests
hold them to 1e-10 of each other.
"""
from __future__ import annotations

import abc

import numpy as np

from ..core.results import PassageTimeResult, TransientResult
from ..distributed.backends import MultiprocessingBackend
from ..distributed.checkpoint import CheckpointStore
from ..service.cache import TieredResultCache
from ..service.scheduler import CoalescingScheduler, QueryStatistics
from . import measures
from .errors import ApiError, EngineError
from .model import resolve_state_sets
from .plan import QueryPlan, build_job

__all__ = [
    "Engine",
    "InlineEngine",
    "MultiprocessingEngine",
    "DistributedEngine",
    "RemoteEngine",
    "get_engine",
    "register_engine",
    "available_engines",
]


class Engine(abc.ABC):
    """Executes measure queries; subclasses define *where* the work happens."""

    #: registry name; also stamped into every result's statistics
    name: str = "abstract"

    def run(self, query):
        """Dispatch on the query's measure kind."""
        kind = getattr(query, "kind", None)
        if kind == "passage":
            return self.run_passage(query)
        if kind == "transient":
            return self.run_transient(query)
        raise EngineError(
            f"engine {self.name!r} cannot run {type(query).__name__} queries"
        )

    @abc.abstractmethod
    def run_passage(self, query) -> PassageTimeResult:
        """Evaluate a passage-time query."""

    @abc.abstractmethod
    def run_transient(self, query) -> TransientResult:
        """Evaluate a transient-probability query."""


class _LocalEngine(Engine):
    """The engine that evaluates s-points in this process tree.

    One run is: resolve the state sets, build the job, derive the plan, and
    hand it to the shared measure helpers over a *per-run* evaluation loop —
    a :class:`CoalescingScheduler` on a result store (memory, over the
    checkpoint directory when there is one) and an executor (in-process by
    default, or a worker pool).  The three registered local engines are three
    ways of constructing it.
    """

    def __init__(self, *, backend=None, checkpoint=None, progress=None):
        #: executor; ``None`` solves in the calling process
        self.backend = backend
        #: disk tier of every run's store (``None``: memory only)
        self.checkpoint = checkpoint
        #: optional :class:`~repro.obs.progress.ProgressReporter` advanced per
        #: completed s-block
        self.progress = progress

    def _context(self, query):
        entry = query.model.entry
        sources, targets = resolve_state_sets(entry, query.source, query.target)
        job = build_job(
            entry, query.kind, sources, targets,
            solver=query.solver, epsilon=query.epsilon,
        )
        plan = QueryPlan.derive(query.make_inverter(), query.grid())
        scheduler = CoalescingScheduler(
            TieredResultCache(self.checkpoint), backend=self.backend
        )
        return entry, targets, job, plan, scheduler

    def _statistics(self, query, plan: QueryPlan, stats: QueryStatistics) -> dict:
        return {
            **stats.as_dict(),
            "engine": self.name,
            "solver": query.solver,
            "conjugates_folded": plan.conjugates_folded,
        }

    # -------------------------------------------------------------- passage
    def run_passage(self, query) -> PassageTimeResult:
        _entry, _targets, job, plan, scheduler = self._context(query)
        stats = QueryStatistics()

        resolved = measures.gather(scheduler, job, plan, stats, reporter=self.progress)
        density = measures.invert(plan, resolved, stats) if query.include_density else None
        cdf = measures.invert(plan, resolved, stats, cdf=True) if query.include_cdf else None

        quantiles: dict[float, float] = {}
        if query.quantiles:
            # Probes are tiny (33 points each under Euler): they go through
            # the same store, but on the default in-process executor rather
            # than paying a pool round-trip each.
            probes = CoalescingScheduler(scheduler.cache)
            cdf_at = measures.cdf_probe(
                lambda probe: measures.gather(probes, job, probe, stats),
                plan.inverter, stats,
            )
            t_lower, t_upper = float(plan.t_points.min()), 10.0 * float(plan.t_points.max())
            try:
                for q in query.quantiles:
                    quantiles[q] = measures.refine_quantile(cdf_at, q, t_lower, t_upper)
            except measures.QuantileNotBracketed as exc:
                raise ApiError(str(exc)) from None

        return PassageTimeResult(
            t_points=plan.t_points,
            density=density,
            cdf=cdf,
            transform_values=resolved,
            method=plan.inverter.name,
            quantiles=quantiles,
            statistics=self._statistics(query, plan, stats),
        )

    # ------------------------------------------------------------ transient
    def run_transient(self, query) -> TransientResult:
        entry, targets, job, plan, scheduler = self._context(query)
        stats = QueryStatistics()

        resolved = measures.gather(scheduler, job, plan, stats, reporter=self.progress)
        probability = measures.invert(plan, resolved, stats)
        steady = entry.steady_state(targets) if query.include_steady_state else None
        return TransientResult(
            t_points=plan.t_points,
            probability=probability,
            steady_state=steady,
            transform_values=resolved,
            method=plan.inverter.name,
            statistics=self._statistics(query, plan, stats),
        )


class InlineEngine(_LocalEngine):
    """Memory store, every s-point solved in the calling process."""

    name = "inline"

    def __init__(self):
        super().__init__()


class MultiprocessingEngine(_LocalEngine):
    """Memory store, the s-grid solved on a pool of worker processes.

    The pool shares one kernel plane (workers mmap the exported kernel file
    zero-copy instead of receiving a pickled model copy; the file lives in a
    private temporary directory that goes when the engine does) and the unit
    of dispatch is a memory-budgeted s-block.  ``workers`` and ``processes``
    are synonyms; ``block_size`` overrides the policy-computed block, mainly
    for tests.
    """

    name = "multiprocessing"

    def __init__(
        self,
        *,
        workers: int | None = None,
        processes: int | None = None,
        block_size: int | None = None,
    ):
        if workers is not None and processes is not None and workers != processes:
            raise EngineError("workers and processes are synonyms; pass one")
        super().__init__(backend=MultiprocessingBackend(
            processes=workers if workers is not None else processes,
            block_size=block_size,
        ))


class DistributedEngine(_LocalEngine):
    """Checkpoint-backed store: what the paper's master adds to a solve.

    Every completed s-block is merged into the ``checkpoint`` directory as it
    arrives — quantile probes included — so an interrupted analysis resumes
    from the finished blocks and a repeated one computes nothing.
    ``backend`` accepts any executor; ``workers > 1`` builds a
    multiprocessing backend — with a checkpoint configured, its kernel plane
    is exported as an mmap'd file under ``<checkpoint>/planes`` so any
    process on the host (or a checkpoint-sharing fleet) can attach by
    digest; the default solves in the calling process.
    """

    name = "distributed"

    def __init__(
        self,
        *,
        backend=None,
        workers: int | None = None,
        block_size: int | None = None,
        checkpoint: str | CheckpointStore | None = None,
        progress=None,
    ):
        if isinstance(checkpoint, (str, bytes)) or hasattr(checkpoint, "__fspath__"):
            checkpoint = CheckpointStore(checkpoint)
        if backend is None and workers and workers > 1:
            backend = MultiprocessingBackend(
                processes=workers,
                block_size=block_size,
                plane_store=(
                    str(checkpoint.directory / "planes")
                    if checkpoint is not None else None
                ),
            )
        super().__init__(backend=backend, checkpoint=checkpoint, progress=progress)


class RemoteEngine(Engine):
    """Ship the query to a running analysis server over its HTTP JSON API.

    The server amortises model building across all clients (content-addressed
    registry), coalesces overlapping s-points of concurrent queries and keeps
    a tiered result cache — so a warm remote query answers without a single
    transform evaluation.  Requires the query's model to carry its spec text
    (``Model.from_spec``/``from_file``) or reference an already-registered
    digest (``Model.from_digest``).
    """

    name = "remote"

    def __init__(
        self,
        *,
        url: str = "http://127.0.0.1:8400",
        timeout: float = 120.0,
        tenant: str | None = None,
        client=None,
    ):
        if client is None:
            from ..service.client import ServiceClient

            client = ServiceClient(url, timeout=timeout, tenant=tenant)
        self.client = client

    def _call(self, method: str, **payload):
        from ..service.client import ServiceClientError

        try:
            return getattr(self.client, method)(**payload)
        except ServiceClientError as exc:
            raise EngineError(str(exc)) from None

    def _reference(self, query) -> dict:
        if query.inverter_options:
            raise EngineError(
                "the remote engine does not support custom inverter options; "
                "configure the server-side defaults instead"
            )
        ref = query.model.reference()
        return {
            "model": ref.get("model"),
            "spec": ref.get("spec"),
            "overrides": ref.get("overrides"),
            "max_states": ref.get("max_states"),
        }

    def run_passage(self, query) -> PassageTimeResult:
        t_points = query.grid()
        quantiles = list(query.quantiles)
        reply = self._call(
            "passage",
            **self._reference(query),
            source=query.source,
            target=query.target,
            t_points=[float(t) for t in t_points],
            cdf=query.include_cdf,
            quantile=quantiles[0] if quantiles else None,
            solver=query.solver,
            inversion=query.inversion,
            epsilon=query.epsilon,
        )
        out_quantiles: dict[float, float] = {}
        if "quantile" in reply:
            out_quantiles[float(reply["quantile"]["q"])] = float(reply["quantile"]["t"])
        for q in quantiles[1:]:
            # The first reply carries the registered digest; follow-up
            # quantile requests reference it instead of re-sending the spec.
            extra = self._call(
                "passage",
                model=reply.get("model"),
                spec=None,
                overrides=None,
                max_states=None,
                source=query.source,
                target=query.target,
                t_points=[float(t) for t in t_points],
                cdf=False,
                quantile=q,
                solver=query.solver,
                inversion=query.inversion,
                epsilon=query.epsilon,
            )
            out_quantiles[float(extra["quantile"]["q"])] = float(extra["quantile"]["t"])

        stats = dict(reply.get("statistics", {}))
        stats["engine"] = self.name
        stats["model"] = reply.get("model")
        return PassageTimeResult(
            t_points=np.asarray(reply["t_points"], dtype=float),
            density=np.asarray(reply["density"], dtype=float) if query.include_density else None,
            cdf=np.asarray(reply["cdf"], dtype=float) if "cdf" in reply else None,
            method=query.inversion,
            quantiles=out_quantiles,
            statistics=stats,
        )

    def run_transient(self, query) -> TransientResult:
        t_points = query.grid()
        reply = self._call(
            "transient",
            **self._reference(query),
            source=query.source,
            target=query.target,
            t_points=[float(t) for t in t_points],
            steady_state=query.include_steady_state,
            solver=query.solver,
            inversion=query.inversion,
            epsilon=query.epsilon,
        )
        stats = dict(reply.get("statistics", {}))
        stats["engine"] = self.name
        stats["model"] = reply.get("model")
        return TransientResult(
            t_points=np.asarray(reply["t_points"], dtype=float),
            probability=np.asarray(reply["probability"], dtype=float),
            steady_state=(
                float(reply["steady_state"]) if "steady_state" in reply else None
            ),
            method=query.inversion,
            statistics=stats,
        )


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

_ENGINE_FACTORIES: dict[str, type[Engine]] = {}


def register_engine(name: str, factory, *, replace: bool = False) -> None:
    """Register an engine factory under ``name`` for ``query.run(engine=name)``."""
    if not replace and name in _ENGINE_FACTORIES:
        raise ValueError(f"engine {name!r} is already registered")
    _ENGINE_FACTORIES[name] = factory


def available_engines() -> tuple[str, ...]:
    return tuple(sorted(_ENGINE_FACTORIES))


def get_engine(engine, **options) -> Engine:
    """Resolve an engine by name (constructing it) or pass an instance through."""
    if isinstance(engine, Engine):
        if options:
            raise EngineError(
                "engine options only apply when the engine is selected by name"
            )
        return engine
    factory = _ENGINE_FACTORIES.get(engine)
    if factory is None:
        raise EngineError(
            f"unknown engine {engine!r}; available engines: "
            + ", ".join(available_engines())
        )
    try:
        return factory(**options)
    except TypeError as exc:
        raise EngineError(f"cannot construct engine {engine!r}: {exc}") from None


register_engine("inline", InlineEngine)
register_engine("multiprocessing", MultiprocessingEngine)
register_engine("distributed", DistributedEngine)
register_engine("remote", RemoteEngine)
