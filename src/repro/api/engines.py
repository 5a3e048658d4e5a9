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
import dataclasses

from ..core.results import RESULT_TYPES, PassageTimeResult, TransientResult
from ..distributed.backends import MultiprocessingBackend
from ..distributed.checkpoint import CheckpointStore
from ..service.cache import TieredResultCache
from ..service.scheduler import CoalescingScheduler, QueryStatistics
from . import measures
from .errors import ApiError, EngineError
from .model import Model
from .plan import QueryPlan

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

    def run(self, query) -> PassageTimeResult | TransientResult:
        """Evaluate a passage-time or transient query."""
        if getattr(query, "kind", None) not in RESULT_TYPES:
            raise EngineError(
                f"engine {self.name!r} cannot run {type(query).__name__} queries"
            )
        return self._run(query)

    @abc.abstractmethod
    def _run(self, query) -> PassageTimeResult | TransientResult:
        """Evaluate a measure query (its kind already checked)."""

    def close(self) -> None:
        """Release what the engine holds between runs (a worker pool); the
        engine stays usable.  ``query.run(engine="name", ...)`` closes the
        engine it constructed; an engine instance is closed by its caller,
        most simply as a context manager."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _LocalEngine(Engine):
    """The engine that evaluates s-points in this process tree.

    One run hands the query and its built model to the shared measure recipe
    (:func:`repro.api.measures.compute`) over a *per-run* evaluation loop — a
    :class:`CoalescingScheduler` on a result store (memory, over the
    checkpoint directory when there is one) and an executor (in-process by
    default, or a worker pool).  The three registered local engines are three
    ways of constructing it.  A pool lives from the first run that needs it
    to :meth:`close`, so the runs of one engine share its resident workers.
    """

    def __init__(self, *, backend=None, checkpoint=None, progress=None):
        #: executor; ``None`` solves in the calling process
        self.backend = backend
        #: disk tier of every run's store (``None``: memory only)
        self.checkpoint = checkpoint
        #: optional :class:`~repro.obs.progress.ProgressReporter` advanced per
        #: completed s-block
        self.progress = progress

    def _run(self, query):
        scheduler = CoalescingScheduler(
            TieredResultCache(self.checkpoint), backend=self.backend
        )
        stats = QueryStatistics()
        plans: list[QueryPlan] = []

        def gather_job(job, plan):
            # the measure's own grid first, then one plan per quantile probe
            plans.append(plan)
            return measures.gather(scheduler, job, plan, stats, reporter=self.progress)

        try:
            result = measures.compute(query, query.model.entry, stats, gather_job)
        except measures.QuantileNotBracketed as exc:
            raise ApiError(str(exc)) from None
        result.statistics.update(
            engine=self.name, solver=query.solver,
            conjugates_folded=plans[0].conjugates_folded,
        )
        return result

    def close(self) -> None:
        """Shut down the executor's worker pool, if it keeps one; the next
        run starts it again."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()


class InlineEngine(_LocalEngine):
    """Memory store, every s-point solved in the calling process."""

    name = "inline"

    def __init__(self):
        super().__init__()


class MultiprocessingEngine(_LocalEngine):
    """Memory store, the s-grid solved on a pool of worker processes.

    The pool shares one kernel plane (workers mmap the exported kernel file
    zero-copy instead of receiving a pickled model copy; the file lives in a
    private temporary directory) and the unit of dispatch is a
    memory-budgeted s-block.  Workers and directory last until :meth:`close`
    — ``with MultiprocessingEngine(workers=8) as engine:`` — so every run of
    the engine, and every quantile probe of a run, finds the model already
    handed out.  ``workers`` and ``processes`` are synonyms; ``block_size``
    overrides the policy-computed block, mainly for tests.
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

    def _ask(self, query):
        from ..service.client import ServiceClientError

        try:
            reply = getattr(self.client, query.kind)(**query.to_wire())
        except ServiceClientError as exc:
            raise EngineError(str(exc)) from None
        result = RESULT_TYPES[query.kind].from_wire(reply)
        result.method = query.inversion
        result.statistics["engine"] = self.name
        return result

    def _run(self, query):
        # the wire carries one quantile per request
        further = getattr(query, "quantiles", ())[1:]
        if not further:
            return self._ask(query)
        result = self._ask(dataclasses.replace(query, quantiles=query.quantiles[:1]))
        # The first reply carries the registered digest; follow-up quantile
        # requests reference it instead of re-sending the spec.
        by_digest = Model.from_digest(result.statistics["model"])
        for q in further:
            extra = dataclasses.replace(
                query, model=by_digest, include_cdf=False, quantiles=(q,)
            )
            result.quantiles.update(self._ask(extra).quantiles)
        return result


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
