"""Content-addressed registry of built models.

The expensive part of answering a DNAmaca query is everything *before* the
transform evaluations: parsing the specification, exploring the state space
and assembling the SMP kernel (every explored marking becomes a kernel state;
vanishing markings are not eliminated).  The registry content-addresses each
model by a digest of its specification text plus constant overrides, builds
the artefacts once, and hands every later query the same :class:`ModelEntry`
— including one shared :class:`~repro.smp.kernel.UEvaluator` so all measures
on the kernel reuse its CSR structure and cached ``U(s)`` grids.

Registration is thread-safe: concurrent registrations of the same spec
observe a single build (waiters block on the builder's event rather than
re-exploring the state space).

Tenancy: build artefacts stay content-addressed and shared (two tenants
registering the same spec pay one build and share cached transform values),
but *visibility* is per-tenant.  Each registration with a tenant records the
digest in that tenant's namespace; digest lookups and model listings scoped
to a tenant only see digests the tenant registered itself.  Registrations
without a tenant (library-internal callers) are unowned and visible to all.
A per-tenant model quota is enforced before a build starts.
"""
from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from ..dnamaca import load_model, parse_model
from ..dnamaca.expressions import ExpressionError, parse_overrides
from ..dnamaca.vectorize import vector_marking_predicate
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..petri.statespace import build_kernel, explore
from ..smp.kernel import SMPKernel, UEvaluator
from ..smp.steady import steady_state_probability
from ..utils.timing import Stopwatch

__all__ = ["ModelEntry", "ModelRegistry", "spec_digest"]


def spec_digest(
    text: str,
    overrides: dict[str, float] | None = None,
    max_states: int | None = None,
) -> str:
    """Content address of a model: spec text + constant overrides + state cap."""
    h = hashlib.sha256()
    h.update(text.strip().encode())
    for name, value in sorted((overrides or {}).items()):
        h.update(f"|{name}={float(value)!r}".encode())
    h.update(f"|max_states={max_states}".encode())
    return h.hexdigest()[:16]


@dataclass
class ModelEntry:
    """Everything the service caches per registered model."""

    digest: str
    name: str
    spec_text: str
    overrides: dict[str, float]
    constants: dict[str, float]
    net: object
    graph: object
    kernel: SMPKernel
    evaluator: UEvaluator
    build_seconds: float
    #: which evaluation engine the default SPointPolicy picks for this kernel
    #: ("batch" or "factored"); decided once at registration
    evaluator_engine: str = "batch"
    #: the state-space cap this entry was built under — part of the digest,
    #: recorded so a durable job request can reproduce it after a restart
    max_states: int | None = None
    #: serialises transform evaluations on the shared evaluator (its grid
    #: caches are not thread-safe); held by the scheduler, not by callers
    eval_lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _state_sets: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _steady_states: dict[bytes, float] = field(default_factory=dict, repr=False)
    _memo_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n_states(self) -> int:
        return self.kernel.n_states

    def states_matching(self, expression: str) -> np.ndarray:
        """State indices whose marking satisfies a condition-style expression.

        Evaluated as one vectorized NumPy pass over the marking matrix
        (columnar predicate compilation) rather than one Python call per
        state, and memoised per expression text: a serving workload
        re-resolves the same handful of source/target predicates on every
        query.
        """
        with self._memo_lock:
            hit = self._state_sets.get(expression)
        if hit is not None:
            return hit
        try:
            predicate = vector_marking_predicate(expression, self.constants)
            mask = predicate(self.graph.marking_array(), self.net.place_index)
            states = np.flatnonzero(mask).astype(np.int64)
        except ExpressionError:
            raise
        except Exception as exc:  # evaluation errors (bad types, ...)
            raise ExpressionError(f"cannot evaluate predicate {expression!r}: {exc}") from exc
        with self._memo_lock:
            self._state_sets.setdefault(expression, states)
        return states

    def steady_state(self, targets) -> float:
        """``P(Z(inf) in targets)``, memoised per target set.

        The embedded-DTMC stationary vector is solved once per *model* (the
        kernel memoises it, see ``SMPKernel.embedded_steady_state``); this
        memo only saves re-weighting it by the mean sojourn times and summing
        over the target set on every transient query.
        """
        targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
        key = targets.tobytes()
        with self._memo_lock:
            hit = self._steady_states.get(key)
        if hit is not None:
            return hit
        value = float(steady_state_probability(self.kernel, targets))
        with self._memo_lock:
            self._steady_states.setdefault(key, value)
        return value

    def describe(self) -> dict:
        """JSON-serialisable summary used by the registration response."""
        return {
            "model": self.digest,
            "name": self.name,
            "states": int(self.kernel.n_states),
            "kernel_transitions": int(self.kernel.n_transitions),
            "distinct_distributions": int(self.kernel.n_distributions),
            "constants": {k: float(v) for k, v in self.constants.items()},
            "build_seconds": self.build_seconds,
            "evaluator_engine": self.evaluator_engine,
        }


class ModelRegistry:
    """Builds and caches :class:`ModelEntry` objects, keyed by spec digest."""

    def __init__(
        self,
        *,
        default_max_states: int | None = None,
        tenancy: "TenancyManager | None" = None,
    ):
        self.default_max_states = default_max_states
        #: quota oracle for the per-tenant model budget (``None`` = unlimited)
        self.tenancy = tenancy
        self._entries: dict[str, ModelEntry] = {}
        self._building: dict[str, threading.Event] = {}
        #: tenant -> digests that tenant registered (visibility namespaces)
        self._namespaces: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        self.models_built = 0
        self.registry_hits = 0
        self.build_seconds_total = 0.0

    # ------------------------------------------------------------------ API
    def register(
        self,
        text: str,
        *,
        name: str | None = None,
        overrides: dict[str, float] | None = None,
        max_states: int | None = None,
        tenant: str | None = None,
    ) -> tuple[ModelEntry, bool]:
        """Return the entry for this spec, building it at most once.

        Returns ``(entry, created)`` where ``created`` tells whether *this*
        call paid the exploration/build cost.  With a ``tenant``, the digest
        is recorded in that tenant's namespace (subject to its model quota);
        the underlying build stays shared across tenants.
        """
        if max_states is None:
            max_states = self.default_max_states
        overrides = parse_overrides(overrides)
        digest = spec_digest(text, overrides, max_states)
        self._claim_namespace(digest, tenant)
        while True:
            with self._lock:
                entry = self._entries.get(digest)
                if entry is not None:
                    self.registry_hits += 1
                    return entry, False
                event = self._building.get(digest)
                if event is None:
                    event = threading.Event()
                    self._building[digest] = event
                    break  # this thread builds
            event.wait()  # another thread is building this digest
        try:
            entry = self._build(digest, text, name, overrides, max_states)
            with self._lock:
                self._entries[digest] = entry
                self.models_built += 1
                self.build_seconds_total += entry.build_seconds
            return entry, True
        finally:
            with self._lock:
                self._building.pop(digest, None)
            event.set()

    def get(self, digest: str, *, tenant: str | None = None) -> ModelEntry | None:
        """Look up a digest, optionally scoped to a tenant's namespace.

        A digest owned by other tenants only is invisible (``None``) to a
        scoped lookup — tenant B cannot query tenant A's models even when it
        guesses the digest.  Unowned digests (registered without a tenant)
        stay visible to everyone.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None and tenant is not None:
                owners = [t for t, ns in self._namespaces.items() if digest in ns]
                if owners and tenant not in owners:
                    return None
            if entry is not None:
                self.registry_hits += 1
            return entry

    def entries(self) -> list[ModelEntry]:
        with self._lock:
            return list(self._entries.values())

    def models(self, tenant: str | None = None) -> list[ModelEntry]:
        """Entries visible to ``tenant`` (all entries when ``None``)."""
        with self._lock:
            if tenant is None:
                return list(self._entries.values())
            owned = self._namespaces.get(tenant, set())
            return [
                entry for digest, entry in self._entries.items()
                if digest in owned
            ]

    def stats(self) -> dict:
        with self._lock:
            return {
                "models": len(self._entries),
                "models_built": self.models_built,
                "registry_hits": self.registry_hits,
                "build_seconds_total": self.build_seconds_total,
                "tenants": {
                    tenant: len(digests)
                    for tenant, digests in sorted(self._namespaces.items())
                },
            }

    # ------------------------------------------------------------ internals
    def _claim_namespace(self, digest: str, tenant: str | None) -> None:
        """Record the digest in the tenant's namespace, enforcing its quota.

        Claimed *before* the build so a tenant at its model quota never
        triggers an expensive exploration; re-claiming an already-owned
        digest is free and never counts against the quota.
        """
        if tenant is None:
            return
        with self._lock:
            owned = self._namespaces.setdefault(tenant, set())
            if digest in owned:
                return
            if self.tenancy is not None:
                self.tenancy.check_models(tenant, len(owned))
            owned.add(digest)

    def _build(
        self,
        digest: str,
        text: str,
        name: str | None,
        overrides: dict[str, float],
        max_states: int | None,
    ) -> ModelEntry:
        from ..smp.passage import SPointPolicy

        stopwatch = Stopwatch()
        with stopwatch, obs_trace.span("model-build", digest=digest):
            spec = parse_model(text, name=name or "model")
            constants = {**spec.constants, **overrides}
            net = load_model(spec, overrides=overrides or None)
            with obs_trace.span("explore", digest=digest):
                graph = explore(net, max_states=max_states)
            with obs_trace.span(
                "kernel-build", digest=digest, n_states=int(graph.n_states)
            ):
                kernel = build_kernel(graph, allow_truncated=graph.truncated)
                evaluator = kernel.evaluator()
            # Decide the evaluation engine once per model (the evaluator
            # remembers it for every later solve); kernels routed to the
            # factored engine prewarm its target-independent structures here
            # so no query pays the pair decomposition.
            engine = SPointPolicy().resolve_engine(evaluator)
            if engine == "factored":
                evaluator.factored().prewarm()
        get_metrics().counter(
            "repro_models_built_total", "model builds by evaluation engine",
            ("engine",),
        ).inc(1, engine=engine)
        get_metrics().histogram(
            "repro_model_build_seconds", "wall-clock of one model build"
        ).observe(stopwatch.elapsed)
        return ModelEntry(
            digest=digest,
            name=net.name,
            spec_text=text,
            overrides=overrides,
            constants=constants,
            net=net,
            graph=graph,
            kernel=kernel,
            evaluator=evaluator,
            build_seconds=stopwatch.elapsed,
            evaluator_engine=engine,
            max_states=max_states,
        )
