"""Lazy query objects: what to compute, decoupled from how to compute it.

A query is an immutable description of a measure — model, source/target
predicates, t-grid, solver, inversion algorithm — built fluently::

    query = (model.passage("p1 == CC", "p2 == CC")
                  .density([5, 10, 20])
                  .cdf()
                  .quantile(0.95))

Nothing is evaluated until :meth:`run`, which hands the query to an
execution engine selected by name (``inline`` / ``multiprocessing`` /
``distributed`` / ``remote``) or by instance.  Because queries are frozen,
the *same* query object can be run on several engines and must return the
same numbers — the engine-parity tests rely on this.

A query is also *the request* on every serving surface: :meth:`to_wire` is
the JSON body of ``POST /v1/passage`` / ``/v1/transient`` (and the request a
durable job record stores) and :func:`from_wire` parses one back, validating
through the same builders the fluent API uses — so a body is checked once,
before any work, and the field names live here and nowhere else.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import EngineError, ModelError, PlanError
from .model import Model
from .plan import Grid, QueryPlan, as_grid

__all__ = [
    "PassageQuery",
    "TransientQuery",
    "SimulationQuery",
    "SimulationResult",
    "from_wire",
]

_SOLVERS = ("iterative", "direct")


@dataclass(frozen=True)
class _MeasureQuery:
    """Configuration shared by passage and transient queries."""

    model: Model
    source: str
    target: str
    t_points: tuple[float, ...] | None = None
    solver: str = "iterative"
    inversion: str = "euler"
    inverter_options: tuple[tuple[str, object], ...] = ()
    epsilon: float = 1e-8

    kind: ClassVar[str] = "abstract"
    #: the measure's optional extra as ``(wire flag, field)``; the field name
    #: is also read as the flag's alias, because durable job records store it
    wire_flag: ClassVar[tuple[str, str]]

    # ------------------------------------------------------------- builders
    def with_solver(self, solver: str) -> "_MeasureQuery":
        """Select the transform evaluation algorithm (``iterative``/``direct``)."""
        if solver not in _SOLVERS:
            raise PlanError(f"unknown solver {solver!r}; expected one of {_SOLVERS}")
        return replace(self, solver=solver)

    def with_inversion(self, method: str, **options) -> "_MeasureQuery":
        """Select the inversion algorithm (``euler``/``laguerre``) and its options."""
        candidate = replace(
            self, inversion=method, inverter_options=tuple(sorted(options.items()))
        )
        candidate.make_inverter()  # validate name and options eagerly
        return candidate

    def with_epsilon(self, epsilon: float) -> "_MeasureQuery":
        """Truncation tolerance of the iterative transform evaluation."""
        try:
            epsilon = float(epsilon)
        except (TypeError, ValueError):
            raise PlanError("epsilon must be a number") from None
        if epsilon <= 0:
            raise PlanError("epsilon must be positive")
        return replace(self, epsilon=epsilon)

    def with_t_points(self, t_points) -> "_MeasureQuery":
        return replace(self, t_points=as_grid(t_points))

    # -------------------------------------------------------------- running
    def grid(self) -> Grid:
        if self.t_points is None:
            raise PlanError(
                "this query has no t-points yet; set them with "
                f".{'density' if self.kind == 'passage' else 'probability'}(t_points)"
            )
        return as_grid(self.t_points)

    def make_inverter(self):
        from ..laplace import get_inverter

        try:
            return get_inverter(self.inversion, **dict(self.inverter_options))
        except ValueError as exc:
            raise PlanError(str(exc)) from None

    def plan(self) -> QueryPlan:
        """Derive the canonical s-grid this query will evaluate (no evaluation)."""
        return QueryPlan.derive(self.make_inverter(), self.grid())

    def run(self, engine="inline", **engine_options):
        """Execute on the selected engine and return the result object.

        An engine selected by name lives for this run (its worker pool, if
        it starts one, is shut down before this returns); an engine instance
        is the caller's to reuse and to close.
        """
        from .engines import get_engine

        chosen = get_engine(engine, **engine_options)
        if chosen is engine:
            return chosen.run(self)
        with chosen:
            return chosen.run(self)

    def to_wire(self) -> dict:
        """This query as the JSON body of ``POST /v1/<kind>``.

        The model goes by reference (its spec text, or its digest when that
        is all there is); :func:`from_wire` is the inverse.
        """
        if self.inverter_options:
            raise PlanError(
                "the wire format carries no inverter options; "
                "configure the server-side defaults instead"
            )
        flag, field = self.wire_flag
        return {
            **self.model.reference(),
            "source": self.source,
            "target": self.target,
            "t_points": list(self.grid()),
            "solver": self.solver,
            "inversion": self.inversion,
            "epsilon": self.epsilon,
            flag: getattr(self, field),
        }


@dataclass(frozen=True)
class PassageQuery(_MeasureQuery):
    """A lazy first-passage-time measure (density / CDF / quantiles)."""

    include_density: bool = True
    include_cdf: bool = False
    quantiles: tuple[float, ...] = ()

    kind: ClassVar[str] = "passage"
    wire_flag = ("cdf", "include_cdf")

    def density(self, t_points=None) -> "PassageQuery":
        """Request the passage-time density, optionally setting the t-grid."""
        out = replace(self, include_density=True)
        return out if t_points is None else replace(out, t_points=as_grid(t_points))

    def cdf(self, t_points=None) -> "PassageQuery":
        """Request the passage-time CDF, optionally setting the t-grid."""
        out = replace(self, include_cdf=True)
        return out if t_points is None else replace(out, t_points=as_grid(t_points))

    def quantile(self, q: float) -> "PassageQuery":
        """Request the passage-time quantile ``t`` with ``P(T <= t) = q``."""
        try:
            q = float(q)
        except (TypeError, ValueError):
            raise PlanError("quantile must be a number") from None
        if not 0.0 < q < 1.0:
            raise PlanError("quantile must lie strictly between 0 and 1")
        if q in self.quantiles:
            return self
        return replace(self, quantiles=self.quantiles + (q,))

    def to_wire(self) -> dict:
        if len(self.quantiles) > 1:
            raise PlanError("the wire format carries one quantile per request")
        body = super().to_wire()
        if self.quantiles:
            body["quantile"] = self.quantiles[0]
        return body


@dataclass(frozen=True)
class TransientQuery(_MeasureQuery):
    """A lazy transient-probability measure ``P(Z(t) in targets)``."""

    include_steady_state: bool = True

    kind: ClassVar[str] = "transient"
    wire_flag = ("steady_state", "include_steady_state")

    def probability(self, t_points) -> "TransientQuery":
        """Set the t-grid on which to evaluate the transient probability."""
        return replace(self, t_points=as_grid(t_points))

    at = probability

    def without_steady_state(self) -> "TransientQuery":
        """Skip the embedded-DTMC steady-state solve."""
        return replace(self, include_steady_state=False)


_QUERY_TYPES = {"passage": PassageQuery, "transient": TransientQuery}


def _model_from_wire(body: dict) -> Model:
    overrides = body.get("overrides")
    if overrides is not None and not isinstance(overrides, dict):
        raise PlanError("overrides must be a {constant: value} object")
    try:
        if body.get("spec") is not None:
            return Model.from_spec(
                body["spec"], overrides=overrides, max_states=body.get("max_states")
            )
        if not body.get("model"):
            raise PlanError("request needs either 'model' (a digest) or 'spec'")
        if overrides:
            raise PlanError(
                "constant overrides apply at registration; re-register the spec "
                "with 'overrides' instead of overriding a digest"
            )
        return Model.from_digest(str(body["model"]))
    except ModelError as exc:
        raise PlanError(str(exc)) from None


def from_wire(kind: str, body: dict, *, model: Model | None = None):
    """Parse the JSON body of ``POST /v1/<kind>`` into a query, or raise
    :class:`PlanError` — every field is checked here, before any work.

    An absent field takes the query's default, except that the wire's ``cdf``
    and ``steady_state`` flags default to true (``include_cdf`` /
    ``include_steady_state`` are read as their aliases).  Unknown fields are
    ignored.  ``model`` stands in for the body's model reference (``model`` /
    ``spec`` / ``overrides`` / ``max_states``) when the caller already holds
    it.
    """
    query_type = _QUERY_TYPES.get(kind)
    if query_type is None:
        raise PlanError(f"unknown measure kind {kind!r}")
    if not isinstance(body, dict):
        raise PlanError("request body must be a JSON object")
    for role in ("source", "target"):
        if not body.get(role) or not isinstance(body[role], str):
            raise PlanError(f"{role} must be a marking-predicate expression")
    flag, field = query_type.wire_flag
    query = query_type(
        model=model if model is not None else _model_from_wire(body),
        source=body["source"],
        target=body["target"],
        t_points=as_grid(body.get("t_points", ())),
        **{field: bool(body.get(field, body.get(flag, True)))},
    )
    if "solver" in body:
        query = query.with_solver(body["solver"])
    if "inversion" in body:
        query = query.with_inversion(body["inversion"])
    if "epsilon" in body:
        query = query.with_epsilon(body["epsilon"])
    if kind == "passage" and body.get("quantile") is not None:
        query = query.quantile(body["quantile"])
    return query


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass
class SimulationResult:
    """Monte-Carlo passage-time estimate: raw samples plus derived views."""

    samples: np.ndarray
    t_points: np.ndarray | None = None
    cdf: np.ndarray | None = None
    statistics: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.t_points is not None:
            self.t_points = np.asarray(self.t_points, dtype=float)
        if self.cdf is not None:
            self.cdf = np.asarray(self.cdf, dtype=float)

    @property
    def n_replications(self) -> int:
        return int(self.samples.size)

    def mean(self) -> float:
        return float(self.samples.mean())

    def std(self) -> float:
        return float(self.samples.std(ddof=1))

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.samples, q))

    def as_table(self, quantiles=(0.05, 0.25, 0.5, 0.75, 0.95, 0.99)) -> list[list[float]]:
        """Rows ``(q, t_q)`` of empirical quantiles, for printing."""
        return [[float(q), self.quantile(q)] for q in quantiles]


@dataclass(frozen=True)
class SimulationQuery:
    """A lazy Monte-Carlo estimation of the passage time into ``target``.

    Simulation samples trajectories of the SM-SPN directly — it never builds
    the state space, which is what makes it viable on models whose
    reachability graph would not fit in memory.  Only the inline engine can
    run it.
    """

    model: Model
    source: str
    target: str
    replications: int = 2000
    seed: int | None = None
    t_points: tuple[float, ...] | None = None

    kind: ClassVar[str] = "simulation"

    def with_replications(self, n: int) -> "SimulationQuery":
        if int(n) < 1:
            raise PlanError("replications must be >= 1")
        return replace(self, replications=int(n))

    def with_seed(self, seed: int | None) -> "SimulationQuery":
        return replace(self, seed=seed)

    def with_t_points(self, t_points) -> "SimulationQuery":
        return replace(self, t_points=as_grid(t_points))

    def run(self, engine="inline", **engine_options) -> SimulationResult:
        """Simulate in-process (simulation has no remote/distributed engine yet)."""
        if engine != "inline" or engine_options:
            raise EngineError(
                "simulation queries only support engine='inline'"
            )
        from ..simulation import PetriSimulator, empirical_cdf
        from ..utils.timing import Stopwatch

        simulator = PetriSimulator(self.model.net)
        predicate = self.model.predicate(self.target)
        stopwatch = Stopwatch()
        with stopwatch:
            samples = simulator.sample_passage_times(
                predicate, n_samples=self.replications, rng=self.seed
            )
        t_points = None if self.t_points is None else np.asarray(self.t_points, dtype=float)
        cdf = None if t_points is None else empirical_cdf(samples, t_points)
        return SimulationResult(
            samples=samples,
            t_points=t_points,
            cdf=cdf,
            statistics={
                "engine": "inline",
                "replications": int(self.replications),
                "seed": self.seed,
                "simulation_seconds": stopwatch.elapsed,
            },
        )
