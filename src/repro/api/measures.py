"""The one recipe per measure, shared by every evaluation surface.

A measure is computed the same way wherever it is asked for — the api
engines, the solver classes on a raw kernel, the analysis service and its
job runner.  :func:`passage` and :func:`transient` are that recipe: derive
the :class:`~repro.api.plan.QueryPlan`, :func:`gather` its s-points through
the one evaluation loop
(:meth:`repro.service.scheduler.CoalescingScheduler.evaluate`),
:func:`invert` the aligned values into a density or a CDF,
:func:`refine_quantile` by root-finding on extra single-t inversions that go
through the same loop and the same store, and assemble the result object.
A surface supplies only *how to gather* — which scheduler, lock, observer —
as a callable; :func:`compute` is the step before, from a query on a built
model to the recipe.  Because these are the only implementations, results
agree across surfaces by construction.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from ..core.results import PassageTimeResult, TransientResult
from ..obs import trace as obs_trace
from ..utils.timing import Stopwatch
from .model import resolve_state_sets
from .plan import QueryPlan, build_job

__all__ = [
    "QuantileNotBracketed", "cdf_probe", "compute", "gather", "invert",
    "passage", "refine_quantile", "transient",
]


class QuantileNotBracketed(ValueError):
    """``F(t_lower) <= q <= F(t_upper)`` does not hold; callers re-raise it
    as their surface's own error type."""


def gather(scheduler, job, plan: QueryPlan, stats, **dispatch) -> dict[complex, complex]:
    """The transform values of ``plan``: ``{s_key: L(s)}`` for every scheduled
    point, resolved through the one loop.

    ``dispatch`` is passed to the scheduler as is (``eval_lock``,
    ``progress_key``, ``reporter``, ``block_points``, ``on_block``).
    """
    return scheduler.evaluate(
        job, plan.s_points, keys=plan.s_keys, stats=stats, **dispatch
    )


def invert(plan: QueryPlan, resolved, stats, *, cdf: bool = False) -> np.ndarray:
    """Invert gathered values on the plan's t-grid: ``f(t)``, or ``F(t)`` from
    ``L(s)/s`` with ``cdf=True`` (paper §5.3.1).

    The values are laid out on the plan's *exact* grid first (a folded
    conjugate is the conjugate of its mirror image's value), so the division
    pairs each value with the same float on every surface.
    """
    values = plan.on_grid(resolved)
    if cdf:
        # Python complex division, not NumPy's: the two round differently in
        # the last bit, and results must not depend on which surface divided.
        values = [
            v / s for v, s in zip(values.tolist(), plan.required_s_points.tolist())
        ]
    stopwatch = Stopwatch()
    with stopwatch, obs_trace.span(
        "inversion", method=plan.inverter.name, n_t_points=int(plan.t_points.size),
        measure="cdf" if cdf else "density",
    ):
        result = plan.inverter.invert_values(plan.t_points, values)
    stats.inversion_seconds += stopwatch.elapsed
    return result


def cdf_probe(gather_plan, inverter, stats) -> Callable[[float], float]:
    """``t -> F(t)``: one single-t plan gathered (``gather_plan(plan)``, the
    caller's bound :func:`gather`) and inverted per call."""

    def cdf_at(t: float) -> float:
        plan = QueryPlan.derive(inverter, [t])
        return float(invert(plan, gather_plan(plan), stats, cdf=True)[0])

    return cdf_at


def refine_quantile(
    cdf_at: Callable[[float], float],
    q: float,
    t_lower: float,
    t_upper: float,
) -> float:
    """Root-find ``F(t) = q`` on ``[t_lower, t_upper]`` (paper §5.3.1)."""
    lo = cdf_at(t_lower) - q
    hi = cdf_at(t_upper) - q
    if lo > 0 or hi < 0:
        raise QuantileNotBracketed(
            f"quantile {q} is not bracketed by [{t_lower:.6g}, {t_upper:.6g}] "
            f"(F(lower)-q={lo:.4g}, F(upper)-q={hi:.4g})"
        )
    from scipy import optimize

    return float(optimize.brentq(lambda t: cdf_at(t) - q, t_lower, t_upper, xtol=1e-6))


def passage(
    gather_plan,
    inverter,
    t_points,
    stats,
    *,
    density: bool = True,
    cdf: bool = False,
    quantiles=(),
    bracket: tuple[float, float] | None = None,
) -> PassageTimeResult:
    """The passage-time measure on ``t_points``: ``f(t)`` and/or ``F(t)``, and
    each of ``quantiles`` root-found within ``bracket`` (by default from the
    smallest t-point to ten times the largest).

    ``gather_plan(plan)`` is the caller's bound :func:`gather`.  It is handed
    the measure's own plan first, then one single-t plan per quantile probe.
    Raises :class:`QuantileNotBracketed`.
    """
    plan = QueryPlan.derive(inverter, t_points)
    resolved = gather_plan(plan)
    f = invert(plan, resolved, stats) if density else None
    F = invert(plan, resolved, stats, cdf=True) if cdf else None
    found: dict[float, float] = {}
    if quantiles:
        t_lower, t_upper = bracket or (
            float(plan.t_points.min()), 10.0 * float(plan.t_points.max())
        )
        cdf_at = cdf_probe(gather_plan, inverter, stats)
        for q in quantiles:
            found[q] = refine_quantile(cdf_at, q, t_lower, t_upper)
    return PassageTimeResult(
        t_points=plan.t_points,
        density=f,
        cdf=F,
        transform_values=resolved,
        method=inverter.name,
        quantiles=found,
        statistics=stats.as_dict(),
    )


def transient(
    gather_plan, inverter, t_points, stats, *, steady_state: float | None = None
) -> TransientResult:
    """The transient measure ``P(Z(t) in targets)`` on ``t_points``;
    ``steady_state`` is its ``t -> infinity`` limit when the caller wants it
    reported."""
    plan = QueryPlan.derive(inverter, t_points)
    resolved = gather_plan(plan)
    return TransientResult(
        t_points=plan.t_points,
        probability=invert(plan, resolved, stats),
        steady_state=steady_state,
        transform_values=resolved,
        method=inverter.name,
        statistics=stats.as_dict(),
    )


def compute(query, entry, stats, gather_job):
    """Run ``query`` on the built model ``entry``: state sets, job, recipe.

    ``gather_job(job, plan)`` is how the surface gathers a plan of the
    query's job.  Raises the api errors (:class:`PredicateError`, ...) and
    :class:`QuantileNotBracketed`.
    """
    sources, targets = resolve_state_sets(entry, query.source, query.target)
    job = build_job(
        entry, query.kind, sources, targets,
        solver=query.solver, epsilon=query.epsilon,
    )
    gather_plan = functools.partial(gather_job, job)
    inverter, t_points = query.make_inverter(), query.grid()
    if query.kind == "passage":
        return passage(
            gather_plan, inverter, t_points, stats, density=query.include_density,
            cdf=query.include_cdf, quantiles=query.quantiles,
        )
    steady = entry.steady_state(targets) if query.include_steady_state else None
    return transient(gather_plan, inverter, t_points, stats, steady_state=steady)
