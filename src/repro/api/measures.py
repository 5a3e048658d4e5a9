"""The measure helpers every evaluation surface shares.

A measure is computed the same way wherever it is asked for — the api
engines, the solver classes on a raw kernel, the analysis service and its
job runner: derive the :class:`~repro.api.plan.QueryPlan`, :func:`gather`
its s-points through the one evaluation loop
(:meth:`repro.service.scheduler.CoalescingScheduler.evaluate`),
:func:`invert` the aligned values into a density or a CDF, and
:func:`refine_quantile` by root-finding on extra single-t inversions that go
through the same loop and the same store.  Because these are the only
implementations, results agree across surfaces by construction.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import optimize

from ..obs import trace as obs_trace
from ..utils.timing import Stopwatch
from .plan import QueryPlan

__all__ = ["QuantileNotBracketed", "cdf_probe", "gather", "invert", "refine_quantile"]


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
    *,
    xtol: float = 1e-6,
) -> float:
    """Root-find ``F(t) = q`` on ``[t_lower, t_upper]`` (paper §5.3.1)."""
    lo = cdf_at(t_lower) - q
    hi = cdf_at(t_upper) - q
    if lo > 0 or hi < 0:
        raise QuantileNotBracketed(
            f"quantile {q} is not bracketed by [{t_lower:.6g}, {t_upper:.6g}] "
            f"(F(lower)-q={lo:.4g}, F(upper)-q={hi:.4g})"
        )
    return float(optimize.brentq(lambda t: cdf_at(t) - q, t_lower, t_upper, xtol=xtol))
