"""Query planning: from a t-grid to the canonical s-grid, before any work.

The paper's pipeline is *plan-then-evaluate*: the inversion algorithm fixes
which transform evaluations ``L(s)`` are needed for a given t-grid, the
master distributes exactly those, and the inverter assembles the answer from
the returned values.  :class:`QueryPlan` reifies that first step so every
execution engine (in-process, multiprocessing, distributed, remote) and the
analysis service derive the *same* canonical s-grid from the same query —
the property that makes result caches and coalescing correct across entry
points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.jobs import PassageTimeJob, TransformJob, TransientJob
from ..laplace.inverter import Inverter, fold_conjugates
from ..smp import PassageTimeOptions, source_weights
from .errors import PlanError

__all__ = ["Grid", "QueryPlan", "as_grid", "build_job"]

_JOB_TYPES = {"passage": PassageTimeJob, "transient": TransientJob}


class Grid(tuple):
    """A checked t-grid: one or more finite, strictly positive floats.

    :func:`as_grid` is its only constructor, so holding one is the proof the
    check ran — a query's grid is validated when it is set and not again
    when the plan is derived from it.
    """

    __slots__ = ()


def as_grid(t_points) -> Grid:
    """The one t-grid check; raises :class:`PlanError`."""
    if type(t_points) is Grid:
        return t_points
    try:
        grid = Grid(float(t) for t in np.atleast_1d(np.asarray(t_points, dtype=float)))
    except (TypeError, ValueError) as exc:
        raise PlanError(f"t-points must be a sequence of numbers: {exc}") from None
    if not grid:
        raise PlanError("a query needs at least one t-point")
    if not all(0.0 < t < math.inf for t in grid):  # false for NaN too
        raise PlanError("t-points must be finite and strictly positive")
    return grid


@dataclass(frozen=True)
class QueryPlan:
    """The evaluation schedule derived from a query before any evaluation.

    Attributes
    ----------
    t_points:
        The requested time grid.
    inverter:
        The configured inversion algorithm that produced the s-grid.
    required_s_points:
        Every s-point the inverter will look up, in inverter order (one block
        of ``points_per_t`` per t-point for Euler; t-independent for
        Laguerre).
    s_points:
        The de-duplicated, conjugate-folded subset that actually needs
        evaluating — ``L(conj(s)) = conj(L(s))`` for real measures, so only
        one member of each conjugate pair is scheduled.
    s_keys:
        The canonical cache key of each scheduled point, aligned with
        ``s_points``.  Every required point is canonicalised exactly once,
        here; the scheduler, the cache and :meth:`on_grid` reuse these keys.
    """

    t_points: np.ndarray
    inverter: Inverter
    required_s_points: np.ndarray = field(repr=False)
    s_points: np.ndarray = field(repr=False)
    s_keys: list[complex] = field(repr=False)
    #: per required point: its scheduled point's position, and whether it is
    #: that point's folded mirror image (its value is the conjugate)
    _scheduled_at: np.ndarray = field(repr=False)
    _mirrored: np.ndarray = field(repr=False)

    @classmethod
    def derive(cls, inverter: Inverter, t_points) -> "QueryPlan":
        """Derive the canonical evaluation grid for ``t_points``."""
        t_points = np.asarray(as_grid(t_points), dtype=float)
        required = inverter.required_s_points(t_points)
        s_points, s_keys, scheduled_at, mirrored = fold_conjugates(required)
        return cls(
            t_points=t_points,
            inverter=inverter,
            required_s_points=required,
            s_points=s_points,
            s_keys=s_keys,
            _scheduled_at=scheduled_at,
            _mirrored=mirrored,
        )

    # -------------------------------------------------------------- queries
    @property
    def n_evaluations(self) -> int:
        """Transform evaluations needed after dedup and conjugate folding."""
        return int(self.s_points.size)

    @property
    def conjugates_folded(self) -> int:
        return int(self.required_s_points.size - self.s_points.size)

    def on_grid(self, resolved) -> np.ndarray:
        """Transform values aligned with ``required_s_points``.

        ``resolved`` maps each of ``s_keys`` to its value; a folded point is
        recovered as the conjugate of its mirror image's value.  The array
        feeds ``inverter.invert_values`` directly, and pairs with the *exact*
        grid points for arithmetic such as the CDF's ``L(s)/s``.
        """
        values = np.asarray([resolved[key] for key in self.s_keys], dtype=complex)
        values = values[self._scheduled_at]
        return np.where(self._mirrored, values.conj(), values)

    def describe(self) -> dict:
        return {
            "t_points": [float(t) for t in self.t_points],
            "inversion": self.inverter.name,
            "s_points_required": int(self.required_s_points.size),
            "s_points_scheduled": self.n_evaluations,
            "conjugates_folded": self.conjugates_folded,
        }


def build_job(
    entry,
    kind: str,
    sources,
    targets,
    *,
    solver: str = "iterative",
    epsilon: float = 1e-8,
    policy=None,
) -> TransformJob:
    """Construct the transform-evaluation job for a measure on a built model.

    ``entry`` is a :class:`~repro.service.registry.ModelEntry`; the entry's
    shared :class:`~repro.smp.kernel.UEvaluator` is attached so every measure
    on the kernel reuses its CSR structure and cached ``U(s)`` grids.  Used
    by the local execution engines and by the analysis service — the single
    place a query's parameters become a job.
    """
    job_type = _JOB_TYPES.get(kind)
    if job_type is None:
        raise PlanError(f"unknown measure kind {kind!r}; expected 'passage' or 'transient'")
    if solver not in ("iterative", "direct"):
        raise PlanError("solver must be 'iterative' or 'direct'")
    try:
        epsilon = float(epsilon)
    except (TypeError, ValueError):
        raise PlanError("epsilon must be a number") from None
    job = job_type(
        kernel=entry.kernel,
        alpha=source_weights(entry.kernel, sources),
        targets=targets,
        options=PassageTimeOptions(epsilon=epsilon),
        solver=solver,
        policy=policy,
    )
    job.attach_evaluator(entry.evaluator)
    return job
