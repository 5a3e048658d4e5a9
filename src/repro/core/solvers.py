"""User-facing solvers for passage-time and transient measures on a raw kernel.

Thin shims: each solver owns a job, an inverter and one evaluation loop (a
:class:`~repro.service.scheduler.CoalescingScheduler` over an in-memory
result store, on the given executor) and computes its measures with the
recipe every other surface uses (:mod:`repro.api.measures`).  The store
lives as long as the solver, so repeated t-grids and overlapping Euler grids
cost nothing extra.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from ..api import measures
from ..api.plan import QueryPlan
from ..distributions.moments import lst_moments
from ..laplace import get_inverter
from ..service.cache import TieredResultCache
from ..service.scheduler import CoalescingScheduler, QueryStatistics
from ..smp.embedded import source_weights
from ..smp.kernel import SMPKernel
from ..smp.passage import PassageTimeOptions
from ..smp.steady import steady_state_probability
from .jobs import PassageTimeJob, TransientJob, TransformJob
from .results import PassageTimeResult, TransientResult

__all__ = ["PassageTimeSolver", "TransientSolver"]


class _BaseSolver:
    """Shared plumbing: source weighting, the job, the evaluation loop."""

    def __init__(
        self,
        kernel: SMPKernel,
        sources,
        targets,
        *,
        alpha: np.ndarray | None = None,
        method: str = "iterative",
        inversion: str = "euler",
        options: PassageTimeOptions | None = None,
        inverter_options: Mapping | None = None,
        backend=None,
    ):
        if not isinstance(kernel, SMPKernel):
            raise TypeError("kernel must be an SMPKernel")
        self.kernel = kernel
        self.sources = np.unique(np.atleast_1d(np.asarray(sources, dtype=np.int64)))
        self.targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
        if alpha is None:
            alpha = source_weights(kernel, self.sources)
        else:
            alpha = np.asarray(alpha, dtype=float)
            if alpha.shape != (kernel.n_states,):
                raise ValueError("alpha must have one weight per state")
        self.alpha = alpha
        self.options = options or PassageTimeOptions()
        self.method = method
        self.inverter = get_inverter(inversion, **(dict(inverter_options or {})))
        self._job = self._build_job()
        self._scheduler = CoalescingScheduler(TieredResultCache(), backend=backend)
        #: accounting of everything this solver has evaluated so far
        self.statistics = QueryStatistics()

    # ------------------------------------------------------------ subclass
    def _build_job(self) -> TransformJob:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------ plumbing
    @property
    def job(self) -> TransformJob:
        return self._job

    def transform(self, s: complex) -> complex:
        """The measure's Laplace transform at a single s-point."""
        return self._job.evaluate(complex(s))

    def _gather(self, plan: QueryPlan) -> dict[complex, complex]:
        return measures.gather(self._scheduler, self._job, plan, self.statistics)


class PassageTimeSolver(_BaseSolver):
    """First-passage-time analysis from a set of sources to a set of targets.

    Parameters
    ----------
    kernel:
        The semi-Markov kernel.
    sources, targets:
        State index sets.  Multiple sources are weighted by the embedded
        DTMC's steady-state probabilities (Eq. 5) unless ``alpha`` is given.
    method:
        ``"iterative"`` (the paper's algorithm) or ``"direct"`` (sparse solve).
    inversion:
        ``"euler"`` (default, robust to discontinuities) or ``"laguerre"``.
    backend:
        Optional executor from :mod:`repro.distributed` (default: in-process).
    """

    def _build_job(self) -> TransformJob:
        return PassageTimeJob(
            kernel=self.kernel,
            alpha=self.alpha,
            targets=self.targets,
            options=self.options,
            solver=self.method,
        )

    # ------------------------------------------------------------- measures
    def density(self, t_points) -> np.ndarray:
        """Passage-time density ``f(t)`` at each t-point."""
        return self.solve(t_points, include_cdf=False).density

    def cdf(self, t_points) -> np.ndarray:
        """Passage-time distribution function ``F(t)`` at each t-point."""
        return self.solve(t_points, include_density=False).cdf

    def solve(self, t_points, *, include_density: bool = True, include_cdf: bool = True) -> PassageTimeResult:
        """Compute density and/or CDF over ``t_points`` and package the result."""
        result = measures.passage(
            self._gather, self.inverter, t_points, self.statistics,
            density=include_density, cdf=include_cdf,
        )
        result.statistics["solver"] = self.method
        return result

    def quantile(self, q: float, t_lower: float, t_upper: float) -> float:
        """The passage-time quantile ``t`` with ``P(T <= t) = q``.

        A bracketing root find on the inverted CDF; each function evaluation
        costs one inversion (33 transform evaluations with the default Euler
        parameters), all served from the solver's result store when possible.
        """
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        if t_upper <= t_lower:
            raise ValueError("t_upper must exceed t_lower")
        return measures.passage(
            self._gather, self.inverter, [t_lower, t_upper], self.statistics,
            density=False, quantiles=(q,), bracket=(t_lower, t_upper),
        ).quantiles[q]

    def moments(self, order: int = 2, *, scale: float | None = None) -> np.ndarray:
        """Moments ``E[T^k]`` of the passage time from the transform near s=0.

        The finite-difference step used to differentiate the transform must be
        small relative to the *passage-time* scale, which for long rare-event
        passages can be orders of magnitude larger than any single sojourn.
        Starting from the sojourn-based guess (or an explicit ``scale``), the
        estimate is therefore refined self-consistently: the step is re-derived
        from the estimated mean until the two agree to within a factor of two.
        """
        if scale is None:
            scale = float(np.dot(self.kernel.mean_sojourn_times(), np.abs(self.alpha))) or 1.0
        scale = max(float(scale), 1e-12)

        # Moment estimation samples the transform at s-points very close to
        # zero, which is exactly where the iterative sum needs the most
        # transitions to converge.  For kernels of the size this library
        # handles in-process, the direct sparse solve is both exact and much
        # faster there, so it is used for these few evaluations regardless of
        # the solver selected for the inversion s-points.
        if self.method == "direct" or self.kernel.n_states > 50_000:
            moment_job = self._job
        else:
            moment_job = PassageTimeJob(
                kernel=self.kernel,
                alpha=self.alpha,
                targets=self.targets,
                options=self.options,
                solver="direct",
            )

        def transform_vec(s):
            return np.asarray(
                [moment_job.evaluate(complex(x)) for x in np.atleast_1d(s)]
            )

        moments = lst_moments(transform_vec, max(order, 1), scale=scale)
        for _ in range(8):
            mean_estimate = float(moments[1])
            if not np.isfinite(mean_estimate) or mean_estimate <= 0:
                break
            if 0.5 <= mean_estimate / scale <= 2.0:
                break
            scale = mean_estimate
            moments = lst_moments(transform_vec, max(order, 1), scale=scale)
        if order < 1:
            return moments[: order + 1]
        if order > 1:
            moments = lst_moments(transform_vec, order, scale=scale)
        return moments

    def mean(self) -> float:
        """Mean passage time (first moment of the transform)."""
        return float(self.moments(1)[1])


class TransientSolver(_BaseSolver):
    """Transient state distribution ``P(Z(t) in targets)`` analysis."""

    def _build_job(self) -> TransformJob:
        return TransientJob(
            kernel=self.kernel,
            alpha=self.alpha,
            targets=self.targets,
            options=self.options,
            solver=self.method,
        )

    def probability(self, t_points) -> np.ndarray:
        """``P(Z(t) in targets)`` at each t-point."""
        return self.solve(t_points, include_steady_state=False).probability

    def steady_state(self) -> float:
        """The t -> infinity limit of the transient probability."""
        return steady_state_probability(self.kernel, self.targets)

    def solve(self, t_points, *, include_steady_state: bool = True) -> TransientResult:
        result = measures.transient(
            self._gather, self.inverter, t_points, self.statistics,
            steady_state=self.steady_state() if include_steady_state else None,
        )
        result.statistics["solver"] = self.method
        return result
