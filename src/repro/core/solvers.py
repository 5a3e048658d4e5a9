"""User-facing solvers for passage-time and transient measures on a raw kernel.

Thin shims: each solver owns a job, an inverter and one evaluation loop (a
:class:`~repro.service.scheduler.CoalescingScheduler` over an in-memory
result store, on the given executor) and computes its measures with the
recipe every other surface uses (:mod:`repro.api.measures`).  The store
lives as long as the solver, so repeated t-grids and overlapping Euler grids
cost nothing extra.  The classes own no algorithm: a single transform value
is a block of one through the same loop, and the moments are
:func:`repro.smp.linear.passage_moments`.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from ..api import measures
from ..api.plan import QueryPlan
from ..laplace import get_inverter
from ..service.cache import TieredResultCache
from ..service.scheduler import CoalescingScheduler, QueryStatistics
from ..smp.embedded import source_weights
from ..smp.kernel import SMPKernel
from ..smp.linear import passage_moments
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
        """The measure's Laplace transform at a single s-point: a block of
        one through the solver's loop, so routed by the job's policy, stored
        and counted in :attr:`statistics` like every point of a grid."""
        (value,) = self._scheduler.evaluate(
            self._job, [complex(s)], stats=self.statistics
        ).values()
        return value

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

    def moments(self, order: int = 2) -> np.ndarray:
        """Raw moments ``E[T^0], ..., E[T^order]`` of the passage time, exact:
        two real sparse solves, no transform (``order <= 2``; see
        :func:`~repro.smp.linear.passage_moments` for what it refuses)."""
        return passage_moments(self._job.evaluator, self.alpha, self.targets, order)

    def mean(self) -> float:
        """Mean passage time."""
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
