"""Result containers for passage-time and transient analyses.

A result is also *the reply* on every serving surface: ``to_wire()`` is the
JSON a synchronous ``POST /v1/<kind>`` answers with and a finished job stores
as its ``result``, ``from_wire()`` parses it back (the remote engine, the
CLI's job printer).  The reply's keys are spelled here and nowhere else; the
raw ``transform_values`` and the inversion ``method`` are not part of it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PassageTimeResult", "TransientResult", "RESULT_TYPES"]


def _wire_statistics(reply: dict) -> dict:
    """A reply's statistics, with the digest the server answered for."""
    return {**reply.get("statistics", {}), "model": reply.get("model")}


@dataclass
class PassageTimeResult:
    """Passage-time density / CDF evaluated on a grid of t-points.

    Attributes
    ----------
    t_points:
        The time points requested.
    density:
        ``f(t)`` at each t-point (``None`` when only the CDF was requested).
    cdf:
        ``F(t) = P(passage <= t)`` at each t-point (``None`` when only the
        density was requested).
    transform_values:
        The raw transform evaluations ``{s: L(s)}`` gathered for the
        inversion — kept so quantiles and extra t-points can reuse them.
    method:
        Inversion algorithm used ("euler" / "laguerre").
    quantiles:
        Refined quantiles ``{q: t}`` requested with the query (root-found
        with extra inversions, not interpolated from the CDF samples).
    statistics:
        Free-form diagnostics (iteration counts, wall-clock, worker counts).
    """

    t_points: np.ndarray
    density: np.ndarray | None = None
    cdf: np.ndarray | None = None
    transform_values: dict = field(default_factory=dict)
    method: str = "euler"
    quantiles: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t_points = np.asarray(self.t_points, dtype=float)
        if self.density is not None:
            self.density = np.asarray(self.density, dtype=float)
        if self.cdf is not None:
            self.cdf = np.asarray(self.cdf, dtype=float)

    # ------------------------------------------------------------- queries
    def probability_between(self, t1: float, t2: float) -> float:
        """``P(t1 < T < t2)`` estimated from the CDF samples by interpolation."""
        if self.cdf is None:
            raise ValueError("this result holds no CDF values")
        if t2 < t1:
            raise ValueError("t2 must be >= t1")
        lo, hi = np.interp([t1, t2], self.t_points, self.cdf)
        return float(np.clip(hi - lo, 0.0, 1.0))

    def quantile(self, q: float) -> float:
        """The time ``t`` with ``F(t) = q``, interpolated from the CDF samples.

        The answer is only as precise as the t-grid is fine around the
        quantile; use :meth:`PassageTimeSolver.quantile` for a refined root
        find that evaluates extra points.
        """
        if self.cdf is None:
            raise ValueError("this result holds no CDF values")
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        cdf = np.clip(self.cdf, 0.0, 1.0)
        # Euler-inversion oscillation can leave the sampled CDF locally
        # non-monotone, and ``np.interp`` on a non-increasing abscissa
        # silently returns a wrong t.  Interpolating on the running-max
        # envelope yields a genuine generalised inverse of the samples.
        envelope = np.maximum.accumulate(cdf)
        if q < envelope[0] or q > envelope[-1]:
            raise ValueError(
                f"quantile {q} lies outside the covered CDF range "
                f"[{envelope[0]:.4g}, {envelope[-1]:.4g}]"
            )
        return float(np.interp(q, envelope, self.t_points))

    def mean_estimate(self) -> float:
        """Mean passage time estimated from the density samples (trapezoid rule)."""
        if self.density is None:
            raise ValueError("this result holds no density values")
        return float(np.trapezoid(self.t_points * self.density, self.t_points))

    def normalisation_defect(self) -> float:
        """|1 - integral of the density over the covered grid| — a sanity measure."""
        if self.density is None:
            raise ValueError("this result holds no density values")
        return float(abs(1.0 - np.trapezoid(self.density, self.t_points)))

    #: column names of :meth:`as_table`
    columns = ("t", "density", "cdf")

    def as_table(self) -> list[tuple[float, float | None, float | None]]:
        """Rows ``(t, f(t), F(t))`` — convenient for printing benchmark output."""
        density = self.density if self.density is not None else [None] * len(self.t_points)
        cdf = self.cdf if self.cdf is not None else [None] * len(self.t_points)
        return [
            (float(t), None if f is None else float(f), None if F is None else float(F))
            for t, f, F in zip(self.t_points, density, cdf)
        ]

    # ---------------------------------------------------------------- wire
    def to_wire(self, model: str | None = None) -> dict:
        """The reply JSON; ``model`` is the digest the server answered for."""
        if len(self.quantiles) > 1:
            raise ValueError("the wire format carries one quantile per reply")
        reply = {"model": model, "measure": "passage", "t_points": self.t_points.tolist()}
        if self.density is not None:
            reply["density"] = self.density.tolist()
        if self.cdf is not None:
            reply["cdf"] = self.cdf.tolist()
        if self.quantiles:
            ((q, t),) = self.quantiles.items()
            reply["quantile"] = {"q": float(q), "t": float(t)}
        reply["statistics"] = dict(self.statistics)
        return reply

    @classmethod
    def from_wire(cls, reply: dict) -> "PassageTimeResult":
        quantile = reply.get("quantile")
        return cls(
            t_points=reply["t_points"],
            density=reply.get("density"),
            cdf=reply.get("cdf"),
            quantiles={float(quantile["q"]): float(quantile["t"])} if quantile else {},
            statistics=_wire_statistics(reply),
        )


@dataclass
class TransientResult:
    """Transient probability ``P(Z(t) in targets)`` on a grid of t-points."""

    t_points: np.ndarray
    probability: np.ndarray
    steady_state: float | None = None
    transform_values: dict = field(default_factory=dict)
    method: str = "euler"
    statistics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t_points = np.asarray(self.t_points, dtype=float)
        self.probability = np.asarray(self.probability, dtype=float)

    def convergence_gap(self) -> float | None:
        """|P(Z(t_max) in targets) - steady state| — how settled the tail is."""
        if self.steady_state is None:
            return None
        return float(abs(self.probability[-1] - self.steady_state))

    #: column names of :meth:`as_table`
    columns = ("t", "probability")

    def as_table(self) -> list[tuple[float, float]]:
        return [(float(t), float(p)) for t, p in zip(self.t_points, self.probability)]

    # ---------------------------------------------------------------- wire
    def to_wire(self, model: str | None = None) -> dict:
        """The reply JSON; ``model`` is the digest the server answered for."""
        reply = {
            "model": model,
            "measure": "transient",
            "t_points": self.t_points.tolist(),
            "probability": self.probability.tolist(),
        }
        if self.steady_state is not None:
            reply["steady_state"] = float(self.steady_state)
        reply["statistics"] = dict(self.statistics)
        return reply

    @classmethod
    def from_wire(cls, reply: dict) -> "TransientResult":
        steady = reply.get("steady_state")
        return cls(
            t_points=reply["t_points"],
            probability=reply["probability"],
            steady_state=None if steady is None else float(steady),
            statistics=_wire_statistics(reply),
        )


#: measure kind (a reply's ``measure``, a job's ``kind``) -> its result type
RESULT_TYPES = {"passage": PassageTimeResult, "transient": TransientResult}
