"""Laguerre Laplace-transform inversion (Abate, Choudhury & Whitt, 1996).

The density is expanded in the Laguerre basis ``l_n(t) = e^{-t/2} L_n(t)``:

    f(t) = sum_n q_n l_n(t)

where the coefficients ``q_n`` are the power-series coefficients of the
Laguerre generating function

    Q(z) = (1 - z)^{-1} F( (1 + z) / (2 (1 - z)) ).

``Q`` is sampled at ``N`` points on a circle of radius ``r < 1`` and the
coefficients recovered by an FFT (a discretised Cauchy integral).  Crucially —
and this is the property the paper exploits for its work queue — the set of
transform evaluation points depends only on ``N``, ``r`` and the optional
scaling parameters, *not* on the requested t-points.  The paper uses
``N = 400``, which is the default here.

The "modified" Laguerre method's scaling knobs are exposed as ``damping``
(exponential damping ``e^{-sigma t}``) and ``time_scale`` (evaluate the series
at ``t / b``); both default to the unmodified method.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ..utils.validation import check_positive
from .inverter import Inverter

__all__ = ["LaguerreInverter", "laguerre_s_points"]


def _contour_points(n_points: int, radius: float) -> np.ndarray:
    j = np.arange(n_points)
    return radius * np.exp(2j * np.pi * j / n_points)


def laguerre_s_points(
    *,
    n_points: int = 400,
    radius: float | None = None,
    damping: float = 0.0,
    time_scale: float = 1.0,
) -> np.ndarray:
    """The transform arguments needed by the Laguerre method (t-independent)."""
    if radius is None:
        radius = (1e-8) ** (1.0 / n_points)
    z = _contour_points(n_points, radius)
    s = (1.0 + z) / (2.0 * (1.0 - z))
    return (s + damping) / time_scale


class LaguerreInverter(Inverter):
    """Laguerre-series Laplace inverter.

    Parameters
    ----------
    n_points:
        Number of contour sample points (and maximum number of Laguerre
        coefficients).  The paper fixes this at 400.
    radius:
        Contour radius; defaults to ``1e-8 ** (1 / n_points)`` which balances
        aliasing error against round-off amplification.
    damping:
        Exponential damping ``sigma``: the method internally inverts
        ``e^{-sigma t} f(t)`` and multiplies the damping back in.  Useful for
        densities whose Laguerre coefficients decay slowly.
    time_scale:
        Time scaling ``b``: the series is evaluated at ``t / b``.  Pick ``b``
        of the order of the density's support so that the scaled argument is
        O(1–100), where the Laguerre basis resolves detail well.
    terms:
        Number of series terms actually summed (defaults to ``n_points``).
    """

    name = "laguerre"

    def __init__(
        self,
        n_points: int = 400,
        radius: float | None = None,
        damping: float = 0.0,
        time_scale: float = 1.0,
        terms: int | None = None,
    ):
        if n_points < 8:
            raise ValueError("n_points must be >= 8")
        self.n_points = int(n_points)
        self.radius = (
            (1e-8) ** (1.0 / self.n_points) if radius is None else float(radius)
        )
        if not 0.0 < self.radius < 1.0:
            raise ValueError("radius must lie in (0, 1)")
        if damping < 0.0:
            raise ValueError("damping must be >= 0")
        self.damping = float(damping)
        self.time_scale = check_positive(time_scale, "time_scale")
        self.terms = self.n_points if terms is None else int(terms)
        if not 1 <= self.terms <= self.n_points:
            raise ValueError("terms must lie in [1, n_points]")

    # ------------------------------------------------------------ protocol
    def required_s_points(self, t_points: Iterable[float]) -> np.ndarray:
        # The grid is independent of the t-points (paper Section 4); the
        # argument is accepted only to satisfy the shared protocol.
        _ = list(t_points)
        return laguerre_s_points(
            n_points=self.n_points,
            radius=self.radius,
            damping=self.damping,
            time_scale=self.time_scale,
        )

    def invert_cdf(self, transform, t_points):
        """Invert a CDF via ``L(s)/s``, automatically damping when needed.

        A CDF tends to one rather than zero, which the raw Laguerre basis
        (whose elements all decay like ``e^{-t/2}``) represents poorly.  The
        standard remedy from the "modified Laguerre" method is exponential
        damping: invert ``e^{-sigma t} F(t)`` and multiply the damping back
        in.  When the user has not already configured damping, a value of
        ``2 / max(t)`` is chosen automatically.
        """
        t_points = list(t_points)
        if self.damping > 0.0 or not t_points:
            return super().invert_cdf(transform, t_points)
        damped = LaguerreInverter(
            n_points=self.n_points,
            radius=self.radius,
            damping=2.0 / max(t_points),
            time_scale=self.time_scale,
            terms=self.terms,
        )
        return damped.invert_cdf(transform, t_points)

    def _invert_aligned(self, t_points: np.ndarray, values: np.ndarray) -> np.ndarray:
        return self._evaluate_series(self._coefficients(values), t_points)

    # ------------------------------------------------------------ internals
    def _coefficients(self, transform_values: np.ndarray) -> np.ndarray:
        """Recover the Laguerre coefficients ``q_n`` from contour samples."""
        z = _contour_points(self.n_points, self.radius)
        # transform_values are F((s_j + sigma)/b), which is exactly the
        # transform H(s_j) of the damped, time-scaled function
        # h(u) = b e^{-sigma u} f(b u); the series below therefore recovers h,
        # and _evaluate_series undoes the damping and the 1/b factor.
        h_vals = transform_values
        q_gen = h_vals / (1.0 - z)
        raw = np.fft.fft(q_gen) / self.n_points
        n = np.arange(self.n_points)
        coeffs = (raw * self.radius ** (-n)).real
        return coeffs[: self.terms]

    def _evaluate_series(self, coeffs: np.ndarray, t_points: np.ndarray) -> np.ndarray:
        out = np.empty(t_points.shape, dtype=float)
        for idx, t in enumerate(t_points):
            u = t / self.time_scale
            out[idx] = (
                self._laguerre_sum(coeffs, u)
                * np.exp(self.damping * u)
                / self.time_scale
            )
        return out

    @staticmethod
    def _laguerre_sum(coeffs: np.ndarray, u: float) -> float:
        """Sum ``sum_n coeffs[n] e^{-u/2} L_n(u)`` with a stable recurrence.

        The damped basis functions ``l_n(u) = e^{-u/2} L_n(u)`` are bounded by
        one in magnitude, so the recurrence is carried out directly on them to
        avoid overflowing the (undamped) Laguerre polynomials at large ``u``.
        """
        if u < 0:
            return 0.0
        damp = np.exp(-0.5 * u)
        l_prev = damp  # l_0
        total = coeffs[0] * l_prev
        if len(coeffs) == 1:
            return float(total)
        l_curr = damp * (1.0 - u)  # l_1
        total += coeffs[1] * l_curr
        for n in range(1, len(coeffs) - 1):
            l_next = ((2 * n + 1 - u) * l_curr - n * l_prev) / (n + 1)
            total += coeffs[n + 1] * l_next
            l_prev, l_curr = l_curr, l_next
        return float(total)
