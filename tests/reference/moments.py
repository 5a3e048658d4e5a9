"""Moments of a distribution recovered numerically from its Laplace transform.

``E[T^k] = (-1)^k d^k/ds^k L(s) |_{s=0}``.  The derivatives are estimated with
a polynomial fit through a short one-sided stencil, which is adequate for
the cross-checking these helpers serve: until PR 24 ``PassageTimeSolver
.moments()`` was this fit applied to the passage transform; it is now the
oracle of the exact solve that replaced it (``repro.smp.passage_moments``).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["lst_moments", "mean_from_lst", "variance_from_lst"]


def _derivatives_at_zero(lst: Callable[[np.ndarray], np.ndarray], order: int, h: float) -> np.ndarray:
    """Estimate derivatives 0..order of ``lst`` at ``s = 0`` from a short stencil.

    A polynomial several degrees higher than ``order`` is fitted through
    equally spaced samples on ``[0, (degree) * h]`` so the truncation error of
    the low-order derivatives is pushed well below the fitting noise.
    """
    degree = order + 4
    points = np.arange(degree + 1) * h
    values = np.asarray(lst(points.astype(complex)), dtype=complex).real
    coeffs = np.polyfit(points, values, degree)
    poly = np.poly1d(coeffs)
    return np.array([np.polyder(poly, k)(0.0) for k in range(order + 1)])


def lst_moments(
    lst: Callable[[np.ndarray], np.ndarray],
    order: int = 2,
    *,
    h: float | None = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Return moments ``E[T^0..T^order]`` estimated from the transform.

    Parameters
    ----------
    lst:
        Vectorised Laplace transform callable.
    order:
        Highest moment to estimate.
    h:
        Finite-difference step; defaults to ``1e-3 / scale``.
    scale:
        A rough time scale of the distribution (e.g. its mean); the step is
        made small relative to it so the polynomial fit stays in the regime
        where the transform is smooth.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if h is None:
        h = 1e-3 / max(scale, 1e-12)
    derivs = _derivatives_at_zero(lst, order, h)
    signs = np.array([(-1.0) ** k for k in range(order + 1)])
    return signs * derivs


def mean_from_lst(lst: Callable[[np.ndarray], np.ndarray], *, scale: float = 1.0) -> float:
    """Mean ``E[T]`` estimated from the transform."""
    return float(lst_moments(lst, 1, scale=scale)[1])


def variance_from_lst(lst: Callable[[np.ndarray], np.ndarray], *, scale: float = 1.0) -> float:
    """Variance estimated from the transform."""
    moments = lst_moments(lst, 2, scale=scale)
    return float(moments[2] - moments[1] ** 2)
