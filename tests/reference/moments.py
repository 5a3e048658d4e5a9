"""Oracles of ``repro.smp.passage_moments``.

Two of them.  :func:`lu_passage_moments` solves the same real system at
``s = 0`` by a complete sparse LU, as the package did before its real solves
became ILU-preconditioned GMRES.  :func:`lst_moments` and its two shorthands
recover moments from a Laplace transform,
``E[T^k] = (-1)^k d^k/ds^k L(s) |_{s=0}``, with a polynomial fit through a
short one-sided stencil, which is adequate for the cross-checking these
helpers serve: until PR 24 ``PassageTimeSolver.moments()`` was this fit
applied to the passage transform.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from repro.smp.kernel import as_evaluator, target_mask

__all__ = ["lst_moments", "lu_passage_moments", "mean_from_lst", "variance_from_lst"]


def lu_passage_moments(kernel_or_evaluator, alpha, targets, order: int = 2) -> np.ndarray:
    """``E[T^0..T^order]`` (``order <= 2``) from a complete LU of ``A = I - P K``:
    ``A M_1 = h_1``, ``A M_2 = h_2 + 2 (P o m_1) K M_1``, ``E[T^r] = alpha . M_r``."""
    kernel = as_evaluator(kernel_or_evaluator).kernel
    csr, n = kernel.csr, kernel.n_states
    kept = np.where(target_mask(n, targets)[csr.indices], 0.0, csr.probs)
    pk = sparse.csr_matrix((kept, csr.indices, csr.indptr), shape=(n, n))
    lu = splinalg.splu((sparse.identity(n, format="csr") - pk).tocsc())
    alpha = np.asarray(alpha, dtype=float)
    first = lu.solve(kernel.mean_sojourn_times())
    m1 = np.asarray([d.mean() for d in kernel.distributions])
    m2 = np.asarray([d.variance() for d in kernel.distributions]) + m1**2
    per_edge = (
        csr.probs * m2[csr.dist_index] + 2.0 * kept * m1[csr.dist_index] * first[csr.indices]
    )
    second = lu.solve(np.bincount(csr.rows, weights=per_edge, minlength=n))
    return np.array([1.0, alpha @ first, alpha @ second])[: order + 1]


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
