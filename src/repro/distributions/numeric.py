"""Numerical Laplace–Stieltjes transforms for densities without closed forms.

The transform ``E[e^{-sT}] = int_0^inf e^{-st} f(t) dt`` is evaluated by
composite Gauss–Legendre quadrature on ``[0, upper]``.  The panel count adapts
to the oscillation frequency ``|Im(s)|`` so that each period of the
``e^{-i Im(s) t}`` factor is resolved by several panels.  Any probability mass
beyond ``upper`` is accounted for as an atom at ``upper`` (its contribution is
bounded by the tail probability, which callers keep below ~1e-10).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["numeric_lst"]

# 16-point Gauss–Legendre nodes/weights on [-1, 1], reused for every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def numeric_lst(
    pdf: Callable[[np.ndarray], np.ndarray],
    s_values: np.ndarray,
    *,
    upper: float,
    lower: float = 0.0,
    cdf: Callable[[np.ndarray], np.ndarray] | None = None,
    panels_per_period: int = 4,
    min_panels: int = 32,
    max_panels: int = 4000,
) -> np.ndarray:
    """Evaluate the Laplace transform of ``pdf`` at each complex ``s``.

    Parameters
    ----------
    pdf:
        Vectorised density function on ``[lower, upper]``.
    s_values:
        1-D array of complex transform arguments with ``Re(s) >= 0``.
    upper, lower:
        Integration limits; ``upper`` should capture essentially all mass.
    cdf:
        Optional CDF used to add the truncated-tail correction
        ``e^{-s upper} (1 - F(upper))``.
    panels_per_period:
        Number of quadrature panels per oscillation period of ``e^{-i Im(s) t}``.
    """
    s_values = np.asarray(s_values, dtype=complex).ravel()
    if upper <= lower:
        raise ValueError(f"upper ({upper}) must exceed lower ({lower})")
    if not np.isfinite(upper):
        raise ValueError("upper integration limit must be finite")

    if np.any(s_values.real < -1e-12):
        bad = s_values[s_values.real < -1e-12][0]
        raise ValueError(f"numeric_lst requires Re(s) >= 0, got {bad!r}")

    # Truncate further when the exponential damping makes the far tail
    # negligible: beyond t0 with Re(s) * (t0 - lower) > 46, e^{-Re(s) t} < 1e-20.
    eff_uppers = np.full(s_values.shape, upper)
    damped = s_values.real > 0
    eff_uppers[damped] = np.minimum(upper, lower + 46.0 / s_values.real[damped])
    eff_uppers = np.maximum(eff_uppers, lower + 1e-12)

    periods = np.abs(s_values.imag) * (eff_uppers - lower) / (2.0 * np.pi)
    panel_counts = np.clip(
        panels_per_period * (periods + 1), min_panels, max_panels
    ).astype(np.int64)

    # s-points sharing a quadrature grid — same truncation point and panel
    # count — are integrated together so the (expensive) density evaluation
    # at the nodes happens once per grid rather than once per s-point.  The
    # inversion contours this library uses produce long runs of such points:
    # every Euler s-point for one t-value has the same real part.
    out = np.empty(s_values.shape, dtype=complex)
    grids: dict[tuple[float, int], list[int]] = {}
    for idx in range(s_values.size):
        grids.setdefault((float(eff_uppers[idx]), int(panel_counts[idx])), []).append(idx)

    for (eff_upper, n_panels), indices in grids.items():
        edges = np.linspace(lower, eff_upper, n_panels + 1)
        # Many densities (Weibull, gamma with shape < 1, ...) have derivative
        # singularities at the lower endpoint; grade the first uniform panel
        # geometrically so the quadrature error there does not dominate.
        first_width = edges[1] - edges[0]
        graded = edges[0] + first_width * 0.5 ** np.arange(24, 0, -1)
        edges = np.concatenate(([edges[0]], graded, edges[1:]))
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        # nodes has shape (n_panels + 24, 16); flattened for broadcasting.
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        weighted_pdf = weights * np.asarray(pdf(nodes), dtype=float)
        tail = 0.0
        if cdf is not None:
            tail = max(1.0 - float(np.asarray(cdf(np.asarray([eff_upper])))[0]), 0.0)
        # Broadcast over the group's s-points in modest chunks so the
        # (n_s, n_nodes) oscillation factor never dominates memory, then sum
        # each point's row on its own (numpy's pairwise sum over one
        # contiguous row): a point's value is a function of that point alone,
        # never of which others share its call or its chunk, as a matmul's
        # blocking would make it.
        group = np.asarray(indices, dtype=np.int64)
        for start in range(0, group.size, 32):
            chunk = group[start : start + 32]
            s_chunk = s_values[chunk]
            terms = np.exp(-s_chunk[:, None] * nodes[None, :])
            terms *= weighted_pdf
            values = np.array([np.add.reduce(row) for row in terms])
            if tail > 0.0:
                values = values + tail * np.exp(-s_chunk * eff_upper)
            out[chunk] = values
    return out
