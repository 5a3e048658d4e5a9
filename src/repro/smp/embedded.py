"""Steady state of the embedded DTMC and the multi-source weights of Eq. (5)."""
from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..utils.validation import require
from .kernel import SMPKernel

__all__ = ["dtmc_steady_state", "source_weights"]

#: a returned vector must satisfy ``max|pi P - pi|`` to this bound; a solve
#: that "converged" to anything worse is a failure, not an answer
_MAX_RESIDUAL = 1e-8


def dtmc_steady_state(
    P: sparse.spmatrix,
    *,
    method: str = "auto",
    tol: float = 1e-12,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Stationary distribution ``pi = pi P`` of an irreducible DTMC.

    Parameters
    ----------
    P:
        Sparse row-stochastic matrix.
    method:
        ``"direct"`` (sparse LU on the normal equations — exact, suitable up
        to a few thousand states), ``"power"`` (damped power iteration —
        memory-light, suitable for very large chains) or ``"auto"``.
    """
    P = sparse.csr_matrix(P)
    n = P.shape[0]
    require(P.shape[0] == P.shape[1], "P must be square")
    row_sums = np.asarray(P.sum(axis=1)).ravel()
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        raise ValueError("P must be row-stochastic")

    if method == "auto":
        method = "direct" if n <= 2000 else "power"
    if method not in ("direct", "power"):
        raise ValueError(f"unknown method {method!r}; expected 'auto', 'direct' or 'power'")

    started = time.perf_counter()
    with obs_trace.span("embedded-steady-state", n_states=n, method=method) as span:
        if method == "direct":
            pi, iterations = _solve_direct(P), 0
        else:
            pi, iterations = _solve_power(P, tol, max_iterations)
        residual = float(np.max(np.abs(pi @ P - pi)))
        span.set(iterations=iterations, residual=residual)
        if not residual <= _MAX_RESIDUAL:
            error = np.linalg.LinAlgError if method == "direct" else RuntimeError
            raise error(
                f"{method} steady-state solve failed: residual max|pi P - pi| = "
                f"{residual:.3g} exceeds {_MAX_RESIDUAL:g}"
            )
    metrics = get_metrics()
    metrics.counter(
        "repro_embedded_steady_state_solves_total",
        "embedded-DTMC stationary-vector solves (one per model when memoised)",
    ).inc()
    metrics.histogram(
        "repro_embedded_steady_state_seconds",
        "wall-clock per embedded-DTMC stationary-vector solve",
    ).observe(time.perf_counter() - started)
    return pi


def _solve_direct(P: sparse.csr_matrix) -> np.ndarray:
    # Solve (P^T - I) pi = 0 with the last equation replaced by sum(pi) = 1.
    n = P.shape[0]
    A = (P.T - sparse.identity(n, format="csc")).tolil()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = splinalg.spsolve(sparse.csc_matrix(A), b)
    pi = np.maximum(pi.real, 0.0)
    total = pi.sum()
    if total <= 0:
        raise np.linalg.LinAlgError("direct steady-state solve failed")
    return pi / total


def _solve_power(
    P: sparse.csr_matrix, tol: float, max_iterations: int
) -> tuple[np.ndarray, int]:
    # Damped iteration pi <- pi (P + I)/2 has the same fixed point but is
    # aperiodic by construction, so it converges for periodic chains too.
    n = P.shape[0]
    pi = np.full(n, 1.0 / n)
    for iteration in range(1, max_iterations + 1):
        new = 0.5 * (pi @ P + pi)
        new = np.asarray(new).ravel()
        new /= new.sum()
        if np.max(np.abs(new - pi)) < tol:
            return new, iteration
        pi = new
    raise RuntimeError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def source_weights(
    kernel: SMPKernel,
    sources,
    *,
    steady_state: np.ndarray | None = None,
    method: str = "auto",
) -> np.ndarray:
    """The ``alpha`` vector of Eq. (5): steady-state weights over the source set.

    For a single source state this is simply the corresponding unit vector.
    For multiple sources the embedded DTMC's stationary probabilities,
    restricted to the source set and renormalised, are used — the probability
    that the passage starts in each particular source state at equilibrium.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        raise ValueError("at least one source state is required")
    if sources.min() < 0 or sources.max() >= kernel.n_states:
        raise ValueError("source state index out of range")
    if np.unique(sources).size != sources.size:
        raise ValueError("duplicate source states")

    alpha = np.zeros(kernel.n_states)
    if sources.size == 1:
        alpha[sources[0]] = 1.0
        return alpha

    if steady_state is None:
        steady_state = kernel.embedded_steady_state(method)
    restricted = steady_state[sources]
    total = restricted.sum()
    if total <= 0:
        raise ValueError("the source states have zero steady-state probability")
    alpha[sources] = restricted / total
    return alpha
