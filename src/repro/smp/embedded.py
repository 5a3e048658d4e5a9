"""Steady state of the embedded DTMC and the multi-source weights of Eq. (5).

The stationary vector is one real sparse solve at ``s = 0``: the pinned
system is handed to :func:`repro.smp.linear._real_solver`, the recipe the
passage time's moments use too (ILU once, preconditioned GMRES), so this
module carries no solver of its own, only its gate on ``max|pi P - pi|``.
"""
from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..utils.validation import require
from .kernel import SMPKernel
from .linear import _real_solver, closed_classes

__all__ = ["dtmc_steady_state", "source_weights"]

#: a returned vector must satisfy ``max|pi P - pi|`` to this bound; a solve
#: that "converged" to anything worse is a failure, not an answer
_MAX_RESIDUAL = 1e-8


def dtmc_steady_state(P: sparse.spmatrix) -> np.ndarray:
    """Stationary distribution ``pi = pi P`` of a DTMC with one closed class.

    One method at every size.  A few damped power steps find a recurrent
    state that carries mass; that state's probability is pinned to one, which
    removes its row and column from the singular system ``(I - P^T) pi = 0``
    and leaves a sparse non-singular one, solved by ILU-preconditioned GMRES
    warm-started from the power iterate; the result is renormalised.
    Transient states — those outside the closed class — come back with
    probability exactly zero.

    Raises :class:`numpy.linalg.LinAlgError` — the one failure of this
    function — when it has no vector to return: the chain has several closed
    classes (so no unique stationary vector; checked on its graph first), the
    incomplete factorisation breaks down, or what GMRES delivers fails the
    residual gate ``max|pi P - pi| <= 1e-8``.  There is no second method to
    fall back on.
    """
    P = sparse.csr_matrix(P)
    n = P.shape[0]
    require(P.shape[0] == P.shape[1], "P must be square")
    row_sums = np.asarray(P.sum(axis=1)).ravel()
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        raise ValueError("P must be row-stochastic")

    started = time.perf_counter()
    with obs_trace.span("embedded-steady-state", n_states=n) as span:
        # A class no edge leaves is closed; each one carries a stationary
        # vector of its own, so the answer is unique only when there is one.
        label, closed = closed_classes(P)
        if closed.size != 1:
            raise np.linalg.LinAlgError(
                f"steady-state solve failed: the chain has {closed.size} closed "
                "classes, so its stationary vector is not unique"
            )
        # Damped steps pi <- pi (P + I)/2 keep the fixed point and are
        # aperiodic by construction.  Pinning a state of negligible mass
        # leaves a system too ill-scaled to solve, a transient one a singular
        # system: take the heaviest recurrent state.
        pi = np.full(n, 1.0 / n)
        for _ in range(min(n, 200)):
            pi = 0.5 * (pi @ P + pi)
        pinned = int(np.argmax(np.where(label == closed[0], pi, 0.0)))
        iterations, fill = 0, 0.0
        if n > 1:
            keep = np.delete(np.arange(n), pinned)
            system = (sparse.identity(n - 1, format="csr") - P[keep][:, keep]).T
            solve, fill = _real_solver(system)
            solution, iterations, _ = solve(
                P[[pinned]][:, keep].toarray().ravel(), x0=pi[keep] / pi[pinned]
            )
            pi = np.insert(solution, pinned, 1.0)
        # A state outside the closed class is transient: its probability is
        # zero exactly, not the solve's round-off.
        pi[label != closed[0]] = 0.0
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        residual = float(np.max(np.abs(pi @ P - pi)))
        span.set(
            iterations=iterations, residual=residual,
            pinned_state=pinned, ilu_fill=round(fill, 3),
        )
        if not residual <= _MAX_RESIDUAL:
            raise np.linalg.LinAlgError(
                "steady-state solve failed: residual max|pi P - pi| = "
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


def source_weights(
    kernel: SMPKernel,
    sources,
    *,
    steady_state: np.ndarray | None = None,
) -> np.ndarray:
    """The ``alpha`` vector of Eq. (5): steady-state weights over the source set.

    For a single source state this is simply the corresponding unit vector.
    For multiple sources the embedded DTMC's stationary probabilities,
    restricted to the source set and renormalised, are used — the probability
    that the passage starts in each particular source state at equilibrium.
    A transient source has stationary probability zero, so it gets no weight
    beside a recurrent one.  A set of transient states only has no
    equilibrium weighting at all; it is weighted uniformly, ``1 / |sources|``
    each — the passage from a source drawn at random from the set.
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
        steady_state = kernel.embedded_steady_state()
    restricted = steady_state[sources]
    total = restricted.sum()
    alpha[sources] = restricted / total if total > 0 else 1.0 / sources.size
    return alpha
