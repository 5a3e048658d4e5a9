"""Long-run state probabilities of a semi-Markov process.

The SMP spends, in the long run, a fraction of time in state ``i``
proportional to ``pi_hat_i * m_i`` where ``pi_hat`` is the stationary vector
of the embedded DTMC and ``m_i`` the mean sojourn time in ``i``.  These are
the values the transient distribution of Fig. 7 converges to as t -> inf.
"""
from __future__ import annotations

import numpy as np

from .kernel import SMPKernel

__all__ = ["smp_steady_state", "steady_state_probability"]


def smp_steady_state(
    kernel: SMPKernel,
    *,
    embedded_pi: np.ndarray | None = None,
) -> np.ndarray:
    """Limiting probability of finding the SMP in each state."""
    if embedded_pi is None:
        embedded_pi = kernel.embedded_steady_state()
    embedded_pi = np.asarray(embedded_pi, dtype=float)
    if embedded_pi.shape != (kernel.n_states,):
        raise ValueError("embedded_pi must have one probability per state")
    mean_sojourns = kernel.mean_sojourn_times()
    if np.any(~np.isfinite(mean_sojourns)):
        raise ValueError("all mean sojourn times must be finite for a steady state to exist")
    weighted = embedded_pi * mean_sojourns
    total = weighted.sum()
    if total <= 0:
        raise ValueError("total mean cycle time is not positive")
    return weighted / total


def steady_state_probability(
    kernel: SMPKernel,
    states,
    *,
    embedded_pi: np.ndarray | None = None,
) -> float:
    """Limiting probability of the SMP occupying any state in ``states``."""
    states = np.atleast_1d(np.asarray(states, dtype=np.int64))
    if states.size == 0:
        return 0.0
    if states.min() < 0 or states.max() >= kernel.n_states:
        raise ValueError("state index out of range")
    pi = smp_steady_state(kernel, embedded_pi=embedded_pi)
    return float(pi[np.unique(states)].sum())
