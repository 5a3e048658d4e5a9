"""Monte-Carlo simulation of a semi-Markov kernel."""
from __future__ import annotations

import numpy as np

from ..smp.embedded import source_weights
from ..smp.kernel import SMPKernel
from ..utils.rng import as_generator

__all__ = ["TrajectorySampler", "simulate_passage_times", "simulate_transient"]


class TrajectorySampler:
    """Samples trajectories of an SMP kernel state by state.

    Reads the kernel's image (:attr:`~repro.smp.kernel.SMPKernel.csr`, a
    state's branches in destination order) and adds the cumulative branch
    probabilities of each state, so that each simulated transition is a
    single binary search plus one distribution sample.
    """

    def __init__(self, kernel: SMPKernel):
        self.kernel = kernel
        self._offsets = kernel.csr.indptr
        self._dst = kernel.csr.indices
        self._dist_index = kernel.csr.dist_index
        probs = kernel.csr.probs
        # Per-state cumulative probabilities (normalised defensively).
        self._cum = np.empty_like(probs)
        for state in range(kernel.n_states):
            lo, hi = self._offsets[state], self._offsets[state + 1]
            if hi > lo:
                block = probs[lo:hi]
                self._cum[lo:hi] = np.cumsum(block) / block.sum()
        self._dists = kernel.distributions

    def step(self, state: int, rng: np.random.Generator) -> tuple[int, float]:
        """One transition from ``state``: returns ``(next_state, sojourn)``."""
        lo, hi = self._offsets[state], self._offsets[state + 1]
        if hi == lo:
            raise RuntimeError(f"state {state} has no outgoing transitions")
        u = rng.random()
        branch = lo + int(np.searchsorted(self._cum[lo:hi], u, side="left"))
        branch = min(branch, hi - 1)
        sojourn = float(np.asarray(self._dists[self._dist_index[branch]].sample(rng)))
        return int(self._dst[branch]), sojourn

    def sample_initial(self, alpha: np.ndarray, rng: np.random.Generator) -> int:
        return int(rng.choice(self.kernel.n_states, p=alpha))


def _resolve_alpha(kernel: SMPKernel, sources, alpha) -> np.ndarray:
    if alpha is not None:
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (kernel.n_states,):
            raise ValueError("alpha must have one weight per state")
        return alpha / alpha.sum()
    return source_weights(kernel, sources)


def simulate_passage_times(
    kernel: SMPKernel,
    sources,
    targets,
    *,
    n_samples: int = 10_000,
    rng=None,
    alpha: np.ndarray | None = None,
    max_transitions: int = 1_000_000,
) -> np.ndarray:
    """Sample first-passage times from ``sources`` into ``targets``.

    Each replication starts in a source state drawn from ``alpha`` (Eq. 5
    weighting by default), walks the embedded chain sampling sojourn times,
    and stops the first time a target state is *entered* (so a source that is
    also a target yields a cycle time, matching the analytic convention).
    """
    rng = as_generator(rng)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sampler = TrajectorySampler(kernel)
    alpha = _resolve_alpha(kernel, sources, alpha)
    targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
    if targets.size == 0 or targets.min() < 0 or targets.max() >= kernel.n_states:
        raise ValueError("invalid target states")
    target_mask = np.zeros(kernel.n_states, dtype=bool)
    target_mask[targets] = True

    out = np.empty(n_samples, dtype=float)
    for i in range(n_samples):
        state = sampler.sample_initial(alpha, rng)
        elapsed = 0.0
        for _ in range(max_transitions):
            state, sojourn = sampler.step(state, rng)
            elapsed += sojourn
            if target_mask[state]:
                break
        else:
            raise RuntimeError(
                f"replication {i} did not reach the target set within "
                f"{max_transitions} transitions"
            )
        out[i] = elapsed
    return out


def simulate_transient(
    kernel: SMPKernel,
    sources,
    targets,
    t_points,
    *,
    n_samples: int = 10_000,
    rng=None,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate ``P(Z(t) in targets)`` for each t by Monte-Carlo occupancy.

    Each replication simulates one trajectory up to ``max(t_points)`` and
    scores, for every requested time point, whether the state occupied at that
    instant belongs to the target set.
    """
    rng = as_generator(rng)
    t_points = np.asarray(list(t_points), dtype=float)
    if t_points.size == 0:
        return np.empty(0)
    if np.any(t_points < 0):
        raise ValueError("t_points must be non-negative")
    order = np.argsort(t_points)
    horizon = float(t_points.max())

    sampler = TrajectorySampler(kernel)
    alpha = _resolve_alpha(kernel, sources, alpha)
    targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
    target_mask = np.zeros(kernel.n_states, dtype=bool)
    target_mask[targets] = True

    hits = np.zeros(t_points.shape, dtype=float)
    for _ in range(n_samples):
        state = sampler.sample_initial(alpha, rng)
        clock = 0.0
        pointer = 0
        ordered = order
        while pointer < len(ordered):
            next_state, sojourn = sampler.step(state, rng)
            departure = clock + sojourn
            # The chain occupies `state` on [clock, departure).
            while pointer < len(ordered) and t_points[ordered[pointer]] < departure:
                if target_mask[state]:
                    hits[ordered[pointer]] += 1.0
                pointer += 1
            clock = departure
            state = next_state
            if clock > horizon:
                break
        # Any remaining t-points fall in the sojourn of the current state.
        while pointer < len(ordered):
            if target_mask[state]:
                hits[ordered[pointer]] += 1.0
            pointer += 1
    return hits / n_samples
