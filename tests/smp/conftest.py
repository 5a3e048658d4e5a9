"""Helpers shared by the smp test modules (the kernel fixtures live in tests/conftest.py)."""
from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.api import Model, resolve_state_sets
from repro.distributions import Deterministic, Erlang, Exponential, Uniform
from repro.models import VotingParameters, voting_spec_text
from repro.service.registry import ModelRegistry
from repro.smp import (
    ConvergenceDiagnostics,
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    source_weights,
)

#: no direct routing, no fallback: every point is iterated to the truncation rule
ITERATIVE_ONLY = SPointPolicy(predicted_iteration_limit=10**9, fallback_to_direct=False)


def block_of_one(kernel, alpha, targets, s, options=None):
    """The shipped row-form block solve at a grid of one, iterated:
    ``(value, diagnostics)``."""
    values, diags = passage_transform_batch(
        kernel, alpha, targets, [s], options, policy=ITERATIVE_ONLY
    )
    return complex(values[0]), diags[0]


def vector_block_of_one(kernel, targets, s, options=None):
    """The vector ``(L_{1->j}(s), ..., L_{N->j}(s))`` from the shipped row-form
    block solve, one unit ``alpha`` per source state, iterated: ``(vector,
    diagnostics)``, the diagnostics of the slowest source with ``converged``
    over all of them."""
    n = kernel.n_states
    vector = np.empty(n, dtype=complex)
    diags = []
    for source in range(n):
        alpha = np.zeros(n)
        alpha[source] = 1.0
        vector[source], diag = block_of_one(kernel, alpha, targets, s, options)
        diags.append(diag)
    slowest = max(diags, key=lambda d: d.iterations)
    return vector, ConvergenceDiagnostics(
        iterations=slowest.iterations,
        converged=all(d.converged for d in diags),
        final_delta=slowest.final_delta,
        matvec_count=slowest.matvec_count,
    )


def voting_measure(voters: int, polling_units: int, central_units: int):
    """``(kernel, alpha, targets)`` of the paper's passage measure — all voters
    waiting to all voted — on a voting model built from its spec text."""
    model = Model.from_spec(
        voting_spec_text(VotingParameters(voters, polling_units, central_units)),
        registry=ModelRegistry(),
    )
    sources, targets = resolve_state_sets(model.entry, "p1 == CC", "p2 == CC")
    kernel = model.entry.kernel
    return kernel, source_weights(kernel, sources), np.asarray(targets)


def random_kernel(rng: np.random.Generator, n_states: int, density: float = 0.35):
    """A random irreducible SMP used by property tests and ablations.

    A ring edge guarantees irreducibility; extra edges are sprinkled with the
    given density and each state's outgoing weights are normalised.
    """
    b = SMPBuilder()
    dists = [
        Exponential(float(rng.uniform(0.5, 4.0))),
        Erlang(float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 4))),
        Uniform(float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.5, 3.0))),
        Deterministic(float(rng.uniform(0.1, 2.0))),
    ]
    for i in range(n_states):
        b.add_state(f"n{i}")
    for i in range(n_states):
        successors = {(i + 1) % n_states}
        for j in range(n_states):
            if j != i and rng.random() < density:
                successors.add(j)
        weights = rng.random(len(successors)) + 0.1
        weights /= weights.sum()
        for w, j in zip(weights, sorted(successors)):
            b.add_transition(i, j, float(w), dists[int(rng.integers(0, len(dists)))])
    return b.build()


# --- the stationary vector's oracles: the two solvers ``dtmc_steady_state``
# --- chose between until PR 22, kept here to check the one it has now


def power_steady_state(P, tol: float = 1e-14, max_iterations: int = 200_000):
    """Damped power iteration ``pi <- pi (P + I)/2``: the same fixed point,
    aperiodic by construction, so it converges for periodic chains too."""
    P = sparse.csr_matrix(P)
    n = P.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        new = 0.5 * (pi @ P + pi)
        new /= new.sum()
        if np.max(np.abs(new - pi)) < tol:
            return new
        pi = new
    raise RuntimeError(f"power iteration did not converge within {max_iterations} iterations")


def dense_steady_state(P):
    """Dense solve of ``(P^T - I) pi = 0`` with the last equation replaced by
    ``sum(pi) = 1`` (exact; for chains of up to a few thousand states)."""
    P = sparse.csr_matrix(P).toarray()
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.solve(A, b), 0.0)
    return pi / pi.sum()
