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
    PassageTimeOptions,
    SMPBuilder,
    SPointPolicy,
    passage_transform_batch,
    source_weights,
)

#: no direct routing, no fallback: every point is iterated to the truncation rule
ITERATIVE_ONLY = SPointPolicy(predicted_iteration_limit=10**9, fallback_to_direct=False)


#: the LU's own error, allowed on top of ``final_delta``
LU_SLACK = 1e-12


def assert_within_deltas(values, diags, others, other_diags) -> None:
    """Two truncations of one passage sum — the batch engine's walk and the
    factored engine's or the oracle's global iteration stop at different
    terms — each within its ``final_delta`` of the exact transform, so of
    each other within the two summed."""
    values, others = np.atleast_1d(values), np.atleast_1d(others)
    bound = np.array([d.final_delta for d in np.atleast_1d(diags)]) + np.array(
        [d.final_delta for d in np.atleast_1d(other_diags)]
    )
    gap = np.abs(values - others)
    assert (gap <= bound + LU_SLACK).all(), float(np.max(gap - bound))


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


def zero_walk_steps(kernel, alpha, targets, options=None) -> dict[frozenset, int]:
    """The passage walk at ``s = 0``, real and on its own: ``N_B(0)`` per
    strong component ``B`` the walk from ``alpha`` reaches.

    ``U'(0) = P'``, the embedded chain with the target columns dropped.  Its
    strong components are found here, ordered topologically, and each
    reached one is summed from its inflow by ``x_B = sum_r b_B P'_BB^r``
    under the driver's rule — stop after ``consecutive`` steps with
    ``||b_B P'_BB^r||_1 < epsilon / (reached components)`` — and pushed on
    through ``P'``.  For ``Re s >= 0`` every ``|L_d(s)| <= 1``, so
    ``|U'(s)| <= P'`` entrywise and, component by component in topological
    order, ``|b_B(s) U'_BB(s)^r| <= b_B(0) P'_BB^r``: no s-point takes more
    steps in ``B`` than ``N_B(0)`` (probe 11's bound, per component).
    Returns ``{frozenset(states of B): N_B(0)}``.
    """
    from scipy.sparse import csgraph

    options = options or PassageTimeOptions()
    n = kernel.n_states
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(targets)] = True
    P = kernel.embedded_matrix().tocsr()
    kept = P.multiply(np.where(mask, 0.0, 1.0)[None, :]).tocsr()
    kept.eliminate_zeros()
    _, label = csgraph.connected_components(kept, connection="strong")
    components: dict[int, np.ndarray] = {}
    for state in np.flatnonzero(~mask):
        components.setdefault(int(label[state]), []).append(int(state))
    components = {c: np.asarray(states) for c, states in components.items()}
    edges = kept.tocoo()
    later = {c: set() for c in components}
    for i, j in zip(edges.row, edges.col):
        if label[i] != label[j] and not mask[i]:
            later[int(label[i])].add(int(label[j]))
    # Kahn's algorithm over the component graph
    waiting = {c: 0 for c in components}
    for heads in later.values():
        for head in heads:
            waiting[head] += 1
    ready, order = [c for c, count in waiting.items() if count == 0], []
    while ready:
        c = ready.pop()
        order.append(c)
        for head in later[c]:
            waiting[head] -= 1
            if waiting[head] == 0:
                ready.append(head)
    inflow = np.asarray(alpha, dtype=float) @ P
    reached = {int(label[j]) for j in np.flatnonzero((inflow != 0.0) & ~mask)}
    for c in order:
        if c in reached:
            reached |= later[c]
    epsilon = options.epsilon / max(len(reached), 1)
    steps = {}
    for c in order:
        if c not in reached:
            continue
        states = components[c]
        block = kept[states][:, states]
        w = inflow[states]
        x = w.copy()
        below = count = 0
        while count < options.max_iterations and below < options.consecutive:
            w = w @ block
            x += w
            count += 1
            below = below + 1 if np.abs(w).sum() < epsilon else 0
        steps[frozenset(states.tolist())] = count
        push = x @ kept[states]
        push[states] = 0.0
        inflow = inflow + push
    return steps


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


def fan_out_kernel(n_states: int = 300, degree: int = 40, seed: int = 7):
    """A service-pool kernel: every state hands off to ~``degree`` successors
    drawn from six sojourn distributions, so ``auto`` factors it."""
    rng = np.random.default_rng(seed)
    sojourns = [
        Exponential(1.2), Erlang(2.0, 3), Uniform(0.2, 1.4),
        Deterministic(0.5), Erlang(1.0, 2), Exponential(4.0),
    ]
    b = SMPBuilder()
    for i in range(n_states):
        b.add_state(f"s{i}")
    for i in range(n_states):
        successors = np.unique(
            np.concatenate([[(i + 1) % n_states], rng.integers(0, n_states, degree)])
        )
        successors = successors[successors != i]
        weights = rng.random(successors.size) + 0.05
        weights /= weights.sum()
        for w, j in zip(weights, successors):
            b.add_transition(i, int(j), float(w), sojourns[int(rng.integers(0, len(sojourns)))])
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
