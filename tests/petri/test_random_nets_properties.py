"""Hypothesis property tests over randomly generated SM-SPNs.

These check structural invariants of the reachability/kernel pipeline that
must hold for *any* well-formed net, not just the hand-built models.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distributions import Deterministic, Erlang, Exponential, Uniform
from repro.petri import SMSPN, Transition, build_kernel, explore
from repro.petri.reachability import explore_reference

from .test_statespace import assert_same_space, assert_same_build

DISTS = [Exponential(1.0), Erlang(2.0, 2), Uniform(0.2, 1.2), Deterministic(0.7)]


@st.composite
def random_nets(draw):
    """A small random net of token-conserving transfer transitions.

    Every transition moves one token from one place to another, so the total
    token count is invariant and the state space is finite by construction.
    """
    n_places = draw(st.integers(min_value=2, max_value=4))
    tokens = draw(st.integers(min_value=1, max_value=3))
    net = SMSPN("random")
    for p in range(n_places):
        net.add_place(f"p{p}", tokens if p == 0 else 0)
    # A ring of transfers guarantees every token can keep moving (no deadlock),
    # extra random transfers add branching — and, where a pair repeats,
    # parallel edges between the same two markings.
    pairs = [(i, (i + 1) % n_places) for i in range(n_places)]
    n_extra = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_extra):
        i = draw(st.integers(min_value=0, max_value=n_places - 1))
        j = draw(st.integers(min_value=0, max_value=n_places - 1))
        if i != j:
            pairs.append((i, j))
    for index, (i, j) in enumerate(sorted(pairs)):
        weight = draw(st.floats(min_value=0.1, max_value=5.0))
        dist = DISTS[draw(st.integers(min_value=0, max_value=len(DISTS) - 1))]
        net.add_transition(
            Transition(
                name=f"t{index}",
                inputs={f"p{i}": 1},
                outputs={f"p{j}": 1},
                weight=weight,
                distribution=dist,
            )
        )
    return net, tokens


@given(random_nets())
@settings(max_examples=40, deadline=None)
def test_reachable_markings_conserve_tokens(case):
    net, tokens = case
    graph = explore(net, max_states=500)
    assert graph.n_states >= 1
    totals = graph.marking_array().sum(axis=1)
    assert np.all(totals == tokens)


@given(random_nets())
@settings(max_examples=40, deadline=None)
def test_kernel_is_row_stochastic_and_connected_enough(case):
    net, _ = case
    graph = explore(net, max_states=500)
    kernel = build_kernel(graph)
    P = kernel.embedded_matrix()
    row_sums = np.asarray(P.sum(axis=1)).ravel()
    assert np.allclose(row_sums, 1.0)
    # Firing probabilities out of each explored marking sum to one as well.
    for state in range(graph.n_states):
        choices = net.firing_choices(graph.markings[state])
        if choices:
            assert sum(p for _, p, _, _ in choices) == 1.0 or abs(
                sum(p for _, p, _, _ in choices) - 1.0
            ) < 1e-9


@given(random_nets(), st.sampled_from([None, 3, 12]))
@settings(max_examples=60, deadline=None)
def test_array_explorer_matches_reference_on_generated_nets(case, max_states):
    """Aim 3's "generated models, not only the bundled ones" for the explorer:
    same columns, and kernels — parallel edges merged into mixtures — that
    agree on ``U(s)`` to 1e-12."""
    net, _ = case
    reference = explore_reference(net, max_states=max_states)
    space = explore(net, max_states=max_states)
    assert_same_space(reference, space)
    assert_same_build(reference, space)


@given(random_nets(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_simulated_choice_frequencies_match_probabilities(case, seed):
    """The simulator's branch selection follows the SM-SPN probabilities."""
    net, _ = case
    marking = net.initial_marking
    choices = net.firing_choices(marking)
    if len(choices) < 2:
        return
    from repro.simulation import PetriSimulator

    simulator = PetriSimulator(net)
    rng = np.random.default_rng(seed)
    counts = {tuple(m): 0 for _, _, m, _ in choices}
    n_draws = 400
    for _ in range(n_draws):
        next_marking, _ = simulator._step(marking, rng)
        counts[tuple(next_marking)] = counts.get(tuple(next_marking), 0) + 1
    for _, probability, next_marking, _ in choices:
        observed = counts[tuple(next_marking)] / n_draws
        # Different transitions can lead to the same next marking, so the
        # observed frequency may exceed a single branch's probability; it must
        # never be significantly below it.
        assert observed >= probability - 4.5 * np.sqrt(probability * (1 - probability) / n_draws) - 1e-9
