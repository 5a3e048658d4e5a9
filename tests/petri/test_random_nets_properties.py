"""Hypothesis property tests over randomly generated SM-SPNs.

These check structural invariants of the reachability/kernel pipeline that
must hold for *any* well-formed net, not just the hand-built models.
"""
from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import PassageTimeSolver, TransientSolver
from repro.distributions import Deterministic, Erlang, Exponential, Immediate, Uniform
from repro.laplace import EulerInverter
from repro.petri import SMSPN, Transition, build_kernel, explore
from repro.petri.reachability import explore_reference
from tests.reference import eliminate_vanishing

from .test_statespace import assert_same_space, assert_same_build

DISTS = [Exponential(1.0), Erlang(2.0, 2), Uniform(0.2, 1.2), Deterministic(0.7)]


@st.composite
def random_nets(draw, immediate: bool = False):
    """A small random net of token-conserving transfer transitions.

    Every transition moves one token from one place to another, so the total
    token count is invariant and the state space is finite by construction.
    With ``immediate=True`` a transfer out of any place but ``p0`` may be a
    GSPN immediate transition: zero firing time at priority 1, so a marking
    that enables one is vanishing and the initial marking is not.  Such
    transfers can form a zero-time cycle.
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
        priority = 0
        if immediate and i != 0 and draw(st.booleans()):
            dist, priority = Immediate(), 1
        net.add_transition(
            Transition(
                name=f"t{index}",
                inputs={f"p{i}": 1},
                outputs={f"p{j}": 1},
                weight=weight,
                priority=priority,
                distribution=dist,
            )
        )
    return net, tokens


# Declarative spellings of "move one token from a to b".  The explorer folds
# some of them at compile time (place-free weights and priorities, ``p ± K``
# actions, conjunctions of place-vs-constant bounds) and keeps the rest on the
# per-wave expression path; every one must explore like the reference.
_GUARDS = [
    "{a} > 0",                      # folds
    "{a} >= ONE && {b} < CAP",      # folds: an interval over two places
    "HALF < {a}",                   # folds: mirrored, non-integer bound
    "{a} != 0",                     # expression path: != does not fold
    "{a} > 0 || {a} > 5",           # expression path: || does not fold
    "{a} > 0 && {a} > {b} - CAP",   # expression path: marking-dependent bound
]
_WEIGHTS = ["W{i}", "{w}", "W{i} * ONE", "W{i} + {a}"]  # the last is per-wave
_PRIORITIES = ["PRI", "1", "{a} > 1"]                    # the last is per-wave
_ACTIONS = [
    {"{a}": "{a} - ONE", "{b}": "{b} + ONE"},     # folds to a delta
    {"{a}": "{a} - 1", "{b}": "{b} + (ONE + 0)"},  # folds to a delta
    {"{a}": "{a} - 1", "{b}": "{b} + ({a} > 0)"},  # cross-place: per-wave
    {"{a}": "{a} - 0.6", "{b}": "{b} + 1.4"},      # non-integer: per-wave
    None,                                          # input / output arcs
]


@st.composite
def random_declarative_nets(draw):
    """The token-conserving transfer nets of :func:`random_nets`, declared
    with expression strings over named constants (the DNAmaca form)."""
    n_places = draw(st.integers(min_value=2, max_value=4))
    tokens = draw(st.integers(min_value=1, max_value=3))
    constants = {
        "ONE": 1.0,
        "HALF": 0.5,
        "CAP": float(draw(st.integers(min_value=1, max_value=tokens + 1))),
        "PRI": float(draw(st.integers(min_value=0, max_value=1))),
    }
    net = SMSPN("random-declarative")
    for p in range(n_places):
        net.add_place(f"p{p}", tokens if p == 0 else 0)
    pairs = [(i, (i + 1) % n_places) for i in range(n_places)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=n_places - 1))
        j = draw(st.integers(min_value=0, max_value=n_places - 1))
        if i != j:
            pairs.append((i, j))
    for index, (i, j) in enumerate(sorted(pairs)):
        names = {"a": f"p{i}", "b": f"p{j}", "i": index}
        weight = draw(st.floats(min_value=0.1, max_value=5.0))
        constants[f"W{index}"] = weight
        names["w"] = repr(weight)
        guard = draw(st.sampled_from(_GUARDS)).format(**names)
        action = draw(st.sampled_from(_ACTIONS))
        if action is None:
            kwargs = dict(inputs={f"p{i}": 1}, outputs={f"p{j}": 1})
        else:
            kwargs = dict(
                action={k.format(**names): v.format(**names) for k, v in action.items()}
            )
        if draw(st.booleans()):
            kwargs["distribution"] = DISTS[draw(st.integers(0, len(DISTS) - 1))]
        else:
            # Marking-dependent sojourn, built once per distinct token count.
            kwargs["distribution"] = lambda m, b=f"p{j}": Erlang(2.0, 1 + m[b])
            kwargs["distribution_depends"] = (f"p{j}",)
        net.add_transition(
            Transition(
                name=f"t{index}",
                guard=guard,
                weight=draw(st.sampled_from(_WEIGHTS)).format(**names),
                priority=draw(st.sampled_from(_PRIORITIES)).format(**names),
                constants=constants,
                **kwargs,
            )
        )
    return net, tokens


@given(random_declarative_nets(), st.sampled_from([None, 3, 12]))
@settings(max_examples=60, deadline=None)
def test_array_explorer_matches_reference_on_declarative_nets(case, max_states):
    """Folded and per-wave attributes run through one wave loop; either way
    the array explorer answers exactly like the reference."""
    net, tokens = case
    reference = explore_reference(net, max_states=max_states)
    space = explore(net, max_states=max_states)
    assert_same_space(reference, space)
    assert_same_build(reference, space)
    assert np.all(space.marking_array().sum(axis=1) == tokens)


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


# The Euler grid the product inverts for three t-points (99 s-points).
S_POINTS = EulerInverter().required_s_points([0.5, 1.5, 4.0])


def _reduced_pair(net):
    """The explored net and its reduction by the oracle, with the reduced
    states' indices in the unreduced space; nets the reduction refuses (a
    zero-time cycle) are skipped."""
    full = explore(net, max_states=500)
    try:
        reduced = eliminate_vanishing(full)
    except ValueError as exc:
        assert "cycle of vanishing markings" in str(exc)
        assume(False)
    assume(reduced is not full)
    tangible = [full.index_of(tuple(row)) for row in reduced.markings]
    return full, reduced, tangible


@given(random_nets(immediate=True), st.data(), st.sampled_from(["direct", "iterative"]))
@settings(max_examples=40, deadline=None)
def test_vanishing_markings_kept_measure_like_the_reduced_kernel(case, data, method):
    """GSPN immediate transitions need no reduction pass: on the unreduced
    kernel a vanishing marking is a zero-sojourn state (``h*(s) = 1`` in the
    passage sum, no weight in the transient), and the passage and transient
    transforms between tangible markings, on the grid the product inverts,
    equal the reduced kernel's.  The direct solve agrees to round-off; the
    iterative one truncates the two sums at different steps, so to within
    its tolerance."""
    net, _ = case
    full, reduced, tangible = _reduced_pair(net)
    n = reduced.n_states
    sources = [data.draw(st.integers(0, n - 1))]  # a set of transient states has no weights
    targets = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))))
    tolerance = 1e-12 if method == "direct" else 1e-7
    unreduced_kernel, reduced_kernel = build_kernel(full), build_kernel(reduced)
    for solver in (PassageTimeSolver, TransientSolver):
        unreduced = solver(
            unreduced_kernel, [tangible[i] for i in sources], [tangible[i] for i in targets],
            method=method,
        )
        expected = solver(reduced_kernel, sources, targets, method=method)
        assert np.max(np.abs(
            unreduced.job.evaluate_batch(S_POINTS) - expected.job.evaluate_batch(S_POINTS)
        )) <= tolerance, solver.__name__
