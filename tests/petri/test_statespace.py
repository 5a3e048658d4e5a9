"""Equivalence suite: the array explorer vs. the per-marking reference.

For every bundled model :func:`repro.petri.explore` must produce *exactly*
the state space of :func:`repro.petri.reachability.explore_reference` — same
markings in the same order, same edge columns, same deadlocks, same
truncation behaviour — and the kernels built from both must agree on ``U(s)``
to 1e-12 at sampled s-points.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Erlang, Exponential, Immediate, Uniform
from repro.dnamaca import load_model
from repro.models import SCALED_CONFIGURATIONS, build_voting_net, voting_spec_text
from repro.models.queues import web_server_net
from repro.petri import SMSPN, StateSpace, Transition, build_kernel, explore
from repro.petri.reachability import explore_reference
from tests.reference import eliminate_vanishing

S_POINTS = (0.5 + 0.0j, 1.0 + 1.0j, 3.0 - 2.0j)


def deadlock_net() -> SMSPN:
    """A net that runs into a dead marking (drained token)."""
    net = SMSPN("drain")
    net.add_place("a", 2)
    net.add_place("b", 0)
    net.add_transition(
        Transition(name="go", inputs={"a": 1}, outputs={"b": 1}, distribution=Exponential(1.0))
    )
    return net


def routed_net() -> SMSPN:
    """Timed arrival + immediate routing (exercises vanishing elimination)."""
    net = SMSPN("routed")
    net.add_place("idle", 1)
    net.add_place("router", 0)
    net.add_place("left", 0)
    net.add_place("right", 0)
    net.add_transition(
        Transition(name="arrive", inputs={"idle": 1}, outputs={"router": 1},
                   distribution=Erlang(2.0, 2))
    )
    net.add_transition(
        Transition(name="route_left", inputs={"router": 1}, outputs={"left": 1},
                   weight=3.0, distribution=Immediate())
    )
    net.add_transition(
        Transition(name="route_right", inputs={"router": 1}, outputs={"right": 1},
                   weight=1.0, distribution=Immediate())
    )
    net.add_transition(
        Transition(name="serve_left", inputs={"left": 1}, outputs={"idle": 1},
                   distribution=Uniform(0.5, 1.5))
    )
    net.add_transition(
        Transition(name="serve_right", inputs={"right": 1}, outputs={"idle": 1},
                   distribution=Exponential(1.0))
    )
    return net


def bundled_models():
    """(label, net factory) for every bundled model family."""
    yield "voting-tiny", lambda: build_voting_net(SCALED_CONFIGURATIONS["tiny"])
    yield "voting-small", lambda: build_voting_net(SCALED_CONFIGURATIONS["small"])
    yield (
        "voting-dnamaca-tiny",
        lambda: load_model(voting_spec_text(SCALED_CONFIGURATIONS["tiny"]), name="voting-spec"),
    )
    yield "web-server", web_server_net          # opaque-lambda fallback path
    yield "deadlock", deadlock_net
    yield "routed-immediate", routed_net


def assert_same_space(reference: StateSpace, space: StateSpace):
    for column in ("marking_matrix", "edge_src", "edge_dst", "edge_trans", "deadlock_states"):
        assert np.array_equal(getattr(space, column), getattr(reference, column)), column
    assert space.transition_names == reference.transition_names
    assert space.truncated == reference.truncated
    assert space.initial_state == reference.initial_state
    # The two explorers may number the distribution table differently.
    assert [space.distributions[i] for i in space.edge_dist] == [
        reference.distributions[i] for i in reference.edge_dist
    ]
    # Both compute weight / total, but the reference totals a marking's n
    # enabled weights with a sequential Python sum and the array explorer with
    # NumPy's pairwise row sum.  Two orders of one non-negative sum differ by
    # at most 2(n-1) roundings and the division adds one on each side: 2n
    # roundings of relative size 2**-53, so fewer than 2n spacings (measured on
    # voting-small: 29 of 730 edges differ, none by more than 2 spacings).
    ulps = 2 * len(space.transition_names)
    assert np.all(
        np.abs(space.edge_prob - reference.edge_prob) <= ulps * np.spacing(reference.edge_prob)
    )


def assert_same_kernel(legacy_kernel, vector_kernel, tol=1e-12):
    assert vector_kernel.n_states == legacy_kernel.n_states
    assert vector_kernel.n_transitions == legacy_kernel.n_transitions
    assert vector_kernel.state_names == legacy_kernel.state_names
    for ours, theirs in zip(vector_kernel.adjacency(), legacy_kernel.adjacency()):
        assert np.array_equal(ours, theirs)
    difference = (
        legacy_kernel.evaluator().u_data_batch(S_POINTS)
        - vector_kernel.evaluator().u_data_batch(S_POINTS)
    )
    assert np.abs(difference).max() <= tol


def assert_same_build(reference: StateSpace, space: StateSpace):
    """Same kernel — or, where a truncated frontier state lost every edge and
    cannot be normalised, the same refusal."""
    try:
        reference_kernel = build_kernel(reference, allow_truncated=True)
    except ValueError:
        with pytest.raises(ValueError):
            build_kernel(space, allow_truncated=True)
    else:
        assert_same_kernel(reference_kernel, build_kernel(space, allow_truncated=True))


@pytest.mark.parametrize("label,factory", list(bundled_models()), ids=lambda v: v if isinstance(v, str) else "")
def test_vectorized_explorer_matches_legacy(label, factory):
    net = factory()
    legacy = explore_reference(net)
    space = explore(net)
    assert isinstance(space, StateSpace)
    assert_same_space(legacy, space)
    assert_same_kernel(build_kernel(legacy), build_kernel(space))


@pytest.mark.parametrize("cap", [1, 10, 40])
def test_truncation_parity(cap):
    net = build_voting_net(SCALED_CONFIGURATIONS["tiny"])
    legacy = explore_reference(net, max_states=cap)
    space = explore(net, max_states=cap)
    assert legacy.truncated and space.truncated
    assert_same_space(legacy, space)
    assert_same_build(legacy, space)


def test_truncated_kernel_refused_without_opt_in():
    net = build_voting_net(SCALED_CONFIGURATIONS["tiny"])
    space = explore(net, max_states=10)
    with pytest.raises(ValueError, match="truncated"):
        build_kernel(space)


def test_deadlock_parity_and_self_loops():
    net = deadlock_net()
    legacy = explore_reference(net)
    space = explore(net)
    assert_same_space(legacy, space)
    assert len(space.deadlocks) == 1
    assert_same_kernel(build_kernel(legacy), build_kernel(space))


def test_vanishing_elimination_matches_legacy():
    full = explore(routed_net())
    assert (full.n_states, full.n_edges) == (4, 5)
    space = eliminate_vanishing(full)
    assert isinstance(space, StateSpace)
    # The router marking is gone; the arrival's sojourn rides on both folded
    # edges, whose probabilities are the 3:1 routing weights.
    assert space.marking_matrix.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert space.edges == [
        (0, 1, 0.75, Erlang(2.0, 2), "arrive"),
        (0, 2, 0.25, Erlang(2.0, 2), "arrive"),
        (1, 0, 1.0, Uniform(0.5, 1.5), "serve_left"),
        (2, 0, 1.0, Exponential(1.0), "serve_right"),
    ]
    assert space.initial_state == 0 and space.deadlocks.size == 0
    idle = space.index_of((1, 0, 0, 0))
    left = space.index_of((0, 0, 1, 0))
    P = build_kernel(space).embedded_matrix().toarray()
    assert P[idle, left] == pytest.approx(0.75)


def test_vanishing_cycle_detected_in_array_domain():
    net = SMSPN("zeno")
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_place("c", 0)
    net.add_transition(
        Transition(name="start", inputs={"a": 1}, outputs={"b": 1},
                   distribution=Exponential(1.0))
    )
    net.add_transition(
        Transition(name="i1", inputs={"b": 1}, outputs={"c": 1}, distribution=Immediate())
    )
    net.add_transition(
        Transition(name="i2", inputs={"c": 1}, outputs={"b": 1}, distribution=Immediate())
    )
    with pytest.raises(ValueError, match="cycle of vanishing markings"):
        eliminate_vanishing(explore(net))


def test_unpackable_markings_use_dict_interning_with_same_result():
    """Nets whose markings exceed the 63-bit packing budget stay correct."""
    net = SMSPN("wide")
    n = 8
    for i in range(n):
        net.add_place(f"q{i}", 300)   # 300 needs 9 bits; 8 * 9 = 72 > 63
    for i in range(n):
        net.add_transition(
            Transition(
                name=f"t{i}",
                inputs={f"q{i}": 1},
                outputs={f"q{(i + 1) % n}": 1},
                distribution=Exponential(1.0),
            )
        )
    legacy = explore_reference(net, max_states=400)
    space = explore(net, max_states=400)
    assert space._index is not None          # byte-dict fallback engaged
    assert_same_space(legacy, space)
    assert space.index_of(space.marking_matrix[123]) == 123


def _fault_net(**transition_kwargs) -> SMSPN:
    net = SMSPN("faulting")
    net.add_place("a", 0)
    net.add_place("b", 1)
    net.add_transition(
        Transition(name="t", distribution=Exponential(1.0), **transition_kwargs)
    )
    return net


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(inputs={"b": 1}, outputs={"a": 1}, weight="1 / a"),
        dict(inputs={"b": 1}, action={"a": "1 / a"}),
        dict(inputs={"b": 1}, outputs={"a": 1}, guard="1 / a > 1"),
        dict(inputs={"b": 1}, outputs={"a": 1}, priority="1 / a"),
    ],
    ids=["weight", "action", "guard", "priority"],
)
def test_arithmetic_faults_in_declarative_attributes_match_legacy(kwargs):
    """Expressions dividing by a zero token count raise exactly like the
    scalar path — never a silently divergent state space (the vector path
    detects the fault and re-evaluates those rows per-state)."""
    with pytest.raises(ZeroDivisionError):
        explore_reference(_fault_net(**kwargs))
    with pytest.raises(ZeroDivisionError):
        explore(_fault_net(**kwargs))


def test_declarative_attributes_evaluate_only_where_enabled(monkeypatch):
    """A fault in an arc-disabled row must neither raise nor demote the wave
    to the per-row scalar fallback (the scalar path never sees that row)."""

    def build():
        net = SMSPN("masked")
        net.add_place("p1", 1)
        net.add_place("p2", 0)
        net.add_transition(
            Transition(name="go", inputs={"p1": 1}, outputs={"p2": 1},
                       weight="6 / p1", distribution=Exponential(1.0))
        )
        net.add_transition(
            Transition(name="back", inputs={"p2": 1}, outputs={"p1": 1},
                       distribution=Exponential(2.0))
        )
        return net

    legacy = explore_reference(build())
    # If the vectorized path fell back to scalar evaluation anywhere, this
    # trap would fire.
    monkeypatch.setattr(
        Transition, "weight_in",
        lambda self, view: (_ for _ in ()).throw(AssertionError("scalar fallback used")),
    )
    space = explore(build())
    assert_same_space(legacy, space)


def test_state_space_equality_does_not_crash():
    net = build_voting_net(SCALED_CONFIGURATIONS["tiny"])
    space = explore(net)
    assert space == space
    assert space != explore(net)   # identity semantics, no ValueError


def test_lazy_branch_division_matches_legacy():
    """A division guarded by the if-branch is legal in the scalar path; the
    vectorized fallback must reproduce that (lazy) semantics, not fault."""
    net = _fault_net(
        inputs={"b": 1}, outputs={"a": 1}, weight="(1 / a if a > 0 else 2)"
    )
    legacy = explore_reference(net)
    space = explore(net)
    assert_same_space(legacy, space)


def test_interner_repacks_when_token_counts_grow():
    """Marking counts that outgrow the initial bit budget trigger a repack."""
    net = SMSPN("doubling")
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_transition(
        Transition(
            name="double",
            guard="a < 1000",
            action={"a": "a * 2", "b": "b + 1"},
            distribution=Exponential(1.0),
        )
    )
    legacy = explore_reference(net)
    space = explore(net)
    assert_same_space(legacy, space)
    assert int(space.marking_matrix[:, 0].max()) == 1024


def _negative_pair_net(action) -> SMSPN:
    """State 0 fires ``t0`` into state 1 and ``t1`` into state 2; in the
    next wave state 1 fires ``t3`` into ``(0, -1, 0)`` and state 2 fires
    ``t2`` into ``(0, 0, -1)``.  ``action(place)`` builds the bad action."""
    net = SMSPN("negative")
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_place("c", 0)
    net.add_transition(
        Transition(name="t0", inputs={"a": 1}, outputs={"b": 1}, distribution=Exponential(1.0))
    )
    net.add_transition(
        Transition(name="t1", inputs={"a": 1}, outputs={"c": 1}, distribution=Exponential(2.0))
    )
    net.add_transition(
        Transition(name="t2", guard="c > 0", action=action("c"), distribution=Exponential(3.0))
    )
    net.add_transition(
        Transition(name="t3", guard="b > 0", action=action("b"), distribution=Exponential(4.0))
    )
    return net


@pytest.mark.parametrize(
    "action",
    [
        lambda place: {place: f"{place} - 2"},
        lambda place: {place: f"{place} - 2 + 0 * a"},
        lambda place: (lambda m: {place: m[place] - 2}),
    ],
    ids=["folded-delta", "vector-action", "callable-action"],
)
def test_negative_marking_names_the_first_pair_in_stream_order(action):
    """Both offending pairs sit in one wave: the error names the pair the
    reference meets first (state 1's ``t3``), not the lowest transition."""
    net = _negative_pair_net(action)
    for explorer in (explore_reference, explore):
        with pytest.raises(ValueError) as raised:
            explorer(net)
        assert str(raised.value) == "firing 't3' produced a negative marking (0, -1, 0)"


# ---------------------------------------------------------------------------
# Compile once: place-free attributes fold at compile time
# ---------------------------------------------------------------------------


def _two_state_net(**dead_kwargs) -> SMSPN:
    """``go`` / ``back`` shuttle one token between ``a`` and ``b``; ``dead``
    is a third transition configured by the caller."""
    net = SMSPN("shuttle")
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_place("never", 0)
    net.add_transition(
        Transition(name="go", inputs={"a": 1}, outputs={"b": 1}, distribution=Exponential(1.0))
    )
    net.add_transition(
        Transition(name="back", inputs={"b": 1}, outputs={"a": 1}, distribution=Exponential(2.0))
    )
    net.add_transition(
        Transition(name="dead", distribution=Exponential(3.0), constants={"K": 1.0}, **dead_kwargs)
    )
    return net


@pytest.mark.parametrize("weight", [-1.0, "-K"], ids=["number", "folded"])
def test_negative_weight_raises_only_once_active(weight):
    """A negative weight is an error of the marking that activates it, not
    of the net: a transition that is never enabled explores like the
    reference, and one that is enabled raises like it."""
    idle = _two_state_net(inputs={"never": 1}, outputs={"a": 1}, weight=weight)
    reference = explore_reference(idle)
    assert reference.n_states == 2
    assert_same_space(reference, explore(idle))

    live = _two_state_net(inputs={"a": 1}, outputs={"never": 1}, weight=weight)
    for explorer in (explore_reference, explore):
        with pytest.raises(ValueError, match="'dead' produced a negative weight"):
            explorer(live)


@pytest.mark.parametrize("guard", ["0", "K > 5", "never > 0 && K < 0", "a > K"])
def test_constant_false_and_unsatisfiable_guards_fold(guard):
    net = _two_state_net(guard=guard, action={"a": "a + 1"})
    reference = explore_reference(net)
    assert_same_space(reference, explore(net))
    assert reference.n_states == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(weight="1 / 0"),
        dict(priority="1 / 0"),
        dict(guard="b > 1 / 0"),
        dict(action={"a": "a + 1 / 0"}),
    ],
    ids=["weight", "priority", "guard", "action"],
)
@pytest.mark.parametrize("live", [False, True], ids=["idle", "live"])
def test_faulting_constant_stays_on_the_expression_path(kwargs, live):
    """``1/0`` is place-free but does not fold: where the transition is
    evaluated both explorers raise, and where it never is both explore."""
    kwargs = {"inputs": {"b" if live else "never": 1}, "outputs": {}, **kwargs}
    if "action" not in kwargs:
        kwargs["outputs"] = {"a": 1}
    net = _two_state_net(**kwargs)
    if live:
        for explorer in (explore_reference, explore):
            with pytest.raises(ZeroDivisionError):
                explorer(net)
    else:
        assert_same_space(explore_reference(net), explore(net))


def _slot_net(slots: int, padding: int) -> SMSPN:
    """One token in ``c`` moves into any empty slot ``x<j>`` and back; an
    ``x<j>`` that holds a token has a ``bump`` transition whose guard
    ``0 < x<j> && x<j> < 1`` no integer satisfies, so only the guard's
    upper bound keeps it disabled.  ``padding`` idle places widen the net."""
    net = SMSPN(f"slots[{slots}+{padding}]")
    net.add_place("c", 1)
    for j in range(slots):
        net.add_place(f"x{j}", 0)
    for j in range(padding):
        net.add_place(f"pad{j}", 0)
    for j in range(slots):
        x = f"x{j}"
        net.add_transition(Transition(
            name=f"put{j}", guard=f"c > 0 && {x} < 1",
            action={"c": "c - 1", x: f"{x} + 1"}, distribution=Exponential(1.0),
        ))
        net.add_transition(Transition(
            name=f"take{j}", guard=f"{x} >= 1",
            action={"c": "c + 1", x: f"{x} - 1"}, distribution=Exponential(2.0),
        ))
        net.add_transition(Transition(
            name=f"bump{j}", guard=f"0 < {x} && {x} < 1",
            action={x: f"{x} + 1"}, distribution=Exponential(3.0),
        ))
    return net


def test_wide_net_fallback_applies_folded_guard_bounds():
    """The per-transition enabling check of wide nets applies the same
    lower / upper bounds as the one broadcast comparison."""
    slots, padding = 60, 1500
    narrow = _slot_net(slots, 0)
    wide = _slot_net(slots, padding)
    # The second wave expands all ``slots`` one-token-in-a-slot states at
    # once; over the wide net that batch exceeds the broadcast cut-off.
    assert slots * len(wide.transitions) * len(wide.places) > 16_000_000
    assert slots * len(narrow.transitions) * len(narrow.places) <= 16_000_000
    # Ignoring the upper bound lets ``bump`` grow a slot without end; the cap
    # turns that into a truncated, mismatching space instead.
    cap = 2 * (slots + 1)
    reference = explore_reference(narrow, max_states=cap)
    assert reference.n_states == slots + 1 and not reference.truncated
    assert_same_space(reference, explore(narrow, max_states=cap))
    space = explore(wide, max_states=cap)
    assert not space.truncated
    assert np.array_equal(space.marking_matrix[:, : len(narrow.places)], reference.marking_matrix)
    assert not space.marking_matrix[:, len(narrow.places):].any()
    for column in ("edge_src", "edge_dst", "edge_trans", "deadlock_states"):
        assert np.array_equal(getattr(space, column), getattr(reference, column)), column


def test_voting_spec_evaluates_nothing_per_wave(monkeypatch):
    """Every DNAmaca voting attribute folds: expressions are evaluated only
    while compiling, and t2's marking-dependent Erlang is built once per
    distinct ``p5``, not once per ``p5`` per wave."""
    from repro.dnamaca.vectorize import VectorizedExpression
    from repro.models import VotingParameters
    from repro.petri.statespace import _VectorTransition

    net = load_model(voting_spec_text(VotingParameters(50, 15, 4)))
    counts = {"evaluate_checked": 0, "distribution_in": 0}

    def counting(name, original):
        def wrapper(self, *args):
            counts[name] += 1
            return original(self, *args)
        return wrapper

    for cls, name in ((VectorizedExpression, "evaluate_checked"), (Transition, "distribution_in")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))

    for index, transition in enumerate(net.transitions):
        _VectorTransition(transition, net, index)
    compile_calls = counts["evaluate_checked"]
    counts["evaluate_checked"] = 0

    space = explore(net)
    assert space.n_states == 31_210
    # 5,723 calls when every wave re-evaluated its constants.
    assert counts["evaluate_checked"] == compile_calls <= 60
    places = {name: i for i, name in enumerate(net.places)}
    M = space.marking_matrix
    fires_t2 = (M[:, places["p4"]] > 0) & (M[:, places["p5"]] > 0)
    distinct_p5 = np.unique(M[fires_t2, places["p5"]]).size
    assert distinct_p5 == 4
    # 452 calls when each wave rebuilt its own distinct values.
    assert counts["distribution_in"] <= distinct_p5


class TestStateSpaceInterface:
    def test_o1_index_of_and_unknown_marking(self):
        space = explore(build_voting_net(SCALED_CONFIGURATIONS["tiny"]))
        for state in (0, space.n_states // 2, space.n_states - 1):
            assert space.index_of(space.marking_matrix[state]) == state
        with pytest.raises(KeyError, match="not reachable"):
            space.index_of((99,) * space.marking_matrix.shape[1])

    def test_marking_array_is_the_backing_store(self):
        space = explore(build_voting_net(SCALED_CONFIGURATIONS["tiny"]))
        assert space.marking_array() is space.marking_matrix
        # ... and does not pin the oversized exploration growth buffer.
        assert space.marking_matrix.base is None

    def test_states_where_matches_states_matching(self):
        params = SCALED_CONFIGURATIONS["tiny"]
        space = explore(build_voting_net(params))
        cc = params.voters
        by_loop = space.states_where(lambda m: m["p2"] == cc)
        by_vector = space.states_matching("p2 == CC", {"CC": cc})
        assert by_loop == by_vector.tolist()

    def test_transition_usage_matches_legacy(self):
        net = build_voting_net(SCALED_CONFIGURATIONS["tiny"])
        assert explore(net).transition_usage() == explore_reference(net).transition_usage()

    def test_edge_columns_are_soa(self):
        space = explore(build_voting_net(SCALED_CONFIGURATIONS["tiny"]))
        assert space.edge_src.dtype == np.int64
        assert space.edge_dst.dtype == np.int64
        assert space.edge_prob.dtype == np.float64
        assert space.edge_dist.dtype == np.int32
        assert space.edge_trans.dtype == np.int32
        # unique-distribution table deduplicated at exploration time
        assert len(space.distributions) == len(set(space.distributions))

    def test_kernel_is_picklable_with_marking_names(self):
        """Spawn-start multiprocessing ships kernels to workers — the lazy
        marking-name factory must survive pickling."""
        import pickle

        kernel = build_kernel(explore(build_voting_net(SCALED_CONFIGURATIONS["tiny"])))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.state_names == kernel.state_names
        assert clone.state_names[0].startswith("(")
