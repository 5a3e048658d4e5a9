"""Compiled (vectorized) marking predicates vs. the per-state interpreter.

Satellite regression: for every example specification and a battery of
expressions — including empty sets, all-state sets and nested
and/or/comparison forms — the columnar one-pass evaluation must select
exactly the states the per-state :func:`marking_predicate` walk selects.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.dnamaca import load_model
from repro.dnamaca.expressions import ExpressionError, marking_predicate
from repro.dnamaca.vectorize import VectorizedExpression, vector_marking_predicate
from repro.models import SCALED_CONFIGURATIONS, build_voting_net, voting_spec_text
from repro.models.queues import web_server_net
from repro.petri import explore

TINY = SCALED_CONFIGURATIONS["tiny"]

VOTING_CONSTANTS = {"CC": 4.0, "MM": 2.0, "NN": 2.0}
VOTING_EXPRESSIONS = [
    "p2 == CC",                                  # paper's all-voted target
    "p7 >= MM || p6 >= NN",                      # failure mode (nested or)
    "p1 > 0 && (p3 > 0 || p4 > 0)",              # nested and/or
    "p6 == 0 && p7 == 0",
    "1 > 2",                                     # empty set (constant false)
    "1 <= 2",                                    # all states (constant true)
    "!(p2 == CC)",                               # negation
    "0 < p2 < CC",                               # chained comparison
    "p2 >= CC - p1 - p4",                        # arithmetic across columns
    "min(p3, p5) >= 1",
    "max(p6, p7) == 0",
    "abs(p1 - p2) <= CC",
    "p1 + p2 + p4 == CC",                        # conserved invariant: all states
    "p2 % 2 == 0",
    "p1 // 2 >= 1",
    "(p5 if p5 > 0 else NN) >= 1",               # conditional expression
]

WEB_EXPRESSIONS = [
    "queue > 0 && free == 0",
    "failed >= 2 || busy >= 2",
    "queue == 0",
]


def assert_equivalent(graph, constants, expression):
    scalar = marking_predicate(expression, constants)
    by_loop = graph.states_where(scalar)
    vector = vector_marking_predicate(expression, constants)
    mask = vector(graph.marking_array(), graph.net.place_index)
    assert mask.dtype == bool and mask.shape == (graph.n_states,)
    assert np.flatnonzero(mask).tolist() == by_loop, expression


@pytest.fixture(scope="module")
def voting_spaces():
    net_programmatic = build_voting_net(TINY)
    net_spec = load_model(voting_spec_text(TINY), name="voting-spec")
    return explore(net_programmatic), explore(net_spec)


@pytest.mark.parametrize("expression", VOTING_EXPRESSIONS)
def test_voting_predicates_scalar_vs_vector(voting_spaces, expression):
    for space in voting_spaces:
        assert_equivalent(space, VOTING_CONSTANTS, expression)


@pytest.mark.parametrize("expression", WEB_EXPRESSIONS)
def test_web_server_predicates_scalar_vs_vector(expression):
    space = explore(web_server_net())
    assert_equivalent(space, {}, expression)


def test_empty_and_full_sets(voting_spaces):
    space = voting_spaces[0]
    assert space.states_matching("1 > 2").size == 0
    assert space.states_matching("1 <= 2").size == space.n_states
    # a scalar (constant-only) result broadcasts over all states
    assert space.states_matching("CC > 0", VOTING_CONSTANTS).size == space.n_states


def test_place_columns_shadow_constants(voting_spaces):
    space = voting_spaces[0]
    shadowed = space.states_matching("p2 == 0", {"p2": 123.0})
    plain = space.states_matching("p2 == 0")
    assert shadowed.tolist() == plain.tolist()


def test_unknown_name_raises_expression_error(voting_spaces):
    space = voting_spaces[0]
    with pytest.raises(ExpressionError, match="unknown name"):
        space.states_matching("p99 > 0")


def test_predicate_arithmetic_faults_match_scalar(voting_spaces):
    """A predicate dividing by a zero token count raises (as the per-state
    path always did) instead of silently returning a wrong state set."""
    space = voting_spaces[0]
    with pytest.raises(ZeroDivisionError):
        space.states_where(marking_predicate("10 / p4 > 2"))
    with pytest.raises(ZeroDivisionError):
        vector_marking_predicate("10 / p4 > 2")(
            space.marking_array(), space.net.place_index
        )


def test_predicate_lazy_branch_division_matches_scalar(voting_spaces):
    """Division guarded by the if-branch stays legal: the fallback re-runs
    the scalar interpreter, which skips the untaken branch lazily."""
    space = voting_spaces[0]
    expression = "(10 / p4 if p4 > 0 else 0) > 2"
    assert_equivalent(space, {}, expression)


def test_vectorized_expression_scalar_inputs():
    expr = VectorizedExpression("a + b * 2")
    assert expr.evaluate({"a": 1, "b": 3}) == 7
    assert expr.names() == {"a", "b"}


def test_vectorized_expression_matches_scalar_on_random_columns():
    rng = np.random.default_rng(7)
    columns = {name: rng.integers(0, 6, size=64) for name in ("x", "y", "z")}
    expressions = [
        "x + y - z",
        "x * y % (z + 1)",
        "x > y && y >= z || x == z",
        "(x if x > y else y) + z",
        "int(x / (y + 1)) + min(y, z, x)",
        "-x + +y",
        "not (x == y)",
        "x ** 2 - y ** 2",
    ]
    for source in expressions:
        vec = VectorizedExpression(source)
        got = np.asarray(vec.evaluate(dict(columns)))
        from repro.dnamaca.expressions import SafeExpression

        scalar = SafeExpression(source)
        want = [
            scalar.evaluate({k: int(v[i]) for k, v in columns.items()})
            for i in range(64)
        ]
        assert np.array_equal(got, np.asarray(want)), source
