"""Tests for expression evaluation, LT interpretation and model compilation."""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Erlang, Exponential, Mixture, Uniform
from repro.dnamaca import SafeExpression, load_model, parse_lt_expression, parse_overrides
from repro.dnamaca.expressions import ExpressionError
from repro.petri import explore


class TestParseOverrides:
    """The one shared ``--set`` / overrides-object validator (CLI + service)."""

    def test_none_and_empty(self):
        assert parse_overrides(None) == {}
        assert parse_overrides([]) == {}
        assert parse_overrides({}) == {}

    def test_cli_pairs(self):
        assert parse_overrides(["K=4", "rate = 2.5"]) == {"K": 4.0, "rate": 2.5}

    def test_single_string_is_one_pair(self):
        assert parse_overrides("K=4") == {"K": 4.0}

    def test_mapping_with_numeric_strings(self):
        assert parse_overrides({"K": "4", "MM": 2}) == {"K": 4.0, "MM": 2.0}

    def test_missing_equals_is_named(self):
        with pytest.raises(ExpressionError, match="K:4"):
            parse_overrides(["K:4"])

    def test_bad_value_is_named(self):
        with pytest.raises(ExpressionError, match="many"):
            parse_overrides(["K=many"])
        with pytest.raises(ExpressionError, match="NaN-ish"):
            parse_overrides({"K": "NaN-ish"})

    def test_bad_name_is_named(self):
        with pytest.raises(ExpressionError, match="2K"):
            parse_overrides(["2K=4"])
        with pytest.raises(ExpressionError, match="non-empty"):
            parse_overrides(["=4"])


class TestSafeExpression:
    def test_arithmetic_and_names(self):
        e = SafeExpression("p7 + 2 * MM - 1")
        assert e.evaluate({"p7": 3, "MM": 6}) == 14
        assert e.names() == {"p7", "MM"}

    def test_paper_condition(self):
        e = SafeExpression("p7 > MM-1")
        assert e.evaluate({"p7": 6, "MM": 6}) is True
        assert e.evaluate({"p7": 5, "MM": 6}) is False

    def test_c_style_boolean_operators(self):
        e = SafeExpression("p1 > 0 && p3 > 0 || !(p5 > 0)")
        assert e.evaluate({"p1": 1, "p3": 1, "p5": 1}) is True
        assert e.evaluate({"p1": 0, "p3": 1, "p5": 1}) is False
        assert e.evaluate({"p1": 0, "p3": 0, "p5": 0}) is True

    def test_builtin_functions(self):
        e = SafeExpression("max(p5, 1) + min(p6, 2)")
        assert e.evaluate({"p5": 0, "p6": 5}) == 3

    def test_conditional_expression(self):
        e = SafeExpression("2 if p1 > 0 else 5")
        assert e.evaluate({"p1": 1}) == 2
        assert e.evaluate({"p1": 0}) == 5

    def test_unknown_name_reported(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            SafeExpression("qqq + 1").evaluate({})

    def test_dangerous_constructs_rejected(self):
        for source in [
            "__import__('os')",
            "open('/etc/passwd')",
            "[1,2,3]",
            "p1.attribute",
            "lambda: 1",
            "'string'",
        ]:
            with pytest.raises(ExpressionError):
                SafeExpression(source)

    def test_empty_expression_rejected(self):
        with pytest.raises(ExpressionError):
            SafeExpression("   ")


class TestLTExpressions:
    def test_single_call(self):
        dist = parse_lt_expression("return expLT(2.5, s);").build({})
        assert dist == Exponential(2.5)

    def test_paper_t5_mixture(self):
        dist = parse_lt_expression(
            "return (0.8 * uniformLT(1.5,10,s) + 0.2 * erlangLT(0.001,5,s));"
        ).build({})
        assert isinstance(dist, Mixture)
        assert dist == Mixture([Uniform(1.5, 10.0), Erlang(0.001, 5)], [0.8, 0.2])
        # The transform matches the paper's additive formula.
        s = 0.05 + 0.4j
        expected = 0.8 * Uniform(1.5, 10.0).lst(s) + 0.2 * Erlang(0.001, 5).lst(s)
        assert dist.lst(s) == pytest.approx(expected)

    def test_marking_dependent_parameters(self):
        expr = parse_lt_expression("return erlangLT(4.0, max(p5, 1), s);")
        assert expr.build({"p5": 3}) == Erlang(4.0, 3)
        assert expr.build({"p5": 0}) == Erlang(4.0, 1)

    def test_convolution_of_calls(self):
        dist = parse_lt_expression("return detLT(1.0, s) * expLT(2.0, s);").build({})
        s = 1.0 + 1.0j
        assert dist.lst(s) == pytest.approx(np.exp(-s) * 2.0 / (2.0 + s))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ExpressionError, match="sum to 1"):
            parse_lt_expression("0.5 * expLT(1.0, s) + 0.2 * expLT(2.0, s)").build({})

    def test_bare_number_rejected(self):
        with pytest.raises(ExpressionError):
            parse_lt_expression("return 42;").build({})

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError, match="known functions"):
            parse_lt_expression("return normalLT(0, 1, s);").build({})


ON_OFF_MODEL = r"""
\constant{K}{2}
\model{
  \place{on}{K}
  \place{off}{0}
  \transition{fail}{
    \condition{on > 0}
    \action{ next->on = on - 1; next->off = off + 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return expLT(0.5, s); }
  }
  \transition{repair}{
    \condition{off > 0}
    \action{ next->on = on + 1; next->off = off - 1; }
    \weight{2.0}
    \priority{1}
    \sojourntimeLT{ return erlangLT(1.0, 2, s); }
  }
}
"""


class TestCompiler:
    def test_compiled_net_state_space(self):
        net = load_model(ON_OFF_MODEL, name="on-off")
        assert net.initial_marking == (2, 0)
        graph = explore(net)
        assert graph.n_states == 3  # on in {0, 1, 2}
        assert graph.deadlocks.size == 0

    def test_weights_become_probabilities(self):
        net = load_model(ON_OFF_MODEL)
        choices = net.firing_choices((1, 1))
        probs = {t.name: p for t, p, _, _ in choices}
        assert probs["fail"] == pytest.approx(1.0 / 3.0)
        assert probs["repair"] == pytest.approx(2.0 / 3.0)

    def test_constant_overrides(self):
        net = load_model(ON_OFF_MODEL, overrides={"K": 5})
        assert net.initial_marking == (5, 0)
        with pytest.raises(KeyError):
            load_model(ON_OFF_MODEL, overrides={"ZZ": 1})

    def test_spec_and_python_voting_models_agree(self):
        """The DNAmaca voting spec generates the same state space as the
        directly constructed net (tiny configuration)."""
        from repro.models import SCALED_CONFIGURATIONS, build_voting_graph, voting_spec_text

        params = SCALED_CONFIGURATIONS["tiny"]
        spec_net = load_model(voting_spec_text(params), name="voting-spec")
        spec_graph = explore(spec_net)
        py_graph = build_voting_graph(params)
        assert spec_graph.n_states == py_graph.n_states
        assert spec_graph.n_edges == py_graph.n_edges
        assert sorted(map(tuple, spec_graph.markings)) == sorted(map(tuple, py_graph.markings))

    def test_unknown_name_in_condition_reported_at_compile_time(self):
        bad = ON_OFF_MODEL.replace("on > 0", "bogus > 0")
        with pytest.raises(ExpressionError, match="unknown name"):
            load_model(bad)

    def test_unknown_place_in_action_reported(self):
        bad = ON_OFF_MODEL.replace("next->off = off + 1;", "next->zzz = off + 1;")
        with pytest.raises(ExpressionError):
            load_model(bad)
