"""Tests for the result container objects."""
from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import PassageTimeResult, TransientResult
from repro.core.results import RESULT_TYPES
from repro.distributions import Erlang


@pytest.fixture
def erlang_result():
    dist = Erlang(2.0, 3)
    t = np.linspace(0.05, 8.0, 160)
    return PassageTimeResult(t_points=t, density=dist.pdf(t), cdf=dist.cdf(t)), dist


class TestPassageTimeResult:
    def test_probability_between(self, erlang_result):
        result, dist = erlang_result
        assert result.probability_between(1.0, 3.0) == pytest.approx(
            dist.cdf(3.0) - dist.cdf(1.0), abs=1e-3
        )
        assert result.probability_between(0.0, 100.0) <= 1.0
        with pytest.raises(ValueError):
            result.probability_between(3.0, 1.0)

    def test_quantile_interpolation(self, erlang_result):
        result, dist = erlang_result
        q = result.quantile(0.75)
        assert dist.cdf(q) == pytest.approx(0.75, abs=5e-3)
        with pytest.raises(ValueError):
            result.quantile(0.0)
        with pytest.raises(ValueError):
            result.quantile(0.999999)  # outside the covered CDF range

    def test_quantile_on_oscillating_cdf(self):
        # Euler-inversion oscillation can leave the sampled CDF locally
        # non-monotone; raw np.interp over such samples silently returns a
        # wrong t.  The quantile must interpolate the running-max envelope.
        t = np.array([1.0, 2.0, 3.0, 4.0])
        cdf = np.array([0.1, 0.5, 0.45, 0.8])  # dips at t=3
        result = PassageTimeResult(t_points=t, cdf=cdf)
        # q inside the dip: the envelope is flat at 0.5 over [2, 3], so any
        # q <= 0.5 must resolve within [1, 2] (the rising segment), never
        # inside the decreasing stretch.
        assert result.quantile(0.47) == pytest.approx(
            np.interp(0.47, [0.1, 0.5], [1.0, 2.0])
        )
        # q above the dip interpolates the final rising segment from the
        # envelope value 0.5, not from the raw sample 0.45.
        assert result.quantile(0.6) == pytest.approx(
            np.interp(0.6, [0.5, 0.8], [3.0, 4.0])
        )
        # Monotonicity of the quantile function over a fine sweep.
        qs = np.linspace(0.11, 0.79, 40)
        ts = [result.quantile(q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))

    def test_quantile_out_of_range_uses_envelope_bounds(self):
        t = np.array([1.0, 2.0, 3.0])
        result = PassageTimeResult(t_points=t, cdf=np.array([0.3, 0.6, 0.55]))
        with pytest.raises(ValueError, match=r"\[0.3, 0.6\]"):
            result.quantile(0.7)  # the raw final sample 0.55 is not the cap
        with pytest.raises(ValueError):
            result.quantile(0.2)

    def test_mean_and_normalisation(self, erlang_result):
        result, dist = erlang_result
        assert result.mean_estimate() == pytest.approx(dist.mean(), rel=0.02)
        assert result.normalisation_defect() < 0.01

    def test_as_table(self, erlang_result):
        result, _ = erlang_result
        table = result.as_table()
        assert len(table) == len(result.t_points)
        assert table[0][0] == pytest.approx(0.05)
        assert all(len(row) == 3 for row in table)

    def test_density_only_result(self):
        t = np.linspace(0.1, 5, 20)
        result = PassageTimeResult(t_points=t, density=Erlang(1.0, 2).pdf(t))
        with pytest.raises(ValueError):
            result.quantile(0.5)
        with pytest.raises(ValueError):
            result.probability_between(1, 2)
        assert result.mean_estimate() > 0

    def test_cdf_only_result(self):
        t = np.linspace(0.1, 10, 50)
        result = PassageTimeResult(t_points=t, cdf=Erlang(1.0, 2).cdf(t))
        with pytest.raises(ValueError):
            result.mean_estimate()
        with pytest.raises(ValueError):
            result.normalisation_defect()
        assert result.quantile(0.5) > 0


class TestTransientResult:
    def test_convergence_gap(self):
        t = np.array([1.0, 10.0, 100.0])
        result = TransientResult(
            t_points=t, probability=np.array([0.9, 0.55, 0.501]), steady_state=0.5
        )
        assert result.convergence_gap() == pytest.approx(0.001)
        assert result.as_table()[-1] == (100.0, pytest.approx(0.501))

    def test_gap_without_steady_state(self):
        result = TransientResult(t_points=[1.0], probability=[0.4])
        assert result.convergence_gap() is None


#: reply dicts captured from the parent commit (a finished job's stored
#: ``result``; ``solve_blocks`` shortened) — the durable-store guard
PARENT_PASSAGE_REPLY = {
    "cdf": [0.04763604128653706, 0.19446892013779257],
    "density": [0.1204300712537671, 0.14878270202898403],
    "measure": "passage", "model": "7805cf2643e6c54b",
    "quantile": {"q": 0.5, "t": 4.474629756769041},
    "statistics": {
        "batches": 10, "evaluation_seconds": 0.023525408993009478,
        "evaluator_engine": "batch", "inversion_seconds": 0.0005967749893898144,
        "model_registered": False, "s_points_coalesced": 0, "s_points_computed": 363,
        "s_points_from_disk": 0, "s_points_from_memory": 99, "s_points_required": 462,
        "solve_blocks": [{"direct_solves": 0, "iterations": 58, "points": 17,
                          "seconds": 0.000916, "unconverged": 0}],
    },
    "t_points": [1.0, 2.0],
}
PARENT_TRANSIENT_REPLY = {
    "measure": "transient", "model": "7805cf2643e6c54b",
    "probability": [0.9530834961040153, 0.8335481324414972],
    "statistics": {"batches": 1, "model_registered": False, "s_points_computed": 66,
                   "s_points_required": 66},
    "steady_state": 0.8333333333333333, "t_points": [1.0, 5.0],
}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestWireFormat:
    """``to_wire`` / ``from_wire`` are the only spelling of a measure reply."""

    def test_passage_round_trip_is_hex_equal(self):
        rng = np.random.default_rng(5)
        result = PassageTimeResult(
            t_points=rng.uniform(0.1, 90.0, 7), density=rng.normal(size=7),
            cdf=rng.uniform(size=7), quantiles={0.9: float(rng.uniform(1, 50))},
            statistics={"s_points_computed": 231, "engine": "inline"},
            transform_values={1j: 2j}, method="laguerre",
        )
        wire = result.to_wire("abc")
        again = PassageTimeResult.from_wire(json.loads(json.dumps(wire)))
        for name in ("t_points", "density", "cdf"):
            assert _hex(getattr(again, name)) == _hex(getattr(result, name))
        assert _hex(again.quantiles) == _hex(result.quantiles)
        assert _hex(again.quantiles.values()) == _hex(result.quantiles.values())
        assert again.statistics == {**result.statistics, "model": "abc"}
        assert list(wire) == [
            "model", "measure", "t_points", "density", "cdf", "quantile", "statistics"
        ]
        assert RESULT_TYPES[wire["measure"]] is PassageTimeResult

    def test_optional_keys_are_omitted_not_null(self):
        result = PassageTimeResult(t_points=[1.0], density=[0.5])
        assert sorted(result.to_wire()) == [
            "density", "measure", "model", "statistics", "t_points"
        ]
        again = PassageTimeResult.from_wire(result.to_wire())
        assert again.cdf is None and again.quantiles == {}
        transient = TransientResult(t_points=[1.0], probability=[0.4])
        assert "steady_state" not in transient.to_wire()
        assert TransientResult.from_wire(transient.to_wire()).steady_state is None
        with pytest.raises(ValueError, match="one quantile"):
            PassageTimeResult(t_points=[1.0], quantiles={0.5: 1.0, 0.9: 2.0}).to_wire()

    def test_transient_round_trip_is_hex_equal(self):
        rng = np.random.default_rng(6)
        result = TransientResult(
            t_points=rng.uniform(0.1, 90.0, 5), probability=rng.uniform(size=5),
            steady_state=float(rng.uniform()), statistics={"batches": 1},
        )
        again = TransientResult.from_wire(json.loads(json.dumps(result.to_wire("abc"))))
        assert _hex(again.t_points) == _hex(result.t_points)
        assert _hex(again.probability) == _hex(result.probability)
        assert float(again.steady_state).hex() == float(result.steady_state).hex()
        assert RESULT_TYPES["transient"] is TransientResult

    def test_parent_replies_parse_and_print(self, capsys):
        import argparse

        from repro.cli import _print_measure

        args = argparse.Namespace(json=False, csv=True)
        passage = RESULT_TYPES["passage"].from_wire(PARENT_PASSAGE_REPLY)
        assert passage.to_wire(PARENT_PASSAGE_REPLY["model"])["cdf"] == PARENT_PASSAGE_REPLY["cdf"]
        assert passage.statistics["s_points_computed"] == 363
        _print_measure(passage, args)
        assert capsys.readouterr().out.splitlines() == [
            "t,density,cdf",
            "1.0,0.1204300712537671,0.04763604128653706",
            "2.0,0.14878270202898403,0.19446892013779257",
            "quantile: P(T <= 4.47463) = 0.5",
        ]
        transient = RESULT_TYPES["transient"].from_wire(PARENT_TRANSIENT_REPLY)
        _print_measure(transient, args)
        assert capsys.readouterr().out.splitlines() == [
            "t,probability", "1.0,0.9530834961040153", "5.0,0.8335481324414972",
            "steady-state value: 0.833333",
        ]
