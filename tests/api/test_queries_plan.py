"""Tests of the lazy query objects, query plans and the engine registry."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EngineError,
    InlineEngine,
    Model,
    PlanError,
    PredicateError,
    available_engines,
    get_engine,
    register_engine,
)
from repro.api.plan import Grid, QueryPlan, as_grid
from repro.api.queries import from_wire
from repro.laplace import EulerInverter, LaguerreInverter, expand_to_grid
from repro.laplace.inverter import canonical_s
from repro.service.registry import ModelRegistry


@pytest.fixture
def model(onoff_spec):
    return Model.from_spec(onoff_spec, registry=ModelRegistry())


class TestFluentQueries:
    def test_queries_are_immutable(self, model):
        base = model.passage("on == 2", "off == 2")
        with_grid = base.density([1.0, 2.0])
        assert base.t_points is None
        assert with_grid.t_points == (1.0, 2.0)
        with_cdf = with_grid.cdf()
        assert not with_grid.include_cdf and with_cdf.include_cdf
        with_q = with_cdf.quantile(0.9)
        assert with_cdf.quantiles == () and with_q.quantiles == (0.9,)

    def test_run_without_t_points(self, model):
        with pytest.raises(PlanError, match="t-points"):
            model.passage("on == 2", "off == 2").run()

    def test_bad_grid_rejected(self, model):
        q = model.passage("on == 2", "off == 2")
        with pytest.raises(PlanError):
            q.density([])
        with pytest.raises(PlanError):
            q.density([-1.0])
        with pytest.raises(PlanError):
            q.density([float("inf")])

    def test_bad_solver_and_inversion(self, model):
        q = model.passage("on == 2", "off == 2").density([1.0])
        with pytest.raises(PlanError, match="gauss"):
            q.with_solver("gauss")
        with pytest.raises(PlanError, match="talbot"):
            q.with_inversion("talbot")
        with pytest.raises(PlanError, match="eular_terms"):
            q.with_inversion("euler", eular_terms=5)

    def test_bad_quantile(self, model):
        q = model.passage("on == 2", "off == 2")
        with pytest.raises(PlanError):
            q.quantile(0.0)
        with pytest.raises(PlanError):
            q.quantile(1.5)

    def test_unsatisfied_predicate(self, model):
        q = model.passage("on == 2", "off == 99").density([1.0])
        with pytest.raises(PredicateError, match="target predicate"):
            q.run()


_T_GRIDS = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), min_size=1, max_size=5
)

#: a passage request as the parent's job log stores it (``include_cdf``
#: spelling, resolved model reference); the spec text is filled in by the test
PARENT_JOB_REQUEST = {
    "epsilon": 1e-08, "include_cdf": True, "inversion": "euler",
    "max_states": None, "overrides": {}, "quantile": 0.5, "solver": "iterative",
    "source": "on == 2", "t_points": [1.0, 2.0], "target": "off == 2",
}


class TestWireFormat:
    """``to_wire`` / ``from_wire`` are the only spelling of a measure request."""

    @settings(max_examples=60, deadline=None)
    @given(
        t_points=_T_GRIDS,
        cdf=st.booleans(),
        quantile=st.none() | st.floats(min_value=0.01, max_value=0.99),
        steady=st.booleans(),
        inversion=st.sampled_from(["euler", "laguerre"]),
        solver=st.sampled_from(["iterative", "direct"]),
        epsilon=st.floats(min_value=1e-12, max_value=1e-3),
    )
    def test_round_trip(self, t_points, cdf, quantile, steady, inversion, solver, epsilon):
        model = Model.from_digest("0123456789abcdef")
        passage = model.passage("on == 2", "off == 2").density(t_points)
        passage = passage.cdf() if cdf else passage
        passage = passage if quantile is None else passage.quantile(quantile)
        transient = model.transient("on == 2", "on > 0").probability(t_points)
        transient = transient if steady else transient.without_steady_state()
        for query in (passage, transient):
            query = query.with_inversion(inversion).with_solver(solver).with_epsilon(epsilon)
            body = json.loads(json.dumps(query.to_wire()))
            assert from_wire(query.kind, body, model=query.model) == query
            # without a model in hand, the body's own reference is used
            assert from_wire(query.kind, body).to_wire() == query.to_wire()

    def test_wire_defaults_are_the_servers(self, onoff_spec):
        body = {"spec": onoff_spec, "source": "on == 2", "target": "off == 2",
                "t_points": [1, 2]}
        passage, transient = from_wire("passage", body), from_wire("transient", body)
        assert passage.include_cdf and passage.quantiles == ()  # cdf defaults on
        assert transient.include_steady_state
        assert (passage.solver, passage.inversion, passage.epsilon) == (
            "iterative", "euler", 1e-8
        )
        assert passage.model.spec_text == onoff_spec
        assert not from_wire("passage", {**body, "cdf": False}).include_cdf
        assert not from_wire("transient", {**body, "steady_state": 0}).include_steady_state
        # a transient body may carry passage-only fields; they are not its own
        assert from_wire("transient", {**body, "quantile": 7}).to_wire() == transient.to_wire()

    def test_parent_job_log_request_parses(self, onoff_spec):
        """The durable-store guard: a request the parent's job log stored —
        ``include_cdf`` spelling, ``overrides: {}``, ``max_states: null``."""
        query = from_wire("passage", {**PARENT_JOB_REQUEST, "spec": onoff_spec})
        assert query.include_cdf and query.quantiles == (0.5,)
        assert query.t_points == (1.0, 2.0) and query.model.overrides == {}
        flipped = from_wire(
            "passage", {**PARENT_JOB_REQUEST, "spec": onoff_spec, "include_cdf": False}
        )
        assert not flipped.include_cdf
        # the alias wins over the wire flag, as it did at the parent
        assert not from_wire("passage", {
            **PARENT_JOB_REQUEST, "spec": onoff_spec, "include_cdf": False, "cdf": True,
        }).include_cdf
        steady = from_wire("transient", {
            "spec": onoff_spec, "source": "on == 2", "target": "on > 0",
            "t_points": [1.0, 5.0], "include_steady_state": False,
        })
        assert not steady.include_steady_state
        # the passage walk moved the transforms by < epsilon, this by 3.0e-8
        assert query.run().quantiles[0.5] == pytest.approx(4.4746297267294874, abs=1e-9)

    @pytest.mark.parametrize("field, value", [
        ("t_points", []), ("t_points", [-1.0]), ("t_points", ["x"]), ("t_points", None),
        ("quantile", 2.0), ("quantile", "x"), ("epsilon", -1), ("epsilon", 0),
        ("epsilon", "x"), ("solver", "bogus"), ("inversion", "talbot"),
        ("source", None), ("target", 5), ("overrides", ["K=3"]), ("spec", "   "),
    ])
    def test_every_field_is_checked_before_any_work(self, onoff_spec, field, value):
        body = {"spec": onoff_spec, "source": "on == 2", "target": "off == 2",
                "t_points": [1.0], field: value}
        with pytest.raises(PlanError):
            from_wire("passage", body)

    def test_malformed_model_references(self):
        body = {"source": "a", "target": "b", "t_points": [1.0]}
        with pytest.raises(PlanError, match="'model'.*or 'spec'"):
            from_wire("passage", body)
        with pytest.raises(PlanError, match="overrides apply at registration"):
            from_wire("passage", {**body, "model": "abc", "overrides": {"K": 3}})
        with pytest.raises(PlanError, match="unknown measure kind"):
            from_wire("simulation", {**body, "model": "abc"})
        with pytest.raises(PlanError, match="JSON object"):
            from_wire("passage", [1, 2])

    def test_what_the_wire_cannot_carry(self, model):
        query = model.passage("on == 2", "off == 2").density([1.0])
        with pytest.raises(PlanError, match="one quantile"):
            query.quantile(0.5).quantile(0.9).to_wire()
        with pytest.raises(PlanError, match="inverter options"):
            query.with_inversion("laguerre", n_points=64).to_wire()
        with pytest.raises(PlanError, match="t-points"):
            model.passage("on == 2", "off == 2").to_wire()


class TestOneGridCheck:
    def test_a_checked_grid_is_not_checked_again(self, model):
        grid = as_grid([1, 2.5])
        assert type(grid) is Grid and grid == (1.0, 2.5)
        assert as_grid(grid) is grid
        query = model.passage("on == 2", "off == 2").density([1, 2.5])
        assert query.grid() is query.t_points  # what the plan is derived from
        assert QueryPlan.derive(EulerInverter(), grid).t_points.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [float("nan")], [float("inf")], "x"])
    def test_direct_plan_derivation_keeps_its_guard(self, bad):
        with pytest.raises(PlanError):
            QueryPlan.derive(EulerInverter(), bad)


class TestQueryPlan:
    def test_euler_grid_size(self, model):
        plan = model.passage("on == 2", "off == 2").density([1.0, 2.0, 4.0]).plan()
        # 33 evaluations per t-point with the default Euler parameters.
        assert plan.required_s_points.size == 99
        assert plan.n_evaluations == 99  # upper half plane: nothing to fold
        assert plan.describe()["inversion"] == "euler"

    def test_laguerre_grid_is_t_independent_and_folds(self, model):
        query = model.passage("on == 2", "off == 2").with_inversion("laguerre", n_points=64)
        one = query.density([1.0]).plan()
        many = query.density([1.0, 5.0, 9.0]).plan()
        assert one.n_evaluations == many.n_evaluations
        assert many.conjugates_folded > 0

    @pytest.mark.parametrize("inverter", [
        EulerInverter(),
        LaguerreInverter(n_points=64),
        LaguerreInverter(n_points=32, damping=0.4, time_scale=3.0),
    ], ids=["euler", "laguerre", "laguerre-modified"])
    def test_keys_and_grid_values_match_the_scalar_oracle(self, inverter):
        """The plan's once-derived keys and aligned values are what the
        per-point canonical_s / expand_to_grid path produces."""
        t_points = [0.5, 2.0, 2.0, 7.5]  # a repeated t: duplicate grid points
        plan = QueryPlan.derive(inverter, t_points)
        seen = {}  # the fold as the per-point loop did it
        for s in plan.required_s_points.tolist():
            s = s.conjugate() if s.imag < 0 else s
            seen.setdefault(canonical_s(s), s)
        assert plan.s_points.tolist() == list(seen.values())
        assert plan.s_keys == list(seen)

        resolved = {key: complex(k + 1, -0.25 * k) for k, key in enumerate(plan.s_keys)}
        on_grid = expand_to_grid(plan.required_s_points, resolved)
        values = plan.on_grid(resolved)
        assert values.tolist() == [on_grid[s] for s in plan.required_s_points.tolist()]
        assert np.array_equal(
            inverter.invert_values(t_points, values),
            inverter.invert_values(t_points, on_grid),
        )

    def test_point_whose_imaginary_part_rounds_away_is_not_mirrored(self):
        """A lower-half-plane point within rounding of the real axis shares
        its mirror image's key, so a key lookup returns that value as is."""

        class NearRealAxis(EulerInverter):
            def required_s_points(self, t_points):
                return np.array([1.0 + 1e-15j, 1.0 - 1e-15j, 2.0 - 3.0j])

        plan = QueryPlan.derive(NearRealAxis(), [1.0])
        assert plan.s_points.tolist() == [1.0 + 1e-15j, 2.0 + 3.0j]
        resolved = {plan.s_keys[0]: 5.0 + 1e-9j, plan.s_keys[1]: 7.0 + 2.0j}
        expected = expand_to_grid(plan.required_s_points, resolved)
        assert plan.on_grid(resolved).tolist() == list(expected.values())
        assert plan.on_grid(resolved).tolist() == [5.0 + 1e-9j, 5.0 + 1e-9j, 7.0 - 2.0j]

    def test_plan_happens_without_building_the_model(self, onoff_spec):
        model = Model.from_spec(onoff_spec, registry=ModelRegistry())
        model.passage("on == 2", "off == 2").density([1.0]).plan()
        assert not model.built


class TestEngineRegistry:
    def test_known_engines(self):
        assert {"inline", "multiprocessing", "distributed", "remote"} <= set(
            available_engines()
        )

    def test_unknown_engine_lists_the_valid_set(self, model):
        q = model.passage("on == 2", "off == 2").density([1.0])
        with pytest.raises(EngineError, match="inline"):
            q.run(engine="warpdrive")

    def test_engine_instance_passthrough(self, model):
        engine = InlineEngine()
        assert get_engine(engine) is engine
        with pytest.raises(EngineError):
            get_engine(engine, processes=2)

    def test_bad_engine_options(self, model):
        with pytest.raises(EngineError, match="inline"):
            get_engine("inline", bogus=True)

    def test_custom_engine_registration(self, model):
        class EchoEngine(InlineEngine):
            name = "echo-test"

        register_engine("echo-test", EchoEngine, replace=True)
        result = model.passage("on == 2", "off == 2").density([1.0]).run("echo-test")
        assert result.statistics["engine"] == "echo-test"


class TestSimulationQuery:
    def test_simulation_runs_without_state_space(self, onoff_spec):
        model = Model.from_spec(onoff_spec, registry=ModelRegistry())
        result = (
            model.simulate("off == 2", replications=500, seed=7)
            .with_t_points([1.0, 2.0, 4.0])
            .run()
        )
        assert result.n_replications == 500
        assert 0.0 < result.mean()
        assert result.cdf is not None and np.all(np.diff(result.cdf) >= 0)
        assert not model.built  # simulation never explored the state space

    def test_simulation_rejects_other_engines(self, onoff_spec):
        model = Model.from_spec(onoff_spec, registry=ModelRegistry())
        with pytest.raises(EngineError, match="inline"):
            model.simulate("off == 2").run(engine="remote")

    def test_seeded_simulation_is_reproducible(self, onoff_spec):
        model = Model.from_spec(onoff_spec, registry=ModelRegistry())
        a = model.simulate("off == 2", replications=200, seed=11).run()
        b = model.simulate("off == 2", replications=200, seed=11).run()
        assert np.array_equal(a.samples, b.samples)
