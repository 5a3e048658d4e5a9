"""Tests of the lazy query objects, query plans and the engine registry."""
from __future__ import annotations

import numpy as np
import pytest

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
from repro.api.plan import QueryPlan
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
