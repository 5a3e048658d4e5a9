"""What a warm query pays: nothing per model, one canonicalisation per point.

Per-model work (the embedded stationary vector) happens once, on the first
measure that needs it — never at registration; per-plan work (the canonical
keys of the s-grid) happens once per plan and is reused by the scheduler, the
cache and both inversions.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.api import Model
from repro.obs.metrics import get_metrics
from repro.service.registry import ModelRegistry
from repro.smp import SPointPolicy
from tests.conftest import canonicalisation_consumers

SRC = Path(repro.__file__).parent.parent
ROOT = Path(__file__).parent.parent.parent

MULTI = dict(source="on > 0", target="on == 0")  # two source states
SINGLE = dict(source="on == 2", target="on == 0")


class TestEmbeddedSolveIsPerModel:
    def test_registration_and_single_source_queries_solve_nothing(
        self, service, onoff_spec, embedded_solves
    ):
        digest = service.register_model(onoff_spec)["model"]
        service.passage(model=digest, t_points=[1.0, 2.0], **SINGLE)
        service.transient(
            model=digest, t_points=[1.0], include_steady_state=False, **SINGLE
        )
        assert embedded_solves == []

    def test_model_facade_is_lazy_too(self, onoff_spec, embedded_solves):
        model = Model.from_spec(onoff_spec, registry=ModelRegistry())
        entry = model.entry
        model.states("on > 0"), model.states("on == 0")
        SPointPolicy().resolve_engine(entry.evaluator)
        assert embedded_solves == []
        model.passage(**MULTI).density([1.0]).run()
        model.passage(**MULTI).density([2.0]).cdf().run()
        model.transient(**MULTI).at([1.0]).run()
        assert len(embedded_solves) == 1

    def test_one_solve_across_passage_and_transient_queries(
        self, service, onoff_spec, embedded_solves
    ):
        digest = service.register_model(onoff_spec)["model"]
        before = get_metrics().snapshot()
        steady = set()
        for t in (1.0, 2.0, 3.0):
            service.passage(model=digest, t_points=[t], **MULTI)
            # two target sets: ModelEntry.steady_state memoises per set, the
            # vector underneath is shared
            for target in ("on == 0", "on == 1"):
                reply = service.transient(
                    model=digest, t_points=[t], source=MULTI["source"], target=target
                )
                steady.add(reply["steady_state"])
        assert len(embedded_solves) == 1
        assert len(steady) == 2
        delta = get_metrics().diff(before)
        assert delta["repro_embedded_steady_state_solves_total"]["values"] == {"[]": 1.0}
        exposition = service.metrics_text()  # what GET /metrics serves
        assert "repro_embedded_steady_state_solves_total" in exposition
        assert "repro_embedded_steady_state_seconds_count" in exposition


class TestCanonicalisedOncePerPlan:
    def test_the_count_covers_every_module_that_holds_a_canonicaliser(self):
        """From a fresh interpreter that has loaded no consumer, the fixture
        patches exactly the modules the source scan names."""
        code = (
            "import sys, pytest\n"
            "from tests.conftest import CANONICALISERS, count_canonicalisations\n"
            "count_canonicalisations(pytest.MonkeyPatch())\n"
            "print(sorted(name for name, module in list(sys.modules.items())\n"
            "    if name.split('.')[0] == 'repro' and any(\n"
            "        getattr(vars(module).get(a), '__name__', '').startswith('counting_')\n"
            "        for a in CANONICALISERS)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=120, check=True,
        )
        patched = ast.literal_eval(done.stdout)
        assert patched == sorted(canonicalisation_consumers())
        assert "repro.distributed.checkpoint" in patched  # the scan is not empty

    def test_warm_passage_with_cdf_canonicalises_each_required_point_once(
        self, service, onoff_spec, canonicalised
    ):
        digest = service.register_model(onoff_spec)["model"]
        request = dict(model=digest, t_points=[15.0, 27.0, 60.0], include_cdf=True, **MULTI)
        cold = service.passage(**request)
        assert cold["statistics"]["s_points_required"] == 99
        canonicalised[0] = 0
        warm = service.passage(**request)
        assert warm["statistics"]["s_points_computed"] == 0
        assert warm["statistics"]["s_points_from_memory"] == 99
        assert 0 < canonicalised[0] <= 99  # 693 before the plan carried its keys
        assert warm["density"] == cold["density"] and warm["cdf"] == cold["cdf"]

    def test_laguerre_plan_folds_without_recanonicalising(
        self, service, onoff_spec, canonicalised
    ):
        digest = service.register_model(onoff_spec)["model"]
        request = dict(model=digest, t_points=[1.0, 2.5], inversion="laguerre", **MULTI)
        cold = service.passage(**request)
        canonicalised[0] = 0
        warm = service.passage(**request)
        assert warm["statistics"]["s_points_computed"] == 0
        assert 0 < canonicalised[0] <= 400  # the contour's 400 required points
        assert warm["density"] == cold["density"] and warm["cdf"] == cold["cdf"]

    def test_inline_query_canonicalises_each_required_point_once(
        self, onoff_spec, canonicalised
    ):
        """The facade's own cold path: plan keys reused by the scheduler, the
        store and both inversions (it was seven passes per point before the
        engines shared the service's loop)."""
        model = Model.from_spec(onoff_spec, registry=ModelRegistry())
        model.entry
        canonicalised[0] = 0
        result = model.passage(**MULTI).density([15.0, 27.0, 60.0]).cdf().run()
        assert result.statistics["s_points_computed"] == 99
        assert 0 < canonicalised[0] <= 99
