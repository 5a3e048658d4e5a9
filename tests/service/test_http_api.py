"""End-to-end tests of the HTTP JSON API and the stdlib client."""
from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.service import ServiceClientError

T_POINTS = [1.0, 2.0, 4.0, 8.0]


class TestModelsEndpoint:
    def test_register_and_reregister(self, http_client, onoff_spec):
        first = http_client.register_model(onoff_spec, name="onoff")
        assert first["created"] is True
        assert first["states"] == 3
        assert first["constants"]["K"] == 2.0
        second = http_client.register_model(onoff_spec, name="onoff")
        assert second["created"] is False
        assert second["model"] == first["model"]

    def test_register_with_overrides(self, http_client, onoff_spec):
        bigger = http_client.register_model(onoff_spec, overrides={"K": 4})
        assert bigger["states"] == 5

    def test_empty_spec_is_rejected(self, http_client):
        with pytest.raises(ServiceClientError) as err:
            http_client.register_model("   ")
        assert err.value.status == 400

    def test_invalid_spec_is_rejected(self, http_client):
        with pytest.raises(ServiceClientError) as err:
            http_client.register_model(r"\model{ broken")
        assert err.value.status == 422


class TestPassageEndpoint:
    def test_query_by_digest(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        reply = http_client.passage(
            model=model, source="on == K", target="off == K",
            t_points=T_POINTS, cdf=True, quantile=0.5,
        )
        assert reply["model"] == model
        assert len(reply["density"]) == len(T_POINTS)
        cdf = reply["cdf"]
        assert all(0.0 <= F <= 1.0 + 1e-9 for F in cdf)
        assert cdf == sorted(cdf)
        assert 0.0 < reply["quantile"]["t"] < 80.0
        assert reply["statistics"]["s_points_computed"] > 0

    def test_query_by_inline_spec(self, http_client, onoff_spec):
        reply = http_client.passage(
            spec=onoff_spec, source="on == K", target="off == K",
            t_points=T_POINTS,
        )
        assert reply["statistics"]["model_registered"] is True
        again = http_client.passage(
            spec=onoff_spec, source="on == K", target="off == K",
            t_points=T_POINTS,
        )
        assert again["statistics"]["model_registered"] is False
        assert again["statistics"]["s_points_computed"] == 0

    def test_unknown_model_is_404(self, http_client):
        with pytest.raises(ServiceClientError) as err:
            http_client.passage(model="deadbeef", source="a", target="b",
                                t_points=[1.0])
        assert err.value.status == 404

    def test_bad_predicate_is_422(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        with pytest.raises(ServiceClientError) as err:
            http_client.passage(model=model, source="import os", target="off == K",
                                t_points=[1.0])
        assert err.value.status == 422

    def test_unsatisfiable_predicate_is_422(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        with pytest.raises(ServiceClientError) as err:
            http_client.passage(model=model, source="on == 99", target="off == K",
                                t_points=[1.0])
        assert err.value.status == 422
        assert "source predicate" in err.value.message

    def test_bad_t_points_is_400(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        for bad in ([], [-1.0]):
            with pytest.raises(ServiceClientError) as err:
                http_client.passage(model=model, source="on == K",
                                    target="off == K", t_points=bad)
            assert err.value.status == 400
        # Non-numeric entries are rejected server-side too (the client would
        # already refuse to serialise them, so go through a raw request).
        payload = {"model": model, "source": "on == K", "target": "off == K",
                   "t_points": ["x"]}
        with pytest.raises(ServiceClientError) as err:
            http_client._request("POST", "/v1/passage", payload)
        assert err.value.status == 400


#: malformed measure fields; each is a 400 on every surface, before any work
MALFORMED = [
    {"quantile": 2.0}, {"quantile": "x"}, {"epsilon": -1}, {"epsilon": 0},
    {"epsilon": "x"}, {"solver": "bogus"}, {"inversion": "talbot"},
]


def _field_id(bad: dict) -> str:
    return "-".join(map(str, *bad.items()))


class TestValidatedOnceBeforeWork:
    @pytest.fixture
    def query(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        return dict(model=model, source="on == K", target="off == K", t_points=[1.0, 2.0])

    @pytest.mark.parametrize("bad", MALFORMED, ids=_field_id)
    def test_sync_request_is_400_and_solves_nothing(self, http_client, service, query, bad):
        from repro.service import ValidationError

        with pytest.raises(ServiceClientError) as err:
            http_client.passage(**query, **bad)
        assert err.value.status == 400
        with pytest.raises(ValidationError):
            service.passage(**query, **bad)
        # the whole body is checked before the first s-point is solved
        assert service.scheduler.stats()["points_evaluated"] == 0
        assert service.stats()["queries"]["total"] == 0

    @pytest.mark.parametrize("bad", MALFORMED, ids=_field_id)
    def test_async_submission_is_400_and_records_no_job(self, http_client, query, bad):
        with pytest.raises(ServiceClientError) as err:
            http_client.submit("passage", **query, **bad)
        assert err.value.status == 400
        assert http_client.jobs()["jobs"] == []

    def test_unanswerable_requests_stay_422(self, http_client, query):
        unsatisfiable = {**query, "source": "on == 99"}
        for ask in (http_client.passage, lambda **q: http_client.submit("passage", **q)):
            with pytest.raises(ServiceClientError) as err:
                ask(**unsatisfiable)
            assert err.value.status == 422
        # a bracket miss is only known once solved
        with pytest.raises(ServiceClientError) as err:
            http_client.passage(**{**query, "quantile": 0.999999, "t_points": [1e-3]})
        assert err.value.status == 422

    def test_missing_required_fields_are_400(self, http_client, query):
        for missing in ("source", "target", "t_points", "model"):
            body = {k: v for k, v in query.items() if k != missing}
            with pytest.raises(ServiceClientError) as err:
                http_client.passage(**body)
            assert err.value.status == 400, missing


class TestTransientEndpoint:
    def test_transient_with_steady_state(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        reply = http_client.transient(
            model=model, source="on == K", target="on > 0", t_points=[1, 5, 50],
        )
        assert len(reply["probability"]) == 3
        assert 0.0 < reply["steady_state"] < 1.0
        # The transient curve settles to the steady state.
        assert reply["probability"][-1] == pytest.approx(reply["steady_state"], abs=5e-3)


class TestStatsAndTransport:
    def test_stats_counters_accumulate(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        query = dict(model=model, source="on == K", target="off == K",
                     t_points=T_POINTS)
        http_client.passage(**query)
        before = http_client.stats()
        http_client.passage(**query)
        after = http_client.stats()
        assert after["queries"]["passage"] == before["queries"]["passage"] + 1
        # The warm repeat evaluated nothing new and hit the memory tier.
        assert after["scheduler"]["points_evaluated"] == \
            before["scheduler"]["points_evaluated"]
        assert after["cache"]["memory_hits"] > before["cache"]["memory_hits"]
        assert after["registry"]["models_built"] == 1

    def test_voting_model_warm_repeat_is_pure_cache(self, http_client):
        """ISSUE 2 acceptance: a repeated passage query on the voting model
        answers from cache — no state-space re-exploration and no s-point
        re-evaluation, asserted via the /v1/stats counters."""
        from repro.models import SCALED_CONFIGURATIONS, voting_spec_text

        spec = voting_spec_text(SCALED_CONFIGURATIONS["tiny"])
        model = http_client.register_model(spec, name="voting-tiny")["model"]
        query = dict(model=model, source="p1 == CC", target="p2 == CC",
                     t_points=[5.0, 10.0, 20.0], cdf=True)
        cold = http_client.passage(**query)
        before = http_client.stats()
        warm = http_client.passage(**query)
        after = http_client.stats()
        assert warm["statistics"]["s_points_computed"] == 0
        assert warm["statistics"]["s_points_from_memory"] == \
            warm["statistics"]["s_points_required"]
        assert after["scheduler"]["points_evaluated"] == \
            before["scheduler"]["points_evaluated"]
        assert after["registry"]["models_built"] == before["registry"]["models_built"]
        assert after["cache"]["memory_hits"] > before["cache"]["memory_hits"]
        np.testing.assert_allclose(warm["density"], cold["density"])

    def test_health(self, http_client):
        assert http_client.health() == {"status": "ok"}

    def test_unknown_route_is_404(self, http_client):
        with pytest.raises(ServiceClientError) as err:
            http_client._request("GET", "/v2/nope")
        assert err.value.status == 404
        with pytest.raises(ServiceClientError) as err:
            http_client._request("POST", "/v1/frobnicate", {"x": 1})
        assert err.value.status == 404

    def test_malformed_json_body_is_400(self, http_client):
        request = urllib.request.Request(
            http_client.base_url + "/v1/passage",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        assert "not valid JSON" in json.loads(err.value.read())["error"]

    def test_concurrent_http_clients_coalesce(self, http_client, onoff_spec, service):
        model = http_client.register_model(onoff_spec)["model"]
        replies: list[dict] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def worker():
            try:
                barrier.wait()
                replies.append(http_client.passage(
                    model=model, source="on == K", target="off == K",
                    t_points=[1.5, 3.0, 6.0],
                ))
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        required = replies[0]["statistics"]["s_points_required"]
        assert service.scheduler.points_evaluated == required
        for reply in replies[1:]:
            np.testing.assert_allclose(reply["density"], replies[0]["density"])


class TestEvaluatorEngineReporting:
    def test_stats_report_engine_batches_and_blocks(self, http_client, onoff_spec):
        model = http_client.register_model(onoff_spec)["model"]
        reply = http_client.passage(
            model=model, source="on == K", target="off == K", t_points=[0.7, 1.4]
        )
        # The cold query's statistics name the engine and its block timings.
        stats = reply["statistics"]
        assert stats["evaluator_engine"] in ("batch", "factored")
        blocks = stats["solve_blocks"]
        assert blocks and all(b["points"] >= 1 and b["seconds"] >= 0 for b in blocks)
        server_stats = http_client.stats()
        engines = server_stats["scheduler"]["engine_batches"]
        assert sum(engines.values()) >= 1
        assert server_stats["scheduler"]["engine_blocks"]

    def test_registration_reports_engine(self, http_client, onoff_spec):
        info = http_client.register_model(onoff_spec)
        assert info["evaluator_engine"] in ("batch", "factored")

    def test_warm_query_omits_engine(self, http_client, onoff_spec):
        """A fully cached query ran no solve, so no engine is reported."""
        model = http_client.register_model(onoff_spec)["model"]
        query = dict(model=model, source="on == K", target="off == K",
                     t_points=[2.2, 3.3])
        http_client.passage(**query)
        warm = http_client.passage(**query)
        assert warm["statistics"]["s_points_computed"] == 0
        assert "evaluator_engine" not in warm["statistics"]
