"""HTTP surface of the async job subsystem: 202s, polling, tenancy, errors."""
from __future__ import annotations

import contextlib
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.jobs import TenantQuotas
from repro.jobs.runner import JobRunner
from repro.service import AnalysisService, ServiceClient, ServiceClientError, create_server
from repro.service.client import _ConnectionFailed


@contextlib.contextmanager
def _serve(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def _raw(url, method="GET", body=None, headers=None):
    """Raw request returning (status, headers, parsed-JSON body)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


class TestAsyncSubmission:
    def test_async_submit_returns_202_with_location(self, onoff_spec):
        with _serve(AnalysisService()) as url:
            client = ServiceClient(url)
            model = client.register_model(onoff_spec)["model"]
            status, headers, view = _raw(
                f"{url}/v1/passage", method="POST",
                body={"model": model, "source": "on == 2", "target": "on == 0",
                      "t_points": [0.5, 1.0], "async": True},
            )
            assert status == 202
            assert headers["Location"] == f"/v1/jobs/{view['job']}"
            assert view["state"] in ("queued", "running")
            assert view["kind"] == "passage"
            assert view["model"] == model

    def test_the_202_view_is_taken_before_the_runner_can_finish_the_job(self, onoff_spec):
        """A runner at its fastest — the job done inside ``wake()`` — still
        leaves the submission reporting the job as it was accepted."""

        class InlineRunner(JobRunner):
            def start(self):
                pass

            def wake(self):
                record = self.store.next_queued()
                if record is not None:
                    self._execute(self.store.transition(record.job_id, "running"))

        service = AnalysisService()
        try:
            service._runner = InlineRunner(service, service.jobs)
            model = service.register_model(onoff_spec)["model"]
            view = service.submit("passage", {
                "model": model, "source": "on == 2", "target": "on == 0",
                "t_points": [0.5, 1.0],
            })
            assert view["state"] == "queued"
            assert not view["has_result"]
            assert service.job_view(view["job"])["state"] == "done"
        finally:
            service.close()

    def test_async_result_matches_sync(self, onoff_spec):
        with _serve(AnalysisService(job_block_points=20)) as url:
            client = ServiceClient(url)
            model = client.register_model(onoff_spec)["model"]
            query = dict(model=model, source="on == 2", target="on == 0",
                         t_points=[0.5, 1.0, 2.0])
            view = client.submit("passage", cdf=True, **query)
            final = client.wait(view["job"], timeout=60)
            assert final["state"] == "done"
            sync = client.passage(cdf=True, **query)
            for key in ("density", "cdf"):
                assert np.max(np.abs(
                    np.asarray(final["result"][key]) - np.asarray(sync[key])
                )) <= 1e-10
            # block-wise execution was recorded
            assert final["plan"]["n_blocks"] >= 2
            progress = final["progress"]
            assert progress["points_done"] == progress["points_total"]
            assert progress["blocks_done"] == final["plan"]["n_blocks"]

    def test_transient_async(self, onoff_spec):
        with _serve(AnalysisService()) as url:
            client = ServiceClient(url)
            view = client.submit(
                "transient", spec=onoff_spec, source="on == 2",
                target="off == 2", t_points=[1.0, 2.0],
            )
            final = client.wait(view["job"], timeout=60)
            assert final["state"] == "done"
            assert len(final["result"]["probability"]) == 2
            assert "steady_state" in final["result"]

    def test_invalid_submission_fails_fast_not_in_job(self, onoff_spec):
        with _serve(AnalysisService()) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit("passage", spec=onoff_spec, source="on == 2",
                              target="on == 0", t_points=[])
            assert excinfo.value.status == 400
            assert client.jobs()["jobs"] == []

    def test_cancel_mid_run(self, onoff_spec):
        # tiny blocks + a big grid leave plenty of between-block windows
        with _serve(AnalysisService(job_block_points=2)) as url:
            client = ServiceClient(url)
            view = client.submit(
                "passage", spec=onoff_spec, source="on == 2", target="on == 0",
                t_points=list(np.linspace(0.5, 20.0, 40)),
            )
            cancelled = client.cancel(view["job"])
            assert cancelled["state"] in ("queued", "running", "cancelled") \
                or cancelled["cancel_requested"]
            final = client.wait(view["job"], timeout=60)
            assert final["state"] in ("cancelled", "done")
            # the overwhelmingly common case: caught between blocks
            if final["state"] == "cancelled":
                assert not final["has_result"]

    def test_job_listing_and_views(self, onoff_spec):
        with _serve(AnalysisService()) as url:
            client = ServiceClient(url)
            view = client.submit(
                "passage", spec=onoff_spec, source="on == 2", target="on == 0",
                t_points=[1.0],
            )
            client.wait(view["job"], timeout=60)
            listing = client.jobs()
            assert [j["job"] for j in listing["jobs"]] == [view["job"]]
            # listings omit the (potentially large) result payload
            assert "result" not in listing["jobs"][0]
            assert listing["jobs"][0]["has_result"]


class TestTenancy:
    def test_jobs_and_models_are_tenant_disjoint(self, onoff_spec):
        with _serve(AnalysisService()) as url:
            alice = ServiceClient(url, tenant="alice")
            bob = ServiceClient(url, tenant="bob")
            model = alice.register_model(onoff_spec)["model"]
            view = alice.submit("passage", model=model, source="on == 2",
                                target="on == 0", t_points=[1.0])
            alice.wait(view["job"], timeout=60)

            assert [m["model"] for m in alice.models()["models"]] == [model]
            assert bob.models()["models"] == []
            assert bob.jobs()["jobs"] == []
            with pytest.raises(ServiceClientError) as excinfo:
                bob.job(view["job"])
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                bob.passage(model=model, source="on == 2", target="on == 0",
                            t_points=[1.0])
            assert excinfo.value.status == 404

    def test_default_tenant_when_header_absent(self, onoff_spec):
        with _serve(AnalysisService()) as url:
            anonymous = ServiceClient(url)
            named = ServiceClient(url, tenant="default")
            model = anonymous.register_model(onoff_spec)["model"]
            assert [m["model"] for m in named.models()["models"]] == [model]

    def test_invalid_tenant_name_is_400(self):
        with _serve(AnalysisService()) as url:
            status, _, body = _raw(
                f"{url}/v1/stats", headers={"X-Repro-Tenant": "bad tenant!"}
            )
            assert status == 400
            assert "tenant" in body["error"]

    def test_active_jobs_quota_is_per_tenant_429(self, onoff_spec):
        service = AnalysisService(quotas=TenantQuotas(max_active_jobs=1))
        with _serve(service) as url:
            alice = ServiceClient(url, tenant="alice")
            bob = ServiceClient(url, tenant="bob")
            model = alice.register_model(onoff_spec)["model"]
            bob.register_model(onoff_spec)
            # freeze the runner so submitted jobs stay queued (a stopped
            # runner would be restarted by the next submit; a draining one
            # claims nothing)
            assert service._runner.drain()
            submit = dict(model=model, source="on == 2", target="on == 0",
                          t_points=[1.0])
            alice.submit("passage", **submit)
            with pytest.raises(ServiceClientError) as excinfo:
                alice.submit("passage", **submit)
            assert excinfo.value.status == 429
            assert excinfo.value.payload["quota"] == "active_jobs"
            assert excinfo.value.payload["tenant"] == "alice"
            # bob's budget is untouched
            bob_view = bob.submit("passage", **submit)
            assert bob_view["state"] in ("queued", "running")

    def test_rate_limit_429_with_retry_after(self):
        service = AnalysisService(
            quotas=TenantQuotas(rate_per_second=0.001, burst=1.0)
        )
        with _serve(service) as url:
            status, _, _ = _raw(f"{url}/v1/stats",
                                headers={"X-Repro-Tenant": "hot"})
            assert status == 200
            status, headers, body = _raw(f"{url}/v1/stats",
                                         headers={"X-Repro-Tenant": "hot"})
            assert status == 429
            assert body["quota"] == "rate"
            assert float(headers["Retry-After"]) >= 1
            # health stays unmetered so probes survive an exhausted budget
            status, _, _ = _raw(f"{url}/v1/health",
                                headers={"X-Repro-Tenant": "hot"})
            assert status == 200
            # and another tenant is unaffected
            status, _, _ = _raw(f"{url}/v1/stats",
                                headers={"X-Repro-Tenant": "cold"})
            assert status == 200

    def test_model_quota_429(self, onoff_spec):
        service = AnalysisService(quotas=TenantQuotas(max_models=1))
        with _serve(service) as url:
            client = ServiceClient(url, tenant="small")
            client.register_model(onoff_spec)
            # re-registering the same digest is free
            client.register_model(onoff_spec)
            with pytest.raises(ServiceClientError) as excinfo:
                client.register_model(onoff_spec, overrides={"K": 3})
            assert excinfo.value.status == 429
            assert excinfo.value.payload["quota"] == "models"


class TestHTTPContract:
    def test_405_with_allow_header(self):
        with _serve(AnalysisService()) as url:
            status, headers, body = _raw(f"{url}/v1/passage", method="GET")
            assert status == 405
            assert headers["Allow"] == "POST"
            assert body["status"] == 405
            assert body["allow"] == ["POST"]
            status, headers, _ = _raw(f"{url}/v1/stats", method="POST", body={})
            assert status == 405
            assert headers["Allow"] == "GET"
            status, headers, _ = _raw(f"{url}/v1/jobs/abc", method="POST", body={})
            assert status == 405
            assert headers["Allow"] == "GET, DELETE"

    def test_unknown_v1_path_is_structured_404(self):
        with _serve(AnalysisService()) as url:
            for method in ("GET", "POST", "DELETE"):
                status, _, body = _raw(
                    f"{url}/v1/nope", method=method,
                    body={} if method == "POST" else None,
                )
                assert status == 404
                assert body == {"error": "unknown endpoint '/v1/nope'",
                                "status": 404}

    def test_unknown_job_404(self):
        with _serve(AnalysisService()) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.job("nothere")
            assert excinfo.value.status == 404


class TestClientRetries:
    def test_get_retries_on_connection_failure(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=3, backoff=0.001)
        calls = {"n": 0}

        def flaky(method, path, payload):
            calls["n"] += 1
            if calls["n"] < 3:
                raise _ConnectionFailed("connection reset")
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("GET", "/v1/health") == {"ok": True}
        assert calls["n"] == 3

    def test_get_gives_up_after_retries(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=2, backoff=0.001)
        calls = {"n": 0}

        def dead(method, path, payload):
            calls["n"] += 1
            raise _ConnectionFailed("refused")

        monkeypatch.setattr(client, "_request_once", dead)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/v1/health")
        assert excinfo.value.status == 0
        assert calls["n"] == 3  # initial + 2 retries

    def test_post_fails_fast(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=5, backoff=0.001)
        calls = {"n": 0}

        def dead(method, path, payload):
            calls["n"] += 1
            raise _ConnectionFailed("refused")

        monkeypatch.setattr(client, "_request_once", dead)
        with pytest.raises(ServiceClientError):
            client._request("POST", "/v1/passage", {"x": 1})
        assert calls["n"] == 1  # non-idempotent: never replayed

    def test_http_errors_are_never_retried(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9", retries=5, backoff=0.001)
        calls = {"n": 0}

        def not_found(method, path, payload):
            calls["n"] += 1
            raise ServiceClientError(404, "unknown job")

        monkeypatch.setattr(client, "_request_once", not_found)
        with pytest.raises(ServiceClientError):
            client._request("GET", "/v1/jobs/x")
        assert calls["n"] == 1
