"""One kept-alive connection per client thread, and a server fit for it.

The server answers HTTP/1.1 keep-alive with Nagle's algorithm off, resets its
per-request log fields on every request a connection carries, closes a
connection left idle past ``_IDLE_TIMEOUT_SECONDS``, and ends its kept-alive
connections on ``server_close``.  The client replaces a connection the server
has closed before it sends on it, so none of that surfaces as an error.
"""
from __future__ import annotations

import contextlib
import http.client
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import get_metrics
from repro.service import AnalysisService, ServiceClient, create_server
from repro.service import server as server_module

from .test_observability import _wait_until


@contextlib.contextmanager
def _serve(service, port: int = 0):
    server = create_server(service, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _exchange(connection, method, path, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    connection.request(method, path, body=data, headers={
        "Content-Type": "application/json", **(headers or {}),
    })
    response = connection.getresponse()
    return response, json.loads(response.read())


def _service_lines(caplog, count):
    _wait_until(lambda: len(
        [r for r in caplog.records if r.name == "repro.service"]
    ) >= count)
    return [r.getMessage() for r in caplog.records if r.name == "repro.service"]


class TestOneConnection:
    def test_log_fields_do_not_leak_into_the_next_request(self, onoff_spec, caplog):
        with _serve(AnalysisService()) as server, caplog.at_level(
            logging.INFO, logger="repro.service"
        ):
            connection = http.client.HTTPConnection(*server.server_address[:2])
            _, registered = _exchange(connection, "POST", "/v1/models", {"spec": onoff_spec})
            model = registered["model"]
            response, reply = _exchange(connection, "POST", "/v1/passage", {
                "model": model, "source": "on == K", "target": "off == K",
                "t_points": [1.0],
            })
            assert response.status == 200 and reply["statistics"]["s_points_computed"] > 0
            response, _ = _exchange(connection, "GET", "/v1/health")
            assert response.status == 200
            connection.close()
            lines = _service_lines(caplog, 3)
        assert f"digest={model}" in lines[1]
        (health,) = [line for line in lines if "/v1/health" in line]
        assert "digest=- " in health and "points=0" in health

    def test_a_rejected_tenant_is_not_counted_as_the_previous_one(self, caplog):
        with _serve(AnalysisService()) as server, caplog.at_level(
            logging.INFO, logger="repro.service"
        ):
            counter = get_metrics().counter(
                "repro_requests_total", "HTTP requests by path, status and tenant",
                ("path", "status", "tenant"),
            )
            before = counter.value(path="/v1/models", status=400, tenant="alice")
            connection = http.client.HTTPConnection(*server.server_address[:2])
            response, _ = _exchange(
                connection, "GET", "/v1/models", headers={"X-Repro-Tenant": "alice"}
            )
            assert response.status == 200
            response, reply = _exchange(
                connection, "GET", "/v1/models", headers={"X-Repro-Tenant": "no spaces"}
            )
            assert response.status == 400
            connection.close()
            lines = _service_lines(caplog, 2)
        assert "tenant=alice" in lines[0]
        assert "status=400" in lines[1] and "tenant=default" in lines[1]
        assert counter.value(path="/v1/models", status=400, tenant="alice") == before

    def test_twenty_requests_do_not_wait_for_delayed_acks(self):
        """With Nagle on, each reply's body waits for the ACK of its headers,
        which the client delays (~40 ms): 20 requests took ~0.9 s."""
        with _serve(AnalysisService()) as server:
            connection = http.client.HTTPConnection(*server.server_address[:2])
            _exchange(connection, "GET", "/v1/health")
            started = time.perf_counter()
            for _ in range(20):
                response, reply = _exchange(connection, "GET", "/v1/health")
                assert reply == {"status": "ok"}
            elapsed = time.perf_counter() - started
            connection.close()
        assert elapsed < 0.4

    def test_an_unread_body_closes_the_connection(self):
        """A request refused before its body is read (here a 405) must not
        leave that body to be parsed as the connection's next request."""
        with _serve(AnalysisService()) as server:
            connection = http.client.HTTPConnection(*server.server_address[:2])
            response, reply = _exchange(connection, "POST", "/v1/stats", {"x": 1})
            assert response.status == 405 and response.will_close
            response, reply = _exchange(connection, "GET", "/v1/health")
            assert reply == {"status": "ok"}
            connection.close()


class TestServiceClientConnections:
    def test_requests_share_one_connection_until_close(self, onoff_spec):
        with _serve(AnalysisService()) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            with ServiceClient(url) as client:
                client.register_model(onoff_spec)
                client.health()
                assert "repro_requests_total" in client.metrics_text()
                (connection,) = client._connections
                first = connection.sock.getsockname()
                client.stats()
                assert connection.sock.getsockname() == first
            assert connection.sock is None
            assert client.health() == {"status": "ok"}  # reconnects after close
            client.close()

    def test_idle_connection_closed_by_the_server_is_replaced(
        self, monkeypatch, onoff_spec
    ):
        monkeypatch.setattr(server_module, "_IDLE_TIMEOUT_SECONDS", 0.2)
        service = AnalysisService()
        try:
            with _serve(service) as server:
                client = ServiceClient(
                    f"http://127.0.0.1:{server.server_address[1]}", retries=0
                )
                model = client.register_model(onoff_spec)["model"]
                time.sleep(0.5)
                job = client.submit(
                    "passage", model=model, source="on == K", target="off == K",
                    t_points=[1.0],
                )
                assert client.wait(job["job"], timeout=60, interval=0.05)["state"] == "done"
                assert len(client.jobs()["jobs"]) == 1
                client.close()
        finally:
            service.close()

    def test_a_server_restarted_on_the_same_port_is_reached(self, onoff_spec):
        with _serve(AnalysisService()) as first:
            port = first.server_address[1]
            client = ServiceClient(f"http://127.0.0.1:{port}", retries=0)
            client.register_model(onoff_spec)
            assert len(client.models()["models"]) == 1
        with _serve(AnalysisService(), port=port):
            # the same client, a new process behind the port: no error, and
            # the answer is the new server's (it has no model registered)
            assert client.models()["models"] == []
            client.close()

    def test_two_threads_use_two_connections(self, onoff_spec):
        grids = [[0.5, 1.0, 2.0], [0.75, 1.5, 3.0]]
        with _serve(AnalysisService()) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
            model = client.register_model(onoff_spec)["model"]
            query = dict(model=model, source="on == K", target="off == K", cdf=True)
            expected = [client.passage(**query, t_points=grid) for grid in grids]
            client.close()
            replies: dict[int, list[dict]] = {0: [], 1: []}
            sockets: dict[int, set] = {0: set(), 1: set()}
            errors: list[BaseException] = []
            barrier = threading.Barrier(2)

            def ask(index):
                try:
                    barrier.wait(timeout=10)
                    for _ in range(10):
                        replies[index].append(
                            client.passage(**query, t_points=grids[index])
                        )
                        sockets[index].add(client._local.connection.sock.getsockname())
                except BaseException as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=ask, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            # one connection per thread, kept for all its requests
            assert len(sockets[0]) == len(sockets[1]) == 1
            assert sockets[0] != sockets[1]
            for index in (0, 1):
                assert len(replies[index]) == 10
                for reply in replies[index]:
                    assert reply["t_points"] == grids[index]
                    np.testing.assert_array_equal(
                        reply["density"], expected[index]["density"]
                    )
            client.close()

    @pytest.mark.parametrize("url", ["https://127.0.0.1:8400", "127.0.0.1:8400"])
    def test_only_plain_http_urls(self, url):
        with pytest.raises(ValueError, match="http://"):
            ServiceClient(url)
