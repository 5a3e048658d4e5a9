"""Client-side backpressure behaviour: Retry-After, 429 polling, jitter.

A polling fleet must neither hammer a rate-limiting server (ignore its
Retry-After) nor re-arrive in lockstep after a shared backoff (no jitter).
"""
from __future__ import annotations

import contextlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import ServiceClient, ServiceClientError
from repro.service.client import _jittered


class TestJitter:
    def test_jitter_stays_within_twenty_percent(self):
        draws = [_jittered(1.0) for _ in range(500)]
        assert all(0.8 <= d <= 1.2 for d in draws)
        assert max(draws) - min(draws) > 0.01  # actually random, not constant

    def test_jitter_scales_with_delay(self):
        assert 0.08 <= _jittered(0.1) <= 0.12


class TestRetryAfterParsing:
    @staticmethod
    @contextlib.contextmanager
    def _serve_429(retry_after: str):
        """A stub server answering every request with a JSON 429."""

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 - stdlib naming
                body = b'{"error": "rate limited"}'
                self.send_response(429)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Retry-After", retry_after)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_retry_after_header_lands_on_the_exception(self):
        with self._serve_429("7") as url, ServiceClient(url, retries=0) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.job("x")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 7.0
        assert excinfo.value.message == "rate limited"

    def test_unparseable_retry_after_is_ignored(self):
        with self._serve_429("next tuesday") as url, ServiceClient(url, retries=0) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.job("x")
        assert excinfo.value.status == 429
        assert excinfo.value.message == "rate limited"
        assert excinfo.value.retry_after is None


class TestWaitUnder429:
    def _polling_client(self, monkeypatch, responses, sleeps):
        client = ServiceClient("http://127.0.0.1:1", retries=0)
        replies = iter(responses)

        def _job(job_id):
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(client, "job", _job)
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: sleeps.append(s)
        )
        return client

    def test_wait_honours_retry_after_and_keeps_polling(self, monkeypatch):
        sleeps: list[float] = []
        client = self._polling_client(
            monkeypatch,
            [
                ServiceClientError(429, "rate limited", retry_after=3.5),
                ServiceClientError(429, "rate limited", retry_after=1.25),
                {"state": "done", "job": "x"},
            ],
            sleeps,
        )
        view = client.wait("x", interval=0.25)
        assert view["state"] == "done"
        assert sleeps == [3.5, 1.25]  # the server's pacing, not ours

    def test_wait_without_retry_after_falls_back_to_jittered_interval(
        self, monkeypatch
    ):
        sleeps: list[float] = []
        client = self._polling_client(
            monkeypatch,
            [
                ServiceClientError(429, "rate limited"),
                {"state": "done", "job": "x"},
            ],
            sleeps,
        )
        client.wait("x", interval=0.25)
        assert len(sleeps) == 1
        assert 0.2 <= sleeps[0] <= 0.3  # +-20% of the interval

    def test_wait_reraises_non_429_errors(self, monkeypatch):
        sleeps: list[float] = []
        client = self._polling_client(
            monkeypatch,
            [ServiceClientError(500, "kaboom")],
            sleeps,
        )
        with pytest.raises(ServiceClientError, match="kaboom"):
            client.wait("x")
        assert sleeps == []
