"""Stdlib-only client for the analysis server's HTTP JSON API.

The measure calls post the request fields they are given, as given: the
wire format is spelled by :meth:`repro.api.PassageQuery.to_wire` /
:func:`repro.api.queries.from_wire` and its defaults are applied by the
server, so ``client.passage(**query.to_wire())`` and a hand-written
``client.passage(model=..., source=..., target=..., t_points=[...])`` are the
same request.
"""
from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

__all__ = ["ServiceClient", "ServiceClientError"]

#: job states after which polling stops
_TERMINAL = ("done", "failed", "cancelled")


class ServiceClientError(Exception):
    """Non-2xx response from the server, carrying its JSON error message."""

    def __init__(
        self,
        status: int,
        message: str,
        payload: dict | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: the server's structured error body (quota, retry_after_seconds, ...)
        self.payload = payload or {}
        #: the server's ``Retry-After`` header (seconds), when it sent one
        self.retry_after = retry_after


def _jittered(delay: float) -> float:
    """+-20% jitter so a retrying client fleet does not re-arrive in lockstep."""
    return delay * (0.8 + 0.4 * random.random())


class _ConnectionFailed(Exception):
    """Internal: the TCP/socket layer failed before an HTTP status existed."""


class ServiceClient:
    """Talks to a running ``semimarkov serve`` instance.

    >>> client = ServiceClient("http://127.0.0.1:8400", tenant="team-a")
    >>> model = client.register_model(spec_text)["model"]
    >>> reply = client.passage(model=model, source="p1 == 4", target="p2 == 4",
    ...                        t_points=[5, 10, 20], cdf=True)

    Idempotent ``GET`` requests are retried with capped exponential backoff
    when the connection itself fails (refused, reset, dropped mid-read) —
    polling a job must survive a server restart.  ``POST``/``DELETE`` are
    never retried: the request may have been applied before the connection
    died, and replaying a submission would enqueue a duplicate job.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 120.0,
        tenant: str | None = None,
        retries: int = 3,
        backoff: float = 0.25,
        max_backoff: float = 2.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.tenant = tenant
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)

    # ------------------------------------------------------------- plumbing
    def _headers(self, accept: str = "application/json") -> dict:
        headers = {"Accept": accept}
        if self.tenant:
            headers["X-Repro-Tenant"] = self.tenant
        return headers

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        attempts = self.retries if method == "GET" else 0
        delay = self.backoff
        while True:
            try:
                return self._request_once(method, path, payload)
            except _ConnectionFailed as exc:
                if attempts <= 0:
                    raise ServiceClientError(
                        0, f"cannot reach server at {self.base_url}: {exc}"
                    ) from None
                attempts -= 1
                time.sleep(_jittered(delay))
                delay = min(delay * 2.0, self.max_backoff)

    def _request_once(self, method: str, path: str, payload: dict | None) -> dict:
        data = None
        headers = self._headers()
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            body: dict = {}
            try:
                body = json.loads(exc.read())
                detail = body.get("error", exc.reason)
            except Exception:
                detail = str(exc.reason)
            retry_after = None
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServiceClientError(
                exc.code, detail, body, retry_after=retry_after
            ) from None
        except urllib.error.URLError as exc:
            # urlopen wraps socket-level failures (ConnectionRefusedError,
            # ConnectionResetError, RemoteDisconnected, ...) in URLError
            if isinstance(exc.reason, ConnectionError):
                raise _ConnectionFailed(str(exc.reason)) from None
            raise ServiceClientError(
                0, f"cannot reach server at {self.base_url}: {exc.reason}"
            ) from None
        except ConnectionError as exc:  # reset mid-response body
            raise _ConnectionFailed(str(exc)) from None

    # ------------------------------------------------------------------ API
    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def progress(self, digest: str) -> dict:
        """In-flight / recently finished evaluations for one model digest."""
        return self._request("GET", f"/v1/progress/{digest}")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition body from ``GET /metrics``."""
        request = urllib.request.Request(
            self.base_url + "/metrics", headers=self._headers("text/plain")
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode()
        except urllib.error.HTTPError as exc:
            raise ServiceClientError(exc.code, str(exc.reason)) from None
        except urllib.error.URLError as exc:
            raise ServiceClientError(
                0, f"cannot reach server at {self.base_url}: {exc.reason}"
            ) from None

    def register_model(
        self,
        spec: str,
        *,
        name: str | None = None,
        overrides: dict | None = None,
        max_states: int | None = None,
    ) -> dict:
        payload: dict = {"spec": spec}
        if name is not None:
            payload["name"] = name
        if overrides:
            payload["overrides"] = overrides
        if max_states is not None:
            payload["max_states"] = max_states
        return self._request("POST", "/v1/models", payload)

    def models(self) -> dict:
        """Models visible to this client's tenant (``GET /v1/models``)."""
        return self._request("GET", "/v1/models")

    def passage(self, **fields) -> dict:
        """``POST /v1/passage``: density / CDF / quantile of a passage time."""
        return self._request("POST", "/v1/passage", fields)

    def transient(self, **fields) -> dict:
        """``POST /v1/transient``: transient probability on a t-grid."""
        return self._request("POST", "/v1/transient", fields)

    # ----------------------------------------------------------- async jobs
    def submit(self, kind: str, **fields) -> dict:
        """Submit an async query; returns the ``202`` job view immediately.

        ``kind`` is ``"passage"`` or ``"transient"``; the keyword arguments
        are exactly those :meth:`passage` / :meth:`transient` take.
        """
        if kind not in ("passage", "transient"):
            raise ValueError(f"kind must be 'passage' or 'transient', not {kind!r}")
        return self._request("POST", f"/v1/{kind}", {**fields, "async": True})

    def job(self, job_id: str) -> dict:
        """One job's state / progress / result (``GET /v1/jobs/{id}``)."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    poll = job  # alias: polling a job is just re-fetching its view

    def jobs(self) -> dict:
        """This tenant's jobs, newest first (``GET /v1/jobs``)."""
        return self._request("GET", "/v1/jobs")

    def wait(
        self, job_id: str, *, timeout: float | None = None, interval: float = 0.25
    ) -> dict:
        """Poll until the job reaches a terminal state; returns its view.

        A 429 (rate-limited poll) is not terminal: the loop honours the
        server's ``Retry-After`` (falling back to a jittered ``interval``)
        and keeps polling until the deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        state = "unknown"
        while True:
            pause = _jittered(interval)
            try:
                view = self.job(job_id)
            except ServiceClientError as exc:
                if exc.status != 429:
                    raise
                if exc.retry_after is not None:
                    pause = exc.retry_after
            else:
                state = view.get("state")
                if state in _TERMINAL:
                    return view
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state!r} after {timeout}s"
                )
            time.sleep(pause)

    def cancel(self, job_id: str) -> dict:
        """Request cancellation (``DELETE /v1/jobs/{id}``)."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")
