"""Stdlib-only client for the analysis server's HTTP JSON API.

The measure calls post the request fields they are given, as given: the
wire format is spelled by :meth:`repro.api.PassageQuery.to_wire` /
:func:`repro.api.queries.from_wire` and its defaults are applied by the
server, so ``client.passage(**query.to_wire())`` and a hand-written
``client.passage(model=..., source=..., target=..., t_points=[...])`` are the
same request.
"""
from __future__ import annotations

import http.client
import json
import os
import random
import select
import threading
import time
import weakref

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


def _peer_closed(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle kept-alive connection can no longer carry a request.

    Between requests the server sends nothing, so a readable socket means it
    has closed its end (idle timeout, restart, drain) or broken the protocol.
    """
    try:
        return bool(select.select([connection.sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed fd, or one select cannot watch
        return True


class ServiceClient:
    """Talks to a running ``semimarkov serve`` instance.

    >>> client = ServiceClient("http://127.0.0.1:8400", tenant="team-a")
    >>> model = client.register_model(spec_text)["model"]
    >>> reply = client.passage(model=model, source="p1 == 4", target="p2 == 4",
    ...                        t_points=[5, 10, 20], cdf=True)

    Each thread that uses the client keeps one persistent HTTP/1.1
    connection to the server and sends all its requests over it.  Before a
    request reuses it, a connection the server has closed (its idle timeout,
    a restart, a drain) or one inherited across ``fork`` is replaced by a
    fresh one; any error, or a reply that announces ``Connection: close``,
    drops it.  ``close()`` (or leaving a ``with`` block) releases every
    connection the client holds; a later call opens a new one.  Only plain
    ``http://`` URLs are accepted, and proxy environment variables are not
    read: the server is addressed directly.

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
        scheme, sep, rest = self.base_url.partition("://")
        if not sep or scheme.lower() != "http":
            raise ValueError(f"ServiceClient needs an http:// URL, not {base_url!r}")
        self._netloc, _, prefix = rest.partition("/")
        self._prefix = "/" + prefix if prefix else ""
        self.timeout = timeout
        self.tenant = tenant
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self._local = threading.local()
        #: every connection a thread of this client opened and still holds
        self._connections: weakref.WeakSet = weakref.WeakSet()

    def close(self) -> None:
        """Close every connection this client holds; a later call reconnects."""
        for connection in list(self._connections):
            connection.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection: reused while the server keeps it open."""
        local = self._local
        connection = getattr(local, "connection", None)
        if connection is None or local.pid != os.getpid():
            if connection is not None:  # inherited across fork: the parent's
                connection.close()
            connection = http.client.HTTPConnection(self._netloc, timeout=self.timeout)
            local.connection, local.pid = connection, os.getpid()
            self._connections.add(connection)
        elif connection.sock is not None and _peer_closed(connection):
            connection.close()  # the next request() opens a fresh socket
        return connection

    def _request(self, method: str, path: str, payload: dict | None = None):
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

    def _request_once(self, method: str, path: str, payload: dict | None):
        """One exchange: the decoded JSON reply, or the text of ``/metrics``."""
        accept = "text/plain" if path == "/metrics" else "application/json"
        headers = {"Accept": accept}
        if self.tenant:
            headers["X-Repro-Tenant"] = self.tenant
        data = None
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            connection.request(method, self._prefix + path, body=data, headers=headers)
            response = connection.getresponse()
            body = response.read()
        except ConnectionError as exc:  # refused, reset, dropped mid-response
            connection.close()
            raise _ConnectionFailed(str(exc)) from None
        except OSError as exc:
            connection.close()
            raise ServiceClientError(
                0, f"cannot reach server at {self.base_url}: {exc}"
            ) from None
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        if response.status >= 400:
            reply: dict = {}
            try:
                reply = json.loads(body)
                detail = reply.get("error", response.reason)
            except Exception:
                detail = response.reason
            retry_after = None
            raw = response.getheader("Retry-After")
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServiceClientError(
                response.status, detail, reply, retry_after=retry_after
            )
        return body.decode() if accept == "text/plain" else json.loads(body)

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
        return self._request("GET", "/metrics")

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
