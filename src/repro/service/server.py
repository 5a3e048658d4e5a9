"""Stdlib-only HTTP JSON transport for the analysis service.

Routes (JSON request/response bodies unless noted):

======  ========================  ==============================================
POST    ``/v1/models``            register a spec; returns its digest and build
                                  info
GET     ``/v1/models``            models visible to the requesting tenant
POST    ``/v1/passage``           passage-time density / CDF / quantile query;
                                  ``"async": true`` enqueues a job (``202``)
POST    ``/v1/transient``         transient state-distribution query; also
                                  accepts ``"async": true``
GET     ``/v1/jobs``              the requesting tenant's jobs, newest first
GET     ``/v1/jobs/{id}``         one job's state / progress / result
DELETE  ``/v1/jobs/{id}``         cancel a queued or running job
GET     ``/v1/stats``             registry / cache / scheduler / job counters
                                  plus version + build info
GET     ``/v1/progress/{digest}`` in-flight / recent evaluations for one model
GET     ``/v1/health``            liveness probe
GET     ``/metrics``              Prometheus text exposition (``text/plain``)
======  ========================  ==============================================

Built on :class:`http.server.ThreadingHTTPServer` so concurrent connections
map onto threads — which is exactly the shape the coalescing scheduler
expects.  Connections are HTTP/1.1 keep-alive: one handler thread serves
every request a client sends over its connection, and closes it after
``_IDLE_TIMEOUT_SECONDS`` without one (or at once, after a reply to a request
whose body it did not read).  Replies go out with Nagle's algorithm off, so a
kept-alive client does not wait out a delayed ACK for each reply's body.

Tenancy: every request resolves its tenant from the ``X-Repro-Tenant``
header (``default`` when absent) through a single admission hook — name
validation, then the tenant's token-bucket rate limit — before any route
logic runs.  Known paths hit with an unsupported method get ``405`` with an
``Allow`` header; unknown ``/v1/*`` paths get a structured JSON ``404``.

Every request emits one structured log line on the ``repro.service`` logger
(method, path, model digest, tenant, status, milliseconds, points
evaluated); wire a handler/level with ``semimarkov serve --log-level info``.
"""
from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import faults
from ..jobs import DEFAULT_TENANT, TenantError, validate_tenant
from ..obs.metrics import get_metrics
from .service import (
    AnalysisService,
    ServiceError,
    ServiceUnavailable,
    ValidationError,
)

__all__ = ["create_server", "AnalysisHTTPServer"]

_MAX_BODY_BYTES = 16 * 1024 * 1024

#: a kept-alive connection with no request for this long is closed (seconds)
_IDLE_TIMEOUT_SECONDS = 30.0

#: the tenant header name (case-insensitive per HTTP)
TENANT_HEADER = "X-Repro-Tenant"

#: exact path -> methods it answers; used for routing *and* 405 Allow headers
_EXACT_ROUTES = {
    "/v1/models": ("GET", "POST"),
    "/v1/passage": ("POST",),
    "/v1/transient": ("POST",),
    "/v1/jobs": ("GET",),
    "/v1/stats": ("GET",),
    "/v1/health": ("GET",),
    "/metrics": ("GET",),
}
#: parameterised prefixes -> (metric label, methods)
_PREFIX_ROUTES = {
    "/v1/jobs/": ("/v1/jobs/{id}", ("GET", "DELETE")),
    "/v1/progress/": ("/v1/progress/{digest}", ("GET",)),
}

logger = logging.getLogger("repro.service")


def _allowed_methods(path: str) -> tuple[str, ...] | None:
    """Methods a path answers, or ``None`` for an unknown endpoint."""
    exact = _EXACT_ROUTES.get(path)
    if exact is not None:
        return exact
    for prefix, (_, methods) in _PREFIX_ROUTES.items():
        if path.startswith(prefix):
            return methods
    return None


def _metric_path(path: str) -> str:
    """Bounded-cardinality path label (ids/digests collapse to templates)."""
    if path in _EXACT_ROUTES:
        return path
    for prefix, (label, _) in _PREFIX_ROUTES.items():
        if path.startswith(prefix):
            return label
    return "(unknown)"


def _http_error(status: int, message: str) -> ServiceError:
    exc = ServiceError(message)
    exc.status = status
    return exc


class AnalysisHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`AnalysisService`.

    ``server_close`` also ends the kept-alive connections: their handler
    threads see end-of-stream once the request in hand (if any) is answered,
    and close, so clients reconnect to whatever listens next.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: AnalysisService, *, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _ServiceHandler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # closed by its handler meanwhile
                pass


class _ServiceHandler(BaseHTTPRequestHandler):
    """One client connection: every request it carries, in order.

    The handler outlives a request, so :meth:`_dispatch` resets the
    per-request log fields before each one.  ``disable_nagle_algorithm``
    sends each reply's headers and body without waiting for the client's
    ACK of the headers; the socket timeout is the idle limit between
    requests.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: AnalysisHTTPServer

    # ------------------------------------------------------------- plumbing
    def setup(self) -> None:
        self.timeout = _IDLE_TIMEOUT_SECONDS
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # The stdlib per-request line is replaced by the structured line
        # emitted in _log_request; keep the stdlib one only in verbose mode.
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict, headers: dict | None = None) -> None:
        self._note_outcome(status, payload)
        self._send(status, json.dumps(payload).encode(), "application/json", headers)

    def _reply_text(self, status: int, text: str) -> None:
        self._note_outcome(status, None)
        self._send(status, text.encode(), "text/plain; version=0.0.4; charset=utf-8")

    def _send(
        self, status: int, body: bytes, content_type: str, headers: dict | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        if not self._body_read and (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        ):
            # an unread body would be parsed as the connection's next request
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message, "status": status})

    def _note_outcome(self, status: int, payload: dict | None) -> None:
        self._status = status
        if isinstance(payload, dict):
            digest = payload.get("model") or payload.get("digest")
            if digest:
                self._digest = str(digest)
            stats = payload.get("statistics")
            if isinstance(stats, dict):
                self._points = int(stats.get("s_points_computed", 0))

    def _log_request(self, method: str, path: str, started: float) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        label = _metric_path(path)
        logger.info(
            "method=%s path=%s digest=%s tenant=%s status=%d ms=%.1f points=%d",
            method, path, self._digest, self._tenant, self._status,
            elapsed_ms, self._points,
        )
        registry = get_metrics()
        registry.counter(
            "repro_requests_total", "HTTP requests by path, status and tenant",
            ("path", "status", "tenant"),
        ).inc(1, path=label, status=self._status, tenant=self._tenant)
        registry.histogram(
            "repro_request_seconds", "HTTP request latency", ("path",),
        ).observe(elapsed_ms / 1000.0, path=label)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValidationError("request needs a JSON body")
        if length > _MAX_BODY_BYTES:
            raise ValidationError("request body too large")
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        return payload

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        """The one request pipeline: tenant admission, routing, errors."""
        started = time.perf_counter()
        # one handler serves every request of a kept-alive connection
        self._status, self._digest, self._points = 0, "-", 0
        self._tenant = DEFAULT_TENANT
        self._body_read = False
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            allowed = _allowed_methods(path)
            if allowed is None:
                raise _http_error(404, f"unknown endpoint {self.path!r}")
            # middleware-style admission hook: tenant validation + rate limit
            # runs before any route logic (health and metrics stay unmetered
            # so probes and scrapes survive a tenant's exhausted budget)
            self._tenant = validate_tenant(self.headers.get(TENANT_HEADER))
            if path not in ("/v1/health", "/metrics"):
                self.server.service.admit(self._tenant)
            faults.fire("http.handler", method=method, path=_metric_path(path))
            if self.server.service.draining and method in ("POST", "DELETE"):
                # Reads (job polling, progress, stats) stay answerable to the
                # very end so clients can observe the drain; new work and
                # cancellations go to the successor process.
                raise ServiceUnavailable(
                    "server is draining for shutdown; retry shortly"
                )
            if method not in allowed:
                self._reply(
                    405,
                    {"error": f"{method} not allowed on {path}; allowed: "
                              + ", ".join(allowed),
                     "status": 405, "allow": list(allowed)},
                    headers={"Allow": ", ".join(allowed)},
                )
                return
            self._route(method, path, self._tenant)
        except TenantError as exc:
            self._error(400, str(exc))
        except ServiceError as exc:
            headers = None
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                headers = {"Retry-After": max(1, int(retry_after + 0.999))}
            self._reply(exc.status, exc.payload(), headers=headers)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"internal error: {exc}")
        finally:
            self._log_request(method, path, started)

    def _route(self, method: str, path: str, tenant: str) -> None:
        service = self.server.service
        if path == "/v1/health":
            self._reply(200, {"status": "ok"})
        elif path == "/metrics":
            self._reply_text(200, service.metrics_text())
        elif path == "/v1/stats":
            self._reply(200, service.stats())
        elif path == "/v1/jobs":
            self._reply(200, service.list_jobs(tenant))
        elif path.startswith("/v1/jobs/"):
            job_id = path.rsplit("/", 1)[1]
            if method == "DELETE":
                self._reply(200, service.cancel_job(job_id, tenant=tenant))
            else:
                self._reply(200, service.job_view(job_id, tenant=tenant))
        elif path.startswith("/v1/progress/"):
            digest = path.rsplit("/", 1)[1]
            self._reply(200, service.progress(digest))
        elif path == "/v1/models" and method == "GET":
            self._reply(200, service.list_models(tenant))
        elif path == "/v1/models":
            payload = self._read_json()
            self._reply(200, service.register_model(
                payload.get("spec", ""),
                name=payload.get("name"),
                overrides=payload.get("overrides"),
                max_states=payload.get("max_states"),
                tenant=tenant,
            ))
        elif path in ("/v1/passage", "/v1/transient"):
            kind = path.rsplit("/", 1)[1]
            body = self._read_json()
            if body.pop("async", False):
                view = service.submit(kind, body, tenant=tenant)
                self._reply(202, view, headers={"Location": view["location"]})
            else:
                self._reply(200, service.measure(kind, body, tenant=tenant))
        else:  # pragma: no cover - _allowed_methods gates every path above
            self._error(404, f"unknown endpoint {self.path!r}")


def create_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 8400,
    *,
    quiet: bool = True,
) -> AnalysisHTTPServer:
    """Bind the service to an address (``port=0`` picks a free port)."""
    return AnalysisHTTPServer((host, port), service, quiet=quiet)
