"""A zero-dependency stdlib HTTP endpoint over a snapshot publisher.

:class:`RuleServer` wraps :class:`http.server.ThreadingHTTPServer` around
a :class:`~repro.serve.publisher.SnapshotPublisher` with four routes:

* ``GET /rules``    — answer a :class:`~repro.serve.query.RuleQuery`
  parsed from the query string; JSON response with snapshot version,
  counts and the matching rules (``400`` on a malformed query, ``503``
  before the first publish);
* ``GET /healthz``  — the publisher's health report as JSON (``503``
  when any check is CRIT, i.e. nothing is published);
* ``GET /metrics``  — the process metrics registry in Prometheus text
  exposition format;
* ``GET /``         — a human status page rendered by the dashboard
  module (version, health, metrics).

Request handling is threaded, so a slow reader never blocks ``/healthz``;
every request increments ``repro_serve_http_requests_total`` by route and
status.

**Connection hygiene**: the handler socket carries a read timeout
(``read_timeout_seconds``) so a slow-loris client cannot pin a thread
forever, a mid-response client disconnect is counted
(``repro_serve_client_disconnects_total``) rather than crashing the
thread, and :meth:`RuleServer.shutdown` waits up to ``drain_seconds``
for in-flight requests before closing the socket.

Start with :meth:`RuleServer.start` (background thread, used by the
library facade) or :meth:`RuleServer.serve_forever` (blocking, used by
the CLI); ``port=0`` binds an ephemeral port exposed via
:attr:`RuleServer.address`.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs.slo import HealthReport
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.errors import InjectedFault
from repro.serve.publisher import SnapshotPublisher

__all__ = ["RuleServer"]

#: Operator routes: never counted as in-flight work (so a drain never
#: waits on them) and never reached by the ``serve.request`` fault
#: point, so health and metrics stay readable while /rules is wedged.
OPERATOR_ROUTES = ("/healthz", "/metrics")


class RuleServer:
    """An HTTP server answering rule queries from a publisher's snapshot.

    The server never owns mining: someone else publishes snapshots into
    ``publisher`` (possibly while the server runs — readers pick up the
    swap on their next request).  ``read_timeout_seconds`` bounds each
    socket read; ``drain_seconds`` is how long :meth:`shutdown` waits for
    in-flight requests.  Usable as a context manager; exit drains
    in-flight requests, shuts the listener down and joins the serving
    thread.
    """

    def __init__(
        self,
        publisher: SnapshotPublisher,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        read_timeout_seconds: float = 30.0,
        drain_seconds: float = 5.0,
        slo_pack=None,
    ):
        if read_timeout_seconds <= 0:
            raise ValueError("read_timeout_seconds must be positive")
        if drain_seconds < 0:
            raise ValueError("drain_seconds must be non-negative")
        self.publisher = publisher
        self.read_timeout_seconds = read_timeout_seconds
        self.drain_seconds = drain_seconds
        self._inflight = 0
        self._idle = threading.Condition()
        self.slo_pack = list(slo_pack) if slo_pack is not None else None
        self.started_at = time.time()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port is the real one under ``port=0``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def inflight(self) -> int:
        """Requests currently being handled (operator routes excluded)."""
        with self._idle:
            return self._inflight

    def _enter(self) -> None:
        with self._idle:
            self._inflight += 1

    def _leave(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    @property
    def url(self) -> str:
        """The server's base URL, e.g. ``http://127.0.0.1:8765``."""
        host, port = self.address
        return f"http://{host}:{port}"

    def slo_report(self):
        """Evaluate the configured SLO pack now, or ``None`` without one."""
        if self.slo_pack is None:
            return None
        from repro.obs.slo import evaluate_pack

        return evaluate_pack(self.slo_pack)

    def _graded_status(self) -> Tuple[Dict[str, Any], HealthReport]:
        """The status payload and the health report it carries, graded once.

        The publisher's checks and the SLO pack's rows merge into one
        report, so ``/healthz`` and the ``/`` page always agree.
        """
        from repro.obs.slo import HealthReport

        report = self.publisher.health()
        slo_report = self.slo_report()
        if slo_report is not None:
            report = HealthReport(
                checks=list(report.checks) + slo_report.to_health_checks()
            )
        payload = self.publisher.to_dict(health=report)
        if slo_report is not None:
            payload["slo"] = slo_report.to_dict()
        return payload, report

    def start(self) -> "RuleServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` is called."""
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.05)

    def shutdown(self, drain_seconds: Optional[float] = None) -> bool:
        """Stop accepting, drain in-flight requests, close, join.

        Returns ``True`` when every in-flight request finished within
        the drain window (``drain_seconds`` overrides the server's),
        ``False`` when the window expired with work still running —
        either way the listener is closed and the thread joined, so the
        caller always gets its port back.
        """
        window = self.drain_seconds if drain_seconds is None else drain_seconds
        # socketserver's shutdown() waits for a serve_forever loop to
        # acknowledge; on a server that never served it would wait forever.
        if self._serving:
            self._httpd.shutdown()
        started = time.perf_counter()
        with self._idle:
            drained = self._idle.wait_for(
                lambda: self._inflight <= 0, timeout=window
            )
        if obs_metrics.metrics_enabled():
            obs_metrics.observe(
                "repro_serve_drain_seconds",
                time.perf_counter() - started,
                help="Time spent draining in-flight requests at shutdown",
                unit="seconds",
            )
            obs_metrics.inc(
                "repro_serve_drains_total",
                help="Graceful shutdowns, by whether the drain completed",
                clean=str(drained).lower(),
            )
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        obs_log.info(
            "serve.shutdown",
            drained=drained,
            drain_seconds=round(time.perf_counter() - started, 6),
        )
        if obs_flight.flight_enabled():
            obs_flight.dump(
                "server-shutdown",
                health=self.publisher.to_dict(),
                config={
                    "read_timeout_seconds": self.read_timeout_seconds,
                    "drain_seconds": self.drain_seconds,
                    "url": self.url,
                },
            )
        return drained

    def __enter__(self) -> "RuleServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def _make_handler(server: RuleServer):
    """Build the request-handler class bound to one :class:`RuleServer`."""

    class _Handler(BaseHTTPRequestHandler):
        """Routes GET requests; everything else is 405."""

        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # Per-request correlation state, reset at the top of do_GET.
        _request_id: Optional[str] = None
        _status = 0
        # socketserver applies this to the connection in setup(): a
        # client that stalls mid-request (slow loris) hits the timeout
        # and the connection is closed instead of pinning the thread.
        timeout = server.read_timeout_seconds

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
            """Correlate and dispatch one GET request.

            The ``X-Request-Id`` header (generated when absent) becomes
            the request's trace id: it is echoed on the response, stamped
            into every span and log record the request causes, and
            written into exactly one structured ``serve.access`` record
            per request — success, error or crash alike.
            """
            parsed = urlsplit(self.path)
            route = parsed.path.rstrip("/") or "/"
            request_id = (
                self.headers.get("X-Request-Id") or obs_context.new_trace_id()
            )
            self._request_id = request_id
            self._status = 0
            started = time.perf_counter()
            context = obs_context.RequestContext(
                trace_id=request_id, request_id=request_id
            )
            with obs_context.activate(context):
                try:
                    with span("serve.request", route=route):
                        self._dispatch(parsed, route)
                finally:
                    obs_log.event(
                        "serve.access",
                        method="GET",
                        route=route,
                        status=self._status,
                        seconds=round(time.perf_counter() - started, 6),
                        request_id=request_id,
                    )

        def _dispatch(self, parsed, route: str) -> None:
            """Dispatch one GET to its route handler, counting it in flight."""
            counted = route not in OPERATOR_ROUTES
            if counted:
                server._enter()
            try:
                if counted:
                    faults.fire("serve.request")
                if route == "/rules":
                    self._handle_rules(parsed.query)
                elif route == "/healthz":
                    self._handle_healthz()
                elif route == "/metrics":
                    self._handle_metrics()
                elif route == "/":
                    self._handle_index()
                else:
                    self._send_json(
                        404,
                        {"error": f"unknown path {parsed.path!r}",
                         "paths": ["/rules", "/healthz", "/metrics", "/"]},
                        route="<unknown>",
                    )
            except (BrokenPipeError, ConnectionResetError):
                self._count_disconnect(route)
            except Exception as error:  # never kill the serving thread
                kind = "fault" if isinstance(error, InjectedFault) else "error"
                try:
                    self._send_json(
                        500, {"error": str(error), "reason": kind}, route=route
                    )
                except Exception:
                    pass
            finally:
                if counted:
                    server._leave()

        def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
            """The API is read-only; mutation happens through the publisher."""
            self._request_id = (
                self.headers.get("X-Request-Id") or obs_context.new_trace_id()
            )
            self._send_json(
                405, {"error": "the serving API is read-only (GET only)"},
                route="<method>",
            )
            obs_log.event(
                "serve.access",
                method="POST",
                route="<method>",
                status=self._status,
                request_id=self._request_id,
            )

        # ------------------------------------------------------------------

        def _handle_rules(self, query_string: str) -> None:
            from repro.serve.query import RuleQuery

            try:
                query = RuleQuery.from_query_string(query_string)
            except ValueError as error:
                self._send_json(400, {"error": str(error)}, route="/rules")
                return
            try:
                answer = server.publisher.query(query)
            except RuntimeError as error:
                self._send_json(503, {"error": str(error)}, route="/rules")
                return
            except ValueError as error:
                self._send_json(400, {"error": str(error)}, route="/rules")
                return
            self._send_json(
                200,
                {
                    "snapshot_version": answer.version,
                    "total_rules": answer.total_rules,
                    "count": len(answer),
                    "cached": answer.cached,
                    "query": query.to_dict(),
                    "rules": answer.to_dicts(),
                },
                route="/rules",
            )

        def _handle_healthz(self) -> None:
            payload, report = server._graded_status()
            report.publish()
            payload["uptime_seconds"] = time.time() - server.started_at
            status = 503 if report.status == "crit" else 200
            self._send_json(status, payload, route="/healthz")

        def _handle_metrics(self) -> None:
            body = obs_metrics.get_registry().to_prometheus().encode("utf-8")
            self._send_bytes(
                200, body, "text/plain; version=0.0.4; charset=utf-8",
                route="/metrics",
            )

        def _handle_index(self) -> None:
            from repro.report.dashboard import render_serve_page

            status_payload, _ = server._graded_status()
            document = render_serve_page(
                status=status_payload,
                metrics=obs_metrics.get_registry().snapshot(),
                uptime_seconds=time.time() - server.started_at,
            )
            self._send_bytes(
                200, document.encode("utf-8"), "text/html; charset=utf-8",
                route="/",
            )

        # ------------------------------------------------------------------

        def _count_disconnect(self, route: str) -> None:
            """A client vanished mid-response: count it, keep the thread."""
            self.close_connection = True
            if obs_metrics.metrics_enabled():
                obs_metrics.inc(
                    "repro_serve_client_disconnects_total",
                    help="Responses abandoned because the client disconnected",
                    route=route,
                )

        def _send_json(self, status: int, payload: dict, *, route: str) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._send_bytes(
                status, body, "application/json; charset=utf-8", route=route
            )

        def _send_bytes(
            self, status: int, body: bytes, content_type: str, *, route: str
        ) -> None:
            self._status = status
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                if self._request_id is not None:
                    self.send_header("X-Request-Id", self._request_id)
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                self._count_disconnect(route)
                return
            if obs_metrics.metrics_enabled():
                obs_metrics.inc(
                    "repro_serve_http_requests_total",
                    help="HTTP requests served, by route and status",
                    route=route,
                    status=str(status),
                )

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            """Silence the default per-request stderr chatter; metrics
            carry the request counts instead."""

    return _Handler
