"""RuleServer HTTP routes against an in-process ephemeral-port server."""

import json
import socket
import struct
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.resilience import faults
from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher
from repro.serve.query import RuleQuery, apply_query


def _get(base_url, path, data=None):
    """GET (or POST when ``data`` is set); returns (status, body bytes)."""
    request = urllib.request.Request(base_url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _get_json(base_url, path, data=None):
    status, body = _get(base_url, path, data=data)
    return status, json.loads(body)


@pytest.fixture(scope="module")
def server(planted_result):
    publisher = SnapshotPublisher(planted_result)
    with RuleServer(publisher, port=0).start() as running:
        yield running


@pytest.fixture()
def live_metrics():
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.get_registry()
    was_enabled = obs_metrics.metrics_enabled()
    registry.reset()
    obs_metrics.enable_metrics()
    yield registry
    if not was_enabled:
        obs_metrics.disable_metrics()
    registry.reset()


class TestRulesRoute:
    def test_unfiltered(self, server, planted_result):
        status, payload = _get_json(server.url, "/rules")
        assert status == 200
        assert payload["snapshot_version"] == 1
        assert payload["count"] == payload["total_rules"]
        assert payload["count"] == len(planted_result.rules)
        assert payload["rules"][0]["description"]

    def test_filtered_matches_reference(self, server, planted_result):
        query = RuleQuery(targets=("claims",), top_k=5)
        status, payload = _get_json(
            server.url, "/rules?" + query.to_query_string()
        )
        assert status == 200
        assert payload["query"] == {"targets": ["claims"], "top_k": 5}
        expected = apply_query(planted_result.rules, query)
        assert [r["description"] for r in payload["rules"]] == [
            str(rule) for rule in expected
        ]

    def test_unknown_param_is_400(self, server):
        status, payload = _get_json(server.url, "/rules?frobnicate=1")
        assert status == 400
        assert "frobnicate" in payload["error"]

    def test_bad_value_is_400(self, server):
        status, payload = _get_json(server.url, "/rules?top_k=lots")
        assert status == 400
        assert "top_k" in payload["error"]

    def test_legacy_target_param_is_400(self, server):
        status, payload = _get_json(server.url, "/rules?target=claims")
        assert status == 400
        assert "'target'" in payload["error"]
        assert "targets" in payload["error"]


class TestOtherRoutes:
    def test_healthz(self, server, planted_result):
        status, payload = _get_json(server.url, "/healthz")
        assert status == 200
        assert payload["version"] == 1
        assert payload["n_rules"] == len(planted_result.rules)
        assert payload["health"]["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_metrics_exposition(self, server, live_metrics):
        _get(server.url, "/healthz")
        status, body = _get(server.url, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_serve_http_requests_total" in text
        assert 'route="/healthz"' in text

    def test_index_page(self, server):
        status, body = _get(server.url, "/")
        assert status == 200
        text = body.decode("utf-8")
        assert "<html" in text.lower()
        assert "snapshot" in text.lower()

    def test_unknown_path_404_lists_routes(self, server):
        status, payload = _get_json(server.url, "/nope")
        assert status == 404
        assert "/rules" in payload["paths"]

    def test_post_is_405(self, server):
        status, payload = _get_json(server.url, "/rules", data=b"{}")
        assert status == 405
        assert "read-only" in payload["error"]


class TestEmptyPublisher:
    def test_rules_and_healthz_are_503(self):
        with RuleServer(SnapshotPublisher(), port=0).start() as server:
            status, payload = _get_json(server.url, "/rules")
            assert status == 503
            assert "no snapshot" in payload["error"]
            status, payload = _get_json(server.url, "/healthz")
            assert status == 503
            assert payload["health"]["status"] == "crit"


# ----------------------------------------------------------------------
# Connection hygiene and fault drills (``pytest -m faults``).  Concurrency
# is pinned with fault-point Gates: hold a request in flight, then act.
# ----------------------------------------------------------------------


@pytest.fixture()
def no_leaked_injector():
    """The test leaves the process without an active injector."""
    yield
    faults.uninstall()


def _fetch(base_url, path):
    """GET returning ``(status, parsed-or-raw body)``; never raises on 4xx/5xx."""
    status, body = _get(base_url, path)
    try:
        return status, json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return status, body


def _fan_out(base_url, path, clients):
    """``clients`` threads GET ``path`` once each; returns their results."""
    results = [None] * clients
    threads = []

    def one(i):
        results[i] = _fetch(base_url, path)

    for i in range(clients):
        thread = threading.Thread(target=one, args=(i,))
        thread.start()
        threads.append(thread)
    return threads, results


@pytest.mark.faults
class TestSlowLoris:
    def test_stalled_request_is_disconnected(self, planted_result):
        """A client that sends half a request and stalls loses its
        connection after ``read_timeout_seconds`` instead of pinning a
        handler thread forever (regression: the stdlib default is no
        timeout at all)."""
        publisher = SnapshotPublisher(planted_result)
        with RuleServer(
            publisher, port=0, read_timeout_seconds=0.2
        ).start() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /rules HTTP/1.1\r\nHost: loris\r\n")
                sock.settimeout(10)  # never send the final CRLF; just wait
                assert sock.recv(1024) == b""  # server hung up on us
            # The freed thread keeps serving real traffic.
            status, _ = _fetch(server.url, "/healthz")
            assert status == 200

    def test_handler_timeout_tracks_read_timeout(self, planted_result):
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0, read_timeout_seconds=7.5)
        try:
            assert server._httpd.RequestHandlerClass.timeout == 7.5
        finally:
            server.shutdown()

    def test_timeouts_validated(self, planted_result):
        publisher = SnapshotPublisher(planted_result)
        with pytest.raises(ValueError, match="read_timeout_seconds"):
            RuleServer(publisher, port=0, read_timeout_seconds=0)
        with pytest.raises(ValueError, match="drain_seconds"):
            RuleServer(publisher, port=0, drain_seconds=-1)


@pytest.mark.faults
class TestClientDisconnect:
    def _stub_handler(self, server):
        """A handler instance with the network replaced by stubs."""
        handler_cls = server._httpd.RequestHandlerClass
        handler = handler_cls.__new__(handler_cls)
        handler.send_response = lambda *a, **k: None
        handler.send_header = lambda *a, **k: None
        handler.end_headers = lambda *a, **k: None
        return handler

    def test_broken_pipe_is_counted_not_raised(
        self, planted_result, live_metrics
    ):
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0)
        try:
            handler = self._stub_handler(server)

            class _GonePipe:
                def write(self, data):
                    raise BrokenPipeError("client went away")

            handler.wfile = _GonePipe()
            # Must not raise — the serving thread survives the client.
            handler._send_bytes(
                200, b"{}", "application/json", route="/rules"
            )
            assert handler.close_connection is True
            assert live_metrics.value(
                "repro_serve_client_disconnects_total", route="/rules"
            ) == 1
        finally:
            server.shutdown()

    def test_connection_reset_is_counted_not_raised(
        self, planted_result, live_metrics
    ):
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0)
        try:
            handler = self._stub_handler(server)

            class _ResetPipe:
                def write(self, data):
                    raise ConnectionResetError("reset by peer")

            handler.wfile = _ResetPipe()
            handler._send_bytes(200, b"{}", "text/plain", route="/metrics")
            assert live_metrics.value(
                "repro_serve_client_disconnects_total", route="/metrics"
            ) == 1
        finally:
            server.shutdown()

    def test_server_survives_abrupt_client_close(self, planted_result):
        publisher = SnapshotPublisher(planted_result)
        with RuleServer(publisher, port=0).start() as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=10)
            # RST on close: the handler may hit the broken pipe mid-write.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.sendall(b"GET /rules HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.close()
            # Whatever happened on that thread, the server still answers.
            for _ in range(3):
                status, _ = _fetch(server.url, "/rules")
                assert status == 200


@pytest.mark.faults
class TestGracefulDrain:
    def test_shutdown_reports_unfinished_inflight(
        self, planted_result, live_metrics, no_leaked_injector
    ):
        injector = faults.FaultInjector()
        gate = injector.block_at("serve.request")
        faults.install(injector)
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0).start()
        try:
            threads, results = _fan_out(server.url, "/rules", 1)
            assert gate.wait_for_waiters(1)
            assert server.inflight == 1
            # The drain window expires with the request still parked.
            assert server.shutdown(drain_seconds=0.05) is False
            assert live_metrics.value(
                "repro_serve_drains_total", clean="false"
            ) == 1
        finally:
            gate.release()
            faults.uninstall()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        # The parked request still completed once released — drain never
        # kills work, it only reports whether the window sufficed.
        assert results[0][0] == 200

    def test_clean_shutdown_drains_true(self, planted_result):
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0).start()
        status, _ = _fetch(server.url, "/rules")
        assert status == 200
        assert server.shutdown() is True

    def test_inflight_count_survives_concurrent_requests(self, planted_result):
        """Many threads entering and leaving at once: a lost update would
        leave the count above zero and the drain would time out."""
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0).start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads, results = [], []
            for _ in range(8):
                batch, batch_results = _fan_out(server.url, "/rules?top_k=1", 4)
                threads.extend(batch)
                results.append(batch_results)
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(
            status == 200 for batch in results for status, _ in batch
        )
        # The count falls to zero just after each response is written.
        assert server.shutdown(drain_seconds=10.0) is True
        assert server.inflight == 0

    def test_drain_waits_for_a_parked_request(
        self, planted_result, no_leaked_injector
    ):
        injector = faults.FaultInjector()
        gate = injector.block_at("serve.request")
        faults.install(injector)
        publisher = SnapshotPublisher(planted_result)
        server = RuleServer(publisher, port=0).start()
        threads, results = _fan_out(server.url, "/rules", 1)
        try:
            assert gate.wait_for_waiters(1)
            # Releasing from another thread lets the drain finish in-window.
            threading.Timer(0.05, gate.release).start()
            assert server.shutdown(drain_seconds=10.0) is True
        finally:
            gate.release()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert results[0][0] == 200


@pytest.mark.faults
class TestInjectedServeFaults:
    def test_injected_request_fault_is_500_not_thread_death(
        self, planted_result, no_leaked_injector
    ):
        injector = faults.FaultInjector()
        injector.fail_at("serve.request", times=1)
        faults.install(injector)
        publisher = SnapshotPublisher(planted_result)
        with RuleServer(publisher, port=0).start() as server:
            status, payload = _fetch(server.url, "/rules")
            assert status == 500
            assert payload["reason"] == "fault"
            faults.uninstall()
            status, _ = _fetch(server.url, "/rules")
            assert status == 200
        assert server.inflight == 0  # the in-flight count was released

    def test_operator_routes_never_reach_the_fault_point(
        self, planted_result, no_leaked_injector
    ):
        injector = faults.FaultInjector()
        injector.fail_at("serve.request", times=None)
        faults.install(injector)
        publisher = SnapshotPublisher(planted_result)
        with RuleServer(publisher, port=0).start() as server:
            assert _fetch(server.url, "/healthz")[0] == 200
            assert _fetch(server.url, "/metrics")[0] == 200
            assert injector.hits("serve.request") == 0
            assert _fetch(server.url, "/rules")[0] == 500
            assert _fetch(server.url, "/")[0] == 500
            assert injector.hits("serve.request") == 2
