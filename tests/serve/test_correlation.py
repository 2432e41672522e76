"""End-to-end request correlation: X-Request-Id, spans, access records."""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher


def _get(base_url, path, headers=None):
    request = urllib.request.Request(base_url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read()


@pytest.fixture
def server(planted_result):
    publisher = SnapshotPublisher(planted_result)
    with RuleServer(publisher, port=0).start() as running:
        yield running


def access_records(expect: int = 1):
    """The buffered ``serve.access`` records, waiting for ``expect`` of them.

    The access record is written in the handler's ``finally`` *after* the
    response bytes go out, so the client can observe the response before
    the record lands; ``wait_for`` is condition-based, not a poll.
    """

    def is_access(record):
        return record["event"] == "serve.access"

    obs_log.get_logger().wait_for(
        lambda records: sum(map(is_access, records)) >= expect
    )
    return [r for r in obs_log.get_logger().records() if is_access(r)]


class TestRequestIdHeader:
    def test_caller_supplied_id_is_echoed(self, server):
        status, headers, _ = _get(
            server.url, "/rules", {"X-Request-Id": "demo-req-1"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == "demo-req-1"

    def test_generated_id_when_absent(self, server):
        _, headers, _ = _get(server.url, "/rules")
        assert re.fullmatch(r"[0-9a-f]{16}", headers["X-Request-Id"])

    def test_each_request_gets_a_fresh_id(self, server):
        ids = {
            _get(server.url, "/healthz")[1]["X-Request-Id"] for _ in range(5)
        }
        assert len(ids) == 5


class TestAccessLog:
    def test_one_record_per_request_with_all_fields(self, server):
        obs_log.enable_logging(level=obs_log.DEBUG)
        _get(server.url, "/rules", {"X-Request-Id": "trace-me"})
        (record,) = access_records()
        assert record["route"] == "/rules"
        assert record["status"] == 200
        assert record["method"] == "GET"
        assert record["request_id"] == "trace-me"
        assert record["trace_id"] == "trace-me"  # ambient context stamp
        assert record["seconds"] >= 0

    def test_404_is_logged_with_its_status(self, server):
        obs_log.enable_logging(level=obs_log.DEBUG)
        status, _, _ = _get(server.url, "/no-such-route")
        assert status == 404
        (record,) = access_records()
        assert record["status"] == 404
        assert record["route"] == "/no-such-route"


class TestSpanCorrelation:
    def test_request_spans_carry_the_request_id(self, server):
        obs_log.enable_logging(level=obs_log.DEBUG)
        obs_trace.enable_tracing()
        obs_trace.get_tracer().clear()
        _get(server.url, "/rules", {"X-Request-Id": "span-req"})
        access_records()  # the span closes before the access record lands
        spans = [
            record
            for record in obs_trace.get_tracer().spans()
            if record.name == "serve.request"
        ]
        assert spans, "the request span must be recorded"
        assert all(record.trace_id == "span-req" for record in spans)

    def test_log_and_span_share_one_trace(self, server):
        obs_log.enable_logging(level=obs_log.DEBUG)
        obs_trace.enable_tracing()
        obs_trace.get_tracer().clear()
        _get(server.url, "/healthz", {"X-Request-Id": "joined"})
        (record,) = access_records()
        span_ids = {
            s.trace_id
            for s in obs_trace.get_tracer().spans()
            if s.name == "serve.request"
        }
        assert record["trace_id"] == "joined"
        assert span_ids == {"joined"}


class TestHealthzSLO:
    def test_slo_pack_rows_reach_healthz(self, planted_result):
        from repro.obs import metrics as obs_metrics
        from repro.obs import slo as obs_slo

        obs_metrics.enable_metrics()
        obs_metrics.get_registry().reset()
        publisher = SnapshotPublisher(planted_result)
        with RuleServer(
            publisher, port=0, slo_pack=obs_slo.default_pack()
        ).start() as server:
            status, _, body = _get(server.url, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["slo"]["status"] in ("ok", "warn", "crit")
        names = [check["name"] for check in payload["health"]["checks"]]
        assert "slo:serve_query_p99_seconds" in names

    def test_healthz_and_page_grade_once_and_agree(
        self, planted_result, monkeypatch
    ):
        from repro.obs import slo as obs_slo

        always_crit = obs_slo.SLORule(
            name="always_crit", metric="repro_no_such_metric",
            threshold=0.0, absent="violate",
        )
        publisher = SnapshotPublisher(planted_result)
        graded = []
        original = publisher.health

        def counting_health():
            graded.append(1)
            return original()

        monkeypatch.setattr(publisher, "health", counting_health)
        with RuleServer(publisher, port=0, slo_pack=[always_crit]).start() as server:
            status, _, body = _get(server.url, "/healthz")
            assert len(graded) == 1
            page_status, _, page = _get(server.url, "/")
            assert len(graded) == 2
        assert status == 503
        assert json.loads(body)["health"]["status"] == "crit"
        assert page_status == 200
        badge = re.search(
            r"<h2>Health <span class=\"badge\">.*?</span> (\w+)</span></h2>",
            page.decode("utf-8"),
        )
        assert badge is not None
        assert badge.group(1) == "CRIT"
