"""RuleServer HTTP routes against an in-process ephemeral-port server."""

import json
import urllib.error
import urllib.request

import pytest

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
