"""SLO rules: stats, absent policies, packs, prom parity, exit codes."""

from __future__ import annotations

import json
import sys

import pytest

from repro.obs import slo
from repro.obs.metrics import MetricsRegistry


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("requests_total", route="/a").inc(90)
    registry.counter("requests_total", route="/b").inc(10)
    registry.counter("shed_total").inc(2)
    registry.gauge("circuit_state", circuit="refresh").set(0)
    registry.gauge("circuit_state", circuit="other").set(2)
    histogram = registry.histogram(
        "latency_seconds", buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.005, 0.05, 0.05, 0.05, 0.5):
        histogram.observe(value)
    return registry


def evaluate(rule: slo.SLORule, registry=None) -> slo.SLOResult:
    report = slo.evaluate_pack([rule], registry or make_registry())
    (result,) = report.results
    return result


class TestRuleValidation:
    def test_rejects_unknown_stat_op_severity_absent(self):
        with pytest.raises(ValueError):
            slo.SLORule(name="r", metric="m", threshold=1, stat="median")
        with pytest.raises(ValueError):
            slo.SLORule(name="r", metric="m", threshold=1, op="~=")
        with pytest.raises(ValueError):
            slo.SLORule(name="r", metric="m", threshold=1, severity="fatal")
        with pytest.raises(ValueError):
            slo.SLORule(name="r", metric="m", threshold=1, absent="maybe")

    def test_ratio_requires_denominator(self):
        with pytest.raises(ValueError):
            slo.SLORule(name="r", metric="m", threshold=1, stat="ratio")

    def test_round_trips_through_dict(self):
        rule = slo.SLORule(
            name="shed", metric="shed_total", threshold=0.05, stat="ratio",
            denominator="requests_total", severity="warn",
            selector={"route": "/a"}, window_seconds=300.0,
            description="shed rate", absent="violate",
        )
        assert slo.SLORule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_keys_and_missing_required(self):
        with pytest.raises(ValueError, match="unknown keys"):
            slo.SLORule.from_dict(
                {"name": "r", "metric": "m", "threshold": 1, "sev": "crit"}
            )
        with pytest.raises(ValueError, match="required"):
            slo.SLORule.from_dict({"name": "r"})


class TestStats:
    def test_value_and_sum_add_matching_series(self):
        rule = slo.SLORule(
            name="traffic", metric="requests_total", threshold=100, op="<="
        )
        assert evaluate(rule).value == 100.0

    def test_selector_restricts_the_series(self):
        rule = slo.SLORule(
            name="a_only", metric="requests_total", threshold=90, op="==",
            selector={"route": "/a"},
        )
        assert evaluate(rule).status == "ok"

    def test_max_picks_worst_series(self):
        rule = slo.SLORule(
            name="any_open", metric="circuit_state", stat="max",
            threshold=0, op="<=",
        )
        result = evaluate(rule)
        assert result.value == 2.0
        assert result.status == "crit"

    def test_min_and_selector_together(self):
        rule = slo.SLORule(
            name="refresh_closed", metric="circuit_state", stat="min",
            selector={"circuit": "refresh"}, threshold=0, op="==",
        )
        assert evaluate(rule).status == "ok"

    def test_ratio_of_two_counters(self):
        rule = slo.SLORule(
            name="shed_rate", metric="shed_total", stat="ratio",
            denominator="requests_total", threshold=0.05, op="<=",
        )
        result = evaluate(rule)
        assert result.value == pytest.approx(0.02)
        assert result.status == "ok"

    def test_ratio_zero_denominator(self):
        registry = MetricsRegistry()
        registry.counter("errors_total").inc(3)
        registry.counter("calls_total")  # registered, still zero
        rule = slo.SLORule(
            name="err", metric="errors_total", stat="ratio",
            denominator="calls_total", threshold=0.5, op="<=",
        )
        result = evaluate(rule, registry)
        assert result.value == float("inf")
        assert result.status == "crit"

    def test_histogram_count_mean_and_quantiles(self):
        for stat, expected in (
            ("count", 6.0), ("mean", pytest.approx(0.66 / 6)),
            ("p50", 0.1), ("p99", 1.0),
        ):
            rule = slo.SLORule(
                name=stat, metric="latency_seconds", stat=stat,
                threshold=1e9, op="<=",
            )
            assert evaluate(rule).value == expected


class TestAbsentPolicies:
    def test_absent_skip_ok_violate(self):
        for policy, status in (
            ("skip", "skip"), ("ok", "ok"), ("violate", "warn"),
        ):
            rule = slo.SLORule(
                name="ghost", metric="never_recorded", threshold=1,
                severity="warn", absent=policy,
            )
            result = evaluate(rule)
            assert result.status == status
            assert result.value is None

    def test_absent_violation_uses_rule_severity(self):
        rule = slo.SLORule(
            name="ghost", metric="never_recorded", threshold=1,
            severity="crit", absent="violate",
        )
        assert evaluate(rule).status == "crit"


class TestReport:
    def _report(self) -> slo.SLOReport:
        rules = [
            slo.SLORule(name="good", metric="requests_total", threshold=1e9),
            slo.SLORule(
                name="bad", metric="circuit_state", stat="max",
                threshold=0, severity="warn",
            ),
        ]
        return slo.evaluate_pack(rules, make_registry())

    def test_status_is_worst_and_violations_listed(self):
        report = self._report()
        assert report.status == "warn"
        assert [r.rule.name for r in report.violations()] == ["bad"]

    def test_exit_codes(self):
        report = self._report()
        assert report.exit_code(fail_on="warn") == 1
        assert report.exit_code(fail_on="crit") == 0
        with pytest.raises(ValueError):
            report.exit_code(fail_on="meh")

    def test_health_adapter_rows(self):
        checks = self._report().to_health_checks()
        assert [c.name for c in checks] == ["slo:good", "slo:bad"]
        assert checks[0].status == "ok"
        assert checks[1].status == "warn"
        # Must be consumable by HealthReport (lowercase levels).
        assert self._report().to_health_report().status == "warn"

    def test_describe_mentions_every_rule(self):
        text = self._report().describe()
        assert "good" in text and "bad" in text
        assert text.splitlines()[-1] == "slo status: warn"


class TestDefaultPack:
    def test_healthy_registry_passes(self):
        registry = MetricsRegistry()
        latency = registry.histogram("repro_serve_query_seconds")
        for _ in range(100):
            latency.observe(0.001)
        report = slo.evaluate_pack(slo.default_pack(), registry)
        assert report.status == "ok"
        assert report.exit_code() == 0

    def test_overloaded_registry_fails(self):
        registry = MetricsRegistry()
        latency = registry.histogram("repro_serve_query_seconds")
        for _ in range(100):
            latency.observe(2.0)
        report = slo.evaluate_pack(slo.default_pack(), registry)
        assert report.status == "crit"
        assert report.exit_code() == 1
        (violation,) = report.violations()
        assert violation.rule.name == "serve_query_p99_seconds"


    @pytest.mark.parametrize("source", ["registry", "prometheus"])
    @pytest.mark.parametrize("bad, status", [(5, "ok"), (6, "warn")])
    def test_quarantine_rate_is_a_share_of_rows_seen(self, source, bad, status):
        # 5% of the rows seen is the budget: 5 bad of 100 passes, 6 warns.
        registry = MetricsRegistry()
        registry.counter("repro_quarantined_rows_total").inc(bad)
        registry.counter("repro_rows_ok_total").inc(100 - bad)
        view = (
            registry if source == "registry"
            else slo.parse_prometheus(registry.to_prometheus())
        )
        report = slo.evaluate_pack(slo.default_pack(), view)
        (result,) = [r for r in report.results if r.rule.name == "quarantine_rate"]
        assert result.status == status


class TestPromParity:
    def test_prom_text_and_registry_agree(self):
        registry = make_registry()
        view = slo.parse_prometheus(registry.to_prometheus())
        rules = [
            slo.SLORule(name="sum", metric="requests_total", threshold=100, op="=="),
            slo.SLORule(
                name="p99", metric="latency_seconds", stat="p99",
                threshold=1.0, op="<=",
            ),
            slo.SLORule(
                name="rate", metric="shed_total", stat="ratio",
                denominator="requests_total", threshold=0.05, op="<=",
            ),
            slo.SLORule(name="ghost", metric="missing", threshold=1),
        ]
        from_registry = slo.evaluate_pack(rules, registry)
        from_prom = slo.evaluate_pack(rules, view)
        for a, b in zip(from_registry.results, from_prom.results):
            assert a.status == b.status
            assert a.value == b.value

    def test_parser_skips_comments_and_garbage(self):
        view = slo.parse_prometheus(
            "# HELP x y\n# TYPE x counter\nnot a sample line\nx_total 5\n"
        )
        assert view.series("x_total", {}) == [5.0]


class TestPackFiles:
    PACK = {
        "rules": [
            {"name": "traffic", "metric": "requests_total", "threshold": 1e9},
            {
                "name": "shed", "metric": "shed_total", "stat": "ratio",
                "denominator": "requests_total", "threshold": 0.05,
                "severity": "crit",
            },
        ]
    }

    def test_json_pack_round_trip(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text(json.dumps(self.PACK))
        rules = slo.load_pack(path)
        assert [rule.name for rule in rules] == ["traffic", "shed"]
        report = slo.evaluate_pack(rules, make_registry())
        assert report.status == "ok"

    def test_json_bare_list_form(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text(json.dumps(self.PACK["rules"]))
        assert len(slo.load_pack(path)) == 2

    def test_invalid_json_is_a_value_error(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            slo.load_pack(path)

    def test_toml_pack(self, tmp_path):
        path = tmp_path / "pack.toml"
        path.write_text(
            '[[rules]]\nname = "traffic"\nmetric = "requests_total"\n'
            "threshold = 1e9\n"
        )
        if sys.version_info >= (3, 11):
            (rule,) = slo.load_pack(path)
            assert rule.name == "traffic"
        else:
            with pytest.raises(ValueError, match="3.11"):
                slo.load_pack(path)

    def test_pack_without_rules_key_is_rejected(self, tmp_path):
        path = tmp_path / "pack.json"
        path.write_text('{"not_rules": []}')
        with pytest.raises(ValueError, match="no 'rules' list"):
            slo.load_pack(path)
