"""Tests for health grading: the HEALTH_PACK rules, reports, gauges, miner wiring."""

import pytest

from repro import obs
from repro.core.config import DARConfig
from repro.core.streaming import StreamingDARMiner
from repro.data.relation import default_partitions
from repro.data.synthetic import make_clustered_relation
from repro.obs.slo import (
    CRIT,
    HEALTH_PACK,
    OK,
    WARN,
    HealthCheck,
    HealthReport,
    SLORule,
    evaluate_pack,
    parse_prometheus,
)


def healthy_readings(**overrides):
    readings = {
        "repro_phase1_entry_count": 150,
        "repro_phase1_threshold_inflation": 1.5,
        "repro_phase1_rebuilds_total": 0,
        "repro_quarantined_rows_total": 0,
        "repro_rows_seen_total": 1_000,
    }
    readings.update(overrides)
    return readings


def grade(view, rules=HEALTH_PACK) -> HealthReport:
    return evaluate_pack(rules, view).to_health_report(prefix="", skipped=False)


def by_partition(metric, values):
    """Prometheus text with one ``partition``-labelled sample per value."""
    return "".join(
        f'{metric}{{partition="{name}"}} {value}\n' for name, value in values.items()
    )


class TestGrading:
    def test_all_green(self):
        report = grade(healthy_readings())
        assert report.status == OK
        assert report.problems == []
        assert [c.name for c in report.checks] == [
            "leaf_entries",
            "threshold_escalation",
            "rebuilds",
            "quarantine_rate",
        ]

    def test_leaf_entries_sum_across_partitions(self):
        report = grade(
            parse_prometheus(
                by_partition("repro_phase1_entry_count", {"a": 6_000, "b": 6_000})
            )
        )
        (check,) = report.checks
        assert check.name == "leaf_entries"
        assert check.status == WARN
        assert check.value == 12_000
        assert "leaf entries" in check.detail
        assert "violates < 10000" in check.detail

    def test_threshold_escalation_uses_worst_partition(self):
        report = grade(
            parse_prometheus(
                by_partition(
                    "repro_phase1_threshold_inflation", {"a": 1.0, "b": 40.0}
                )
            )
        )
        (check,) = report.checks
        assert check.name == "threshold_escalation"
        assert check.status == CRIT
        assert check.value == 40.0

    def test_quarantine_rate_bands(self):
        warn = grade(healthy_readings(repro_quarantined_rows_total=20))
        assert warn.checks[3].status == WARN
        assert warn.checks[3].value == 0.02
        crit = grade(healthy_readings(repro_quarantined_rows_total=60))
        assert crit.checks[3].status == CRIT

    def test_zero_rows_seen_is_ok(self):
        report = grade(healthy_readings(repro_rows_seen_total=0))
        assert report.checks[3].status == OK
        assert report.checks[3].value == 0.0

    def test_checkpoint_age_only_when_checkpointing(self):
        off = grade(healthy_readings())
        assert all(c.name != "checkpoint_age" for c in off.checks)
        on = grade(healthy_readings(repro_checkpoint_age_seconds=2_000.0))
        assert on.checks[-1].name == "checkpoint_age"
        assert on.checks[-1].status == CRIT

    def test_custom_thresholds(self):
        tight = [
            SLORule("rebuilds", "repro_phase1_rebuilds_total", 1, op="<",
                    severity="warn"),
            SLORule("rebuilds", "repro_phase1_rebuilds_total", 2, op="<",
                    severity="crit"),
        ]
        report = grade(healthy_readings(repro_phase1_rebuilds_total=1), tight)
        assert [(c.name, c.status) for c in report.checks] == [("rebuilds", WARN)]

    def test_every_signal_has_a_warn_and_a_crit_rule(self):
        names = {rule.name for rule in HEALTH_PACK}
        for name in names:
            rules = [rule for rule in HEALTH_PACK if rule.name == name]
            assert sorted(rule.severity for rule in rules) == ["crit", "warn"]
            assert len({rule.metric for rule in rules}) == 1

    def test_bands_trip_at_the_bound(self):
        # A reading equal to a bound trips it: warn at 10,000 entries.
        at = grade(healthy_readings(repro_phase1_entry_count=10_000))
        below = grade(healthy_readings(repro_phase1_entry_count=9_999))
        assert at.checks[0].status == WARN
        assert below.checks[0].status == OK


class TestReport:
    def test_status_is_worst_and_problems_sorted(self):
        report = HealthReport(checks=[
            HealthCheck("a", OK, 0.0),
            HealthCheck("b", WARN, 1.0),
            HealthCheck("c", CRIT, 2.0),
        ])
        assert report.status == CRIT
        assert [c.name for c in report.problems] == ["c", "b"]

    def test_empty_report_is_ok(self):
        assert HealthReport().status == OK

    def test_describe_and_to_dict(self):
        report = grade(healthy_readings(repro_quarantined_rows_total=20))
        text = report.describe()
        assert text.startswith("health: WARN")
        assert "quarantine_rate" in text
        state = report.to_dict()
        assert state["status"] == WARN
        assert [
            (row["name"], row["status"], row["level"], row["value"])
            for row in state["checks"]
        ] == [
            ("leaf_entries", OK, 0, 150.0),
            ("threshold_escalation", OK, 0, 1.5),
            ("rebuilds", OK, 0, 0.0),
            ("quarantine_rate", WARN, 1, 0.02),
        ]

    def test_publish_exports_gauges(self):
        obs.enable(trace=False, metrics=True)
        report = grade(healthy_readings(repro_quarantined_rows_total=60))
        report.publish()
        registry = obs.get_registry()
        assert registry.value("repro_health_level", check="quarantine_rate") == 2
        assert registry.value("repro_health_level", check="rebuilds") == 0
        assert registry.value("repro_health_worst_level") == 2

    def test_publish_is_noop_when_disabled(self):
        report = grade(healthy_readings())
        report.publish()
        assert len(obs.get_registry()) == 0


class TestStreamingMinerHealth:
    def build_miner(self):
        relation, _ = make_clustered_relation(
            n_modes=3, points_per_mode=60, n_attributes=2, seed=7
        )
        partitions = default_partitions(relation.schema)
        miner = StreamingDARMiner(partitions, DARConfig())
        miner.update_arrays(
            {p.name: relation.matrix(p.attributes) for p in partitions}
        )
        return miner

    def test_health_before_first_batch_raises(self):
        relation, _ = make_clustered_relation(
            n_modes=2, points_per_mode=30, n_attributes=2, seed=7
        )
        partitions = default_partitions(relation.schema)
        miner = StreamingDARMiner(partitions, DARConfig())
        with pytest.raises(RuntimeError):
            miner.health()

    def test_live_health_is_ok_for_small_run(self):
        report = self.build_miner().health()
        assert report.status == OK
        names = [c.name for c in report.checks]
        assert "leaf_entries" in names
        assert "checkpoint_age" not in names  # not checkpointing

    def test_checkpointing_miner_reports_fresh_checkpoint(self, tmp_path):
        miner = self.build_miner()
        miner.save_checkpoint(tmp_path / "ckpt.npz")
        report = miner.health()
        ages = [c for c in report.checks if c.name == "checkpoint_age"]
        assert len(ages) == 1
        assert ages[0].status == OK
        assert ages[0].value < 60

    def test_custom_thresholds_flow_through(self):
        tight = [
            SLORule("leaf_entries", "repro_phase1_entry_count", 1, op="<",
                    severity="warn"),
            SLORule("leaf_entries", "repro_phase1_entry_count", 2, op="<",
                    severity="crit"),
        ]
        report = self.build_miner().health(rules=tight)
        assert report.checks[0].name == "leaf_entries"
        assert report.checks[0].status == CRIT

    def test_update_publishes_health_gauges(self):
        obs.enable(trace=False, metrics=True)
        self.build_miner()
        registry = obs.get_registry()
        assert registry.get("repro_health_worst_level") is not None
