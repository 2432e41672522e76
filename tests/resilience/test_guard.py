"""The graceful-degradation ladder and result integrity checks."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.relation import Relation, Schema
from repro.data.synthetic import make_planted_rule_relation
from repro.resilience.errors import (
    CorruptResultError,
    ResourceExhaustedError,
    ValidationError,
)
from repro.resilience.guard import GuardPolicy, guarded_mine, validate_result


@pytest.fixture(scope="module")
def planted():
    relation, _ = make_planted_rule_relation(seed=7, points_per_mode=50)
    return relation


# ----------------------------------------------------------------------
# Validation (satellite: empty / all-NaN input fails precisely)
# ----------------------------------------------------------------------


def test_empty_relation_raises_validation_error():
    schema = Schema.of(x="interval")
    empty = Relation(schema, {"x": np.array([])})
    with pytest.raises(ValidationError, match="empty relation"):
        repro.mine(empty)
    # Backward compatibility: still a ValueError.
    with pytest.raises(ValueError, match="empty relation"):
        DARMiner().mine(empty)


def test_all_nan_column_raises_naming_the_attribute():
    schema = Schema.of(x="interval", y="interval")
    relation = Relation(
        schema,
        {"x": np.full(10, np.nan), "y": np.arange(10, dtype=float)},
    )
    with pytest.raises(ValidationError, match="'x'.*entirely non-finite"):
        repro.mine(relation)


def test_partial_nan_column_raises_with_counts():
    schema = Schema.of(x="interval", y="interval")
    x = np.arange(10, dtype=float)
    x[3] = np.nan
    relation = Relation(schema, {"x": x, "y": np.arange(10, dtype=float)})
    with pytest.raises(ValidationError, match="1 non-finite value"):
        repro.mine(relation)


# ----------------------------------------------------------------------
# Pass-through and memory escalation
# ----------------------------------------------------------------------


def test_clean_run_is_transparent(planted):
    guarded = guarded_mine(planted, config=DARConfig())
    direct = DARMiner(DARConfig()).mine(planted)
    assert [str(r) for r in guarded.rules] == [str(r) for r in direct.rules]
    assert guarded.phase2.events == []


def test_memory_error_escalates_and_records(planted, monkeypatch):
    real_mine = DARMiner.mine
    calls = []

    def flaky_mine(self, relation, partitions=None, targets=None):
        calls.append(self.config.density_fraction)
        if len(calls) < 3:
            raise MemoryError("simulated exhaustion")
        return real_mine(self, relation, partitions=partitions, targets=targets)

    monkeypatch.setattr(DARMiner, "mine", flaky_mine)
    policy = GuardPolicy(max_retries=3, escalation_factor=2.0)
    result = guarded_mine(planted, policy=policy)
    # Two escalations of x2 on the default 0.15 fraction.
    assert calls == pytest.approx([0.15, 0.30, 0.60])
    assert len(result.phase2.events) == 2
    assert all("memory exhausted" in event for event in result.phase2.events)


def test_memory_error_hard_cap(planted, monkeypatch):
    def always_oom(self, relation, partitions=None, targets=None):
        raise MemoryError("simulated exhaustion")

    monkeypatch.setattr(DARMiner, "mine", always_oom)
    with pytest.raises(ResourceExhaustedError, match="stayed exhausted"):
        guarded_mine(planted, policy=GuardPolicy(max_retries=2))


def test_escalation_scales_explicit_thresholds(planted, monkeypatch):
    seen = []
    real_mine = DARMiner.mine

    def flaky_mine(self, relation, partitions=None, targets=None):
        seen.append(dict(self.config.density_thresholds))
        if len(seen) == 1:
            raise MemoryError("boom")
        return real_mine(self, relation, partitions=partitions, targets=targets)

    monkeypatch.setattr(DARMiner, "mine", flaky_mine)
    config = DARConfig(density_thresholds={"age": 2.0})
    guarded_mine(planted, config=config, policy=GuardPolicy(escalation_factor=4.0))
    assert seen[0]["age"] == pytest.approx(2.0)
    assert seen[1]["age"] == pytest.approx(8.0)


def test_policy_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GuardPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        GuardPolicy(escalation_factor=1.0)
    with pytest.raises(ValueError):
        GuardPolicy(backoff_seconds=-0.1)


# ----------------------------------------------------------------------
# Result integrity
# ----------------------------------------------------------------------


def test_validate_result_accepts_real_run(planted):
    validate_result(DARMiner().mine(planted))


def test_validate_result_rejects_unknown_cluster(planted):
    result = DARMiner().mine(planted)
    if not result.rules:
        pytest.skip("run produced no rules")
    # Drop the cluster sets: every rule now references unknown uids.
    result.all_clusters.clear()
    with pytest.raises(CorruptResultError, match="absent from"):
        validate_result(result)


def test_validate_result_rejects_non_finite_degree(planted):
    result = DARMiner().mine(planted)
    if not result.rules:
        pytest.skip("run produced no rules")
    object.__setattr__(result.rules[0], "degree", float("nan"))
    with pytest.raises(CorruptResultError, match="degree"):
        validate_result(result)


def test_validate_result_rejects_inconsistent_degrees(planted):
    result = DARMiner().mine(planted)
    if not result.rules:
        pytest.skip("run produced no rules")
    rule = result.rules[0]
    rule.degrees[next(iter(rule.degrees))] = rule.degree + 1.0
    with pytest.raises(CorruptResultError, match="above its overall degree"):
        validate_result(result)


def test_guarded_mine_never_returns_corrupt_result(planted, monkeypatch):
    real_mine = DARMiner.mine

    def corrupting_mine(self, relation, partitions=None, targets=None):
        result = real_mine(self, relation, partitions=partitions, targets=targets)
        if result.rules:
            object.__setattr__(result.rules[0], "degree", float("inf"))
        return result

    monkeypatch.setattr(DARMiner, "mine", corrupting_mine)
    with pytest.raises(CorruptResultError):
        guarded_mine(planted)


# ----------------------------------------------------------------------
# GuardEvent: structured events that keep the old string contract
# ----------------------------------------------------------------------


class TestGuardEvent:
    def test_string_protocol_matches_the_detail(self):
        from repro.resilience.events import GuardEvent

        event = GuardEvent("memory_escalation", "memory exhausted at 0.15")
        assert str(event) == "memory exhausted at 0.15"
        assert "memory" in event
        assert event == "memory exhausted at 0.15"
        assert event != "something else"
        assert hash(event) == hash("memory exhausted at 0.15")

    def test_to_dict_carries_kind_and_timestamp(self):
        from repro.resilience.events import GuardEvent

        event = GuardEvent("columnar_fallback", "retried in memory")
        out = event.to_dict()
        assert out["kind"] == "columnar_fallback"
        assert out["detail"] == "retried in memory"
        assert out["at_iso"].endswith("Z")

    def test_record_increments_the_metric_and_logs(self):
        from repro.obs import log as obs_log
        from repro.obs import metrics as obs_metrics
        from repro.resilience.events import record_guard_event

        obs_metrics.enable_metrics()
        obs_metrics.get_registry().reset()
        obs_log.enable_logging(level=obs_log.DEBUG)
        event = record_guard_event("memory_escalation", "simulated")
        assert event.kind == "memory_escalation"
        assert obs_metrics.get_registry().counter(
            "repro_degradation_events_total", kind="memory_escalation"
        ).value == 1
        (record,) = [
            r
            for r in obs_log.get_logger().records()
            if r["event"] == "mine.degraded"
        ]
        assert record["level"] == "warn"
        assert record["kind"] == "memory_escalation"

    def test_ladder_rungs_carry_kind_labels(self, planted, monkeypatch):
        calls = []
        real_mine = DARMiner.mine

        def flaky_mine(self, relation, partitions=None, targets=None):
            calls.append(1)
            if len(calls) < 2:
                raise MemoryError("simulated exhaustion")
            return real_mine(
                self, relation, partitions=partitions, targets=targets
            )

        monkeypatch.setattr(DARMiner, "mine", flaky_mine)
        result = guarded_mine(planted, policy=GuardPolicy(max_retries=2))
        (event,) = result.phase2.events
        assert event.kind == "memory_escalation"
        assert "memory exhausted" in event
