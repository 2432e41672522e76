"""Tests for repro.obs.regress: classification, baselines, the CI gate."""

import pytest

from repro.obs.bench import BenchRecord, append_record, run_scenario
from repro.obs.regress import (
    IMPROVEMENT,
    NO_BASELINE,
    NOISE,
    REGRESSION,
    Comparison,
    QuantityVerdict,
    RegressionPolicy,
    classify,
    compare_all,
    compare_records,
    compare_scenario,
)
from repro.resilience.faults import FaultInjector, injected


def record(wall, rss=1_000_000):
    return BenchRecord(scenario="s", wall_seconds=wall, peak_rss_bytes=rss)


class TestPolicy:
    def test_defaults_gate_the_second_run(self):
        assert RegressionPolicy().min_records == 1

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": -0.1},
        {"rss_tolerance": -1.0},
        {"window": 0},
        {"min_records": 0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RegressionPolicy(**kwargs)


class TestClassify:
    def test_bands(self):
        assert classify(1.25, 1.0, 0.10) == REGRESSION
        assert classify(0.80, 1.0, 0.10) == IMPROVEMENT
        assert classify(1.05, 1.0, 0.10) == NOISE
        assert classify(0.95, 1.0, 0.10) == NOISE

    def test_band_edges_are_noise(self):
        assert classify(1.10, 1.0, 0.10) == NOISE
        assert classify(0.90, 1.0, 0.10) == NOISE

    def test_zero_baseline_is_no_baseline(self):
        assert classify(1.0, 0.0, 0.10) == NO_BASELINE


class TestCompareRecords:
    def test_empty_trajectory(self):
        comparison = compare_records("s", [])
        assert comparison.status == NO_BASELINE
        assert not comparison.has_regression

    def test_single_record_has_no_baseline(self):
        comparison = compare_records("s", [record(1.0)])
        assert comparison.status == NO_BASELINE

    def test_second_run_is_already_judged(self):
        comparison = compare_records("s", [record(1.0), record(2.0)])
        assert comparison.has_regression

    def test_regression_improvement_noise(self):
        history = [record(1.0), record(1.0), record(1.0)]
        assert compare_records("s", history + [record(1.5)]).has_regression
        assert compare_records("s", history + [record(0.5)]).status == IMPROVEMENT
        assert compare_records("s", history + [record(1.02)]).status == NOISE

    def test_baseline_is_median_of_window(self):
        # One wild outlier in the history must not poison the baseline.
        history = [record(1.0), record(100.0), record(1.0), record(1.0)]
        comparison = compare_records("s", history + [record(1.05)])
        wall = comparison.verdicts[0]
        assert wall.baseline == pytest.approx(1.0)
        assert wall.classification == NOISE

    def test_window_slides(self):
        # Old slow records fall out of a window of 2.
        policy = RegressionPolicy(window=2)
        history = [record(10.0), record(10.0), record(1.0), record(1.0)]
        comparison = compare_records("s", history + [record(1.5)], policy)
        assert comparison.has_regression

    def test_rss_uses_its_own_tolerance(self):
        history = [record(1.0, rss=1_000_000)]
        comparison = compare_records("s", history + [record(1.0, rss=1_200_000)])
        rss = comparison.verdicts[1]
        assert rss.quantity == "peak_rss_bytes"
        assert rss.classification == NOISE  # +20% inside the 25% band
        comparison = compare_records("s", history + [record(1.0, rss=1_300_000)])
        assert comparison.verdicts[1].classification == REGRESSION

    def test_missing_quantity_is_no_baseline(self):
        history = [record(1.0, rss=None), record(1.0, rss=None)]
        comparison = compare_records("s", history + [record(1.0, rss=None)])
        assert comparison.verdicts[1].classification == NO_BASELINE

    def test_status_regression_dominates(self):
        comparison = Comparison("s", 3, [
            QuantityVerdict("wall_seconds", IMPROVEMENT),
            QuantityVerdict("peak_rss_bytes", REGRESSION),
        ])
        assert comparison.status == REGRESSION

    def test_describe_and_to_dict(self):
        comparison = compare_records("s", [record(1.0), record(1.5)])
        text = comparison.describe()
        assert "regression" in text and "wall_seconds" in text
        state = comparison.to_dict()
        assert state["status"] == REGRESSION
        assert state["verdicts"][0]["ratio"] == pytest.approx(1.5)


class TestTrajectoryComparison:
    def test_compare_scenario_and_all(self, tmp_path):
        for wall in (1.0, 1.0, 2.0):
            append_record(record(wall), tmp_path)
        comparison = compare_scenario("s", tmp_path)
        assert comparison.has_regression
        assert comparison.n_records == 3
        everything = compare_all(tmp_path)
        assert [c.scenario for c in everything] == ["s"]


class TestInjectedSlowdownIsFlagged:
    """End-to-end: a deliberately slowed scenario trips the gate."""

    def test_sleep_fault_shows_up_as_regression(self, tmp_path):
        # One ~15 ms run of this workload swings 2x on a shared host, and
        # its speed drifts between seconds, so two single runs disagree
        # by more than the 10 % band about one time in five.  The clean
        # baseline is therefore two records taken from interleaved
        # repeats (drift hits both alike), each the median run of its
        # side (one stray fast or slow run sets neither).
        run_scenario("streaming_update", scale=0.1, append=False)  # warm-up
        sides = ([], [])
        for _ in range(20):
            for side in sides:
                side.append(run_scenario("streaming_update", scale=0.1, append=False)[0])
        for side in sides:
            side.sort(key=lambda record: record.wall_seconds)
            append_record(side[len(side) // 2], tmp_path)
        assert compare_scenario("streaming_update", tmp_path).status != REGRESSION

        # streaming_update fires the `streaming.update` fault point once
        # per batch; 80ms of injected latency per hit dwarfs the tiny
        # baseline workload.
        with injected(FaultInjector().slow_at("streaming.update", 0.08)):
            run_scenario("streaming_update", scale=0.1, root=tmp_path)
        comparison = compare_scenario("streaming_update", tmp_path)
        wall = comparison.verdicts[0]
        assert wall.classification == REGRESSION
        assert comparison.has_regression
