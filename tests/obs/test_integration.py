"""Observability threaded through the real pipeline.

These tests run actual mines with tracing/metrics enabled and check the
span taxonomy, the parentage of the recorded tree, and — the load-bearing
property — that registry totals equal the authoritative ``--stats``
values (``ScanStats``, ``Phase2Stats``).
"""

import numpy as np
import pytest

from repro import obs
from repro.core.config import DARConfig
from repro.core.streaming import StreamingDARMiner
from repro.data.synthetic import make_clustered_relation
from repro.resilience.guard import guarded_mine


@pytest.fixture
def relation():
    relation, _ = make_clustered_relation(
        n_modes=3, points_per_mode=80, n_attributes=2, seed=21
    )
    return relation


@pytest.fixture
def observed():
    obs.get_tracer().clear()
    obs.get_registry().reset()
    obs.enable()
    yield
    obs.disable()


def _by_name(spans):
    index = {}
    for record in spans:
        index.setdefault(record.name, []).append(record)
    return index


class TestBatchMineSpans:
    def test_taxonomy_and_nesting(self, relation, observed):
        result = guarded_mine(relation)
        spans = obs.get_tracer().spans()
        names = _by_name(spans)
        for expected in (
            "mine",
            "mine.attempt",
            "phase1",
            "phase1.fit",
            "phase1.insert_batch",
            "phase2",
            "phase2.graph",
            "phase2.cliques",
            "phase2.rules",
        ):
            assert expected in names, f"missing span {expected}"

        (mine_span,) = names["mine"]
        (attempt,) = names["mine.attempt"]
        (phase1,) = names["phase1"]
        (phase2,) = names["phase2"]
        assert mine_span.parent_id == 0
        assert attempt.parent_id == mine_span.span_id
        assert phase1.parent_id == attempt.span_id
        assert phase2.parent_id == attempt.span_id
        for fit in names["phase1.fit"]:
            assert fit.parent_id == phase1.span_id
        for stage in ("phase2.graph", "phase2.cliques", "phase2.rules"):
            (record,) = names[stage]
            assert record.parent_id == phase2.span_id

        assert mine_span.attributes["rules"] == len(result.rules)
        assert mine_span.attributes["attempts"] == 1

    def test_fit_spans_cover_every_partition(self, relation, observed):
        guarded_mine(relation)
        fits = _by_name(obs.get_tracer().spans())["phase1.fit"]
        assert {f.attributes["partition"] for f in fits} == {"a0", "a1"}


class TestMetricsMatchStats:
    def test_phase1_counts_match_scan_stats(self, relation, observed):
        result = guarded_mine(relation)
        registry = obs.get_registry()
        for name, stats in result.phase1.items():
            scan = stats.scan
            assert registry.value(
                "repro_phase1_points_total", partition=name
            ) == scan.points
            assert registry.value(
                "repro_phase1_splits_total", partition=name
            ) == scan.splits
            assert registry.value(
                "repro_phase1_verified_total", partition=name
            ) == scan.verified
            assert registry.value(
                "repro_phase1_rebuilds_total", partition=name
            ) == scan.rebuilds
            assert registry.value(
                "repro_phase1_entry_count", partition=name
            ) == stats.final_entry_count

    def test_phase2_counts_match_phase2_stats(self, relation, observed):
        result = guarded_mine(relation)
        registry = obs.get_registry()
        phase2 = result.phase2
        assert registry.value("repro_phase2_cliques") == phase2.n_cliques
        assert registry.value("repro_phase2_rules") == phase2.n_rules
        assert registry.value("repro_phase2_clusters") == phase2.n_clusters
        assert (
            registry.value("repro_phase2_comparisons_total")
            == phase2.comparisons
        )
        assert registry.value("repro_phase2_runs_total") == 1


class TestStreamingAndCheckpoints:
    def test_streaming_update_publishes_deltas_once(self, observed, xy_partitions):
        rng = np.random.default_rng(5)
        miner = StreamingDARMiner(xy_partitions, DARConfig())
        for _ in range(3):
            batch = {
                "x": rng.normal(0, 1, size=(50, 1)),
                "y": rng.normal(9, 1, size=(50, 1)),
            }
            miner.update_arrays(batch)
        registry = obs.get_registry()
        # Registry totals equal the live ScanStats — no double counting
        # across the three updates.
        for name, stats in miner.scan_stats.items():
            assert registry.value(
                "repro_phase1_points_total", partition=name
            ) == stats.points == 150
        update_spans = _by_name(obs.get_tracer().spans())["streaming.update"]
        assert len(update_spans) == 3
        assert update_spans[-1].attributes["points"] == 150

    def test_checkpoint_round_trip_metrics(self, observed, xy_partitions, tmp_path):
        rng = np.random.default_rng(6)
        miner = StreamingDARMiner(xy_partitions, DARConfig())
        miner.update_arrays(
            {"x": rng.normal(size=(40, 1)), "y": rng.normal(size=(40, 1))}
        )
        path = tmp_path / "run.ckpt"
        info = miner.save_checkpoint(path)
        StreamingDARMiner.from_checkpoint(path)
        registry = obs.get_registry()
        assert registry.value("repro_checkpoint_writes_total") == 1
        assert registry.value("repro_checkpoint_reads_total") == 1
        assert registry.value("repro_checkpoint_bytes_total") == info.n_bytes
        names = _by_name(obs.get_tracer().spans())
        (save,) = names["checkpoint.save"]
        (load,) = names["checkpoint.load"]
        assert save.attributes["bytes"] == info.n_bytes
        assert load.attributes["bytes"] == info.n_bytes


class TestQuarantineMetrics:
    def test_divert_and_ok_counts(self, observed, xy_partitions):
        from repro.resilience.sink import Quarantine

        miner = StreamingDARMiner(xy_partitions, DARConfig())
        sink = Quarantine()
        batch = {
            "x": np.array([[1.0], [np.nan], [3.0]]),
            "y": np.array([[1.0], [2.0], [3.0]]),
        }
        miner.update_arrays(batch, sink=sink)
        registry = obs.get_registry()
        assert registry.value("repro_quarantined_rows_total") == 1
        assert registry.value("repro_rows_ok_total") == 2


class TestDisabledModeEmitsNothing:
    def test_mine_with_obs_off_records_nothing(self, relation):
        assert not obs.enabled()
        guarded_mine(relation)
        assert obs.get_tracer().spans() == []
        assert len(obs.get_registry()) == 0
