"""Stats timers read their spans: one stopwatch per region, traced or not.

Every stage time a stats object reports (``Phase2Stats.*seconds``,
``ScanStats.seconds_*``, ``Phase1Stats.seconds``,
``CheckpointInfo.seconds``, the publish latency) is the ``.seconds`` of
the span that brackets the stage.  With tracing on, each field equals its
span's duration exactly; with tracing off nothing is recorded and the
fields still hold real times.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.core.streaming import StreamingDARMiner
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_planted_rule_relation
from repro.resilience.checkpoint import write_checkpoint
from repro.serve.publisher import SnapshotPublisher

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules whose stage times must come from spans, never a stopwatch.
SPAN_TIMED = [
    *sorted((SRC / "birch").glob("*.py")),
    *sorted((SRC / "core").glob("*.py")),
    SRC / "resilience" / "checkpoint.py",
    SRC / "serve" / "publisher.py",
]

PHASE2_FIELDS = {
    "phase2": "seconds",
    "phase2.extract": "extract_seconds",
    "phase2.graph": "graph_seconds",
    "phase2.cliques": "clique_seconds",
    "phase2.rules": "rules_seconds",
    "phase2.postscan": "postscan_seconds",
}


@pytest.fixture(scope="module")
def relation():
    relation, _ = make_planted_rule_relation(seed=7)
    return relation


@pytest.fixture
def traced():
    tracer = obs.get_tracer()
    tracer.clear()
    obs.enable_tracing()
    yield tracer
    obs.disable_tracing()


def _mine(relation):
    return DARMiner(DARConfig(count_rule_support=True)).mine(relation)


def _stream(relation):
    miner = StreamingDARMiner(
        [AttributePartition(name, (name,)) for name in relation.schema.names]
    )
    half = len(relation) // 2
    miner.update(relation.take(range(half)))
    miner.update(relation.take(range(half, len(relation))))
    return miner, miner.rules()


def _children(spans, parent, name):
    return [s for s in spans if s.parent_id == parent.span_id and s.name == name]


def _scan_sums(spans, batches):
    """``(total, flush, split)`` summed in closing order, as ScanStats adds."""
    total = flush = split = 0.0
    for batch in batches:
        total += batch.seconds
        for record in _children(spans, batch, "phase1.flush"):
            flush += record.seconds
        for record in _children(spans, batch, "phase1.split"):
            split += record.seconds
    return total, flush, split


def _assert_phase2_reads_spans(stats, spans):
    (phase2,) = [s for s in spans if s.name == "phase2"]
    for name, field in PHASE2_FIELDS.items():
        records = [phase2] if name == "phase2" else _children(spans, phase2, name)
        expected = records[0].seconds if records else 0.0
        assert getattr(stats, field) == expected, field


def _assert_scan_reads_spans(scan, spans, batches):
    assert batches
    total, flush, split = _scan_sums(spans, batches)
    assert (scan.seconds_total, scan.seconds_flush, scan.seconds_split) == (
        total, flush, split,
    )


def _timed_fields_positive(scan):
    assert scan.seconds_total > 0 and scan.seconds_flush > 0
    assert scan.seconds_scan > 0
    assert (scan.seconds_split > 0) == (scan.splits > 0)


class TestTracedStatsEqualSpans:
    def test_batch_mine_with_support(self, relation, traced):
        result = _mine(relation)
        spans = traced.spans()
        _assert_phase2_reads_spans(result.phase2, spans)
        assert result.phase2.postscan_seconds > 0
        fits = {s.attributes["partition"]: s for s in spans if s.name == "phase1.fit"}
        assert set(fits) == set(result.phase1)
        for name, stats in result.phase1.items():
            assert stats.seconds == fits[name].seconds
            batches = _children(spans, fits[name], "phase1.insert_batch")
            _assert_scan_reads_spans(stats.scan, spans, batches)
        assert any(s.name == "phase1.split" for s in spans)

    def test_streaming_update_and_rules(self, relation, traced):
        miner, result = _stream(relation)
        spans = traced.spans()
        _assert_phase2_reads_spans(result.phase2, spans)
        assert result.phase2.postscan_seconds == 0.0
        updates = [s for s in spans if s.name == "streaming.update"]
        assert len(updates) == 2
        # Each update scans the partitions in order, one batch apiece.
        for index, partition in enumerate(miner.partitions):
            batches = [
                _children(spans, update, "phase1.insert_batch")[index]
                for update in updates
            ]
            _assert_scan_reads_spans(result.phase1[partition.name].scan, spans, batches)

    def test_checkpoint_save(self, relation, traced, tmp_path):
        miner, _ = _stream(relation)
        info = miner.save_checkpoint(tmp_path / "run.ckpt")
        (save,) = [s for s in traced.spans() if s.name == "checkpoint.save"]
        assert info.seconds == save.seconds
        assert save.attributes["bytes"] == info.n_bytes

    def test_publish_latency(self, relation, traced):
        registry = obs.enable_metrics()
        SnapshotPublisher(_mine(relation))
        (publish,) = [s for s in traced.spans() if s.name == "serve.publish"]
        assert registry.get("repro_serve_publish_seconds").sum == publish.seconds


class TestUntracedStatsStillTime:
    @pytest.fixture(autouse=True)
    def untraced(self):
        assert not obs.tracing_enabled()
        obs.get_tracer().clear()
        yield
        assert obs.get_tracer().spans() == []

    def test_batch_mine_with_support(self, relation):
        result = _mine(relation)
        for field in PHASE2_FIELDS.values():
            assert getattr(result.phase2, field) > 0, field
        for stats in result.phase1.values():
            assert stats.seconds > 0
            _timed_fields_positive(stats.scan)
        assert any(stats.scan.splits for stats in result.phase1.values())

    def test_streaming_update_and_rules(self, relation):
        _, result = _stream(relation)
        for field in set(PHASE2_FIELDS.values()) - {"postscan_seconds"}:
            assert getattr(result.phase2, field) > 0, field
        for stats in result.phase1.values():
            _timed_fields_positive(stats.scan)

    def test_checkpoint_save(self, relation, tmp_path):
        miner, _ = _stream(relation)
        state = miner.state_dict()
        assert write_checkpoint(state, tmp_path / "run.ckpt").seconds > 0

    def test_publish_latency(self, relation):
        registry = obs.enable_metrics()
        SnapshotPublisher(_mine(relation))
        assert registry.get("repro_serve_publish_seconds").sum > 0


@pytest.mark.parametrize("path", SPAN_TIMED, ids=lambda p: str(p.relative_to(SRC)))
def test_no_stopwatch_beside_the_spans(path):
    assert "perf_counter" not in path.read_text(encoding="utf-8"), (
        f"{path.relative_to(SRC)} reads a clock; time the region with "
        f"repro.obs.trace.span and read the span's .seconds"
    )
