"""Phase II conformance: every miner runs the same ``run_phase2`` sequence.

Batch, streaming, parallel and mixed mining differ only in where their
clusters come from.  Each must emit the same ``phase2`` span tree, fill
the same :class:`Phase2Stats` fields, publish the same ``repro_phase2_*``
metrics, and build the same kernel — so a fault injected at kernel
construction reaches every caller, unabsorbed and unrecorded.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.core.phase2 import Phase2Stats, count_support, run_phase2
from repro.core.phase2_kernel import Phase2Kernel
from repro.core.streaming import StreamingDARMiner
from repro.data.relation import AttributePartition, Relation, Schema
from repro.data.synthetic import make_clustered_relation
from repro.mixed.miner import MixedDARConfig, MixedDARMiner
from repro.parallel.miner import ParallelDARMiner
from repro.resilience import faults
from repro.resilience.errors import InjectedFault

STAGES = ("phase2.extract", "phase2.graph", "phase2.cliques", "phase2.rules")

#: Stats fields every run over clustered data must fill.
FILLED = (
    "seconds",
    "n_clusters",
    "n_frequent_clusters",
    "n_cliques",
    "n_edges",
    "comparisons",
    "n_rules",
    "extract_seconds",
    "graph_seconds",
    "clique_seconds",
    "rules_seconds",
)


@pytest.fixture(scope="module")
def relation():
    relation, _ = make_clustered_relation(
        n_modes=3, points_per_mode=80, n_attributes=3, seed=21
    )
    return relation


def _mixed_relation():
    rng = np.random.default_rng(5)
    modes = [("dba", 30, 42_000), ("mgr", 45, 90_000), ("qa", 25, 35_000)]
    jobs, ages, salaries = [], [], []
    for job, age, salary in modes:
        jobs += [job] * 80
        ages.append(rng.normal(age, 1.2, 80))
        salaries.append(rng.normal(salary, 1_200, 80))
    return Relation(
        Schema.of(job="nominal", age="interval", salary="interval"),
        {
            "job": jobs,
            "age": np.concatenate(ages),
            "salary": np.concatenate(salaries),
        },
    )


def mine_batch(relation, config):
    return DARMiner(config).mine(relation)


def mine_streaming(relation, config):
    partitions = [
        AttributePartition(name, (name,)) for name in relation.schema.interval_names()
    ]
    miner = StreamingDARMiner(partitions, config)
    order = np.random.default_rng(0).permutation(len(relation))
    for chunk in np.array_split(order, 3):
        miner.update_arrays(
            {p.name: relation.matrix(p.attributes)[chunk] for p in partitions}
        )
    return miner.rules()


def mine_parallel(relation, config):
    return ParallelDARMiner(config, workers=1).mine(relation)


def mine_mixed(relation, config):
    return MixedDARMiner(MixedDARConfig(base=config)).mine_mixed(_mixed_relation())


CALLERS = {
    "batch": mine_batch,
    "streaming": mine_streaming,
    "parallel": mine_parallel,
    "mixed": mine_mixed,
}


def signature(result):
    return [
        (str(rule), rule.degree, sorted(rule.degrees.items()))
        for rule in result.rules
    ]


@pytest.fixture
def observed():
    obs.get_tracer().clear()
    obs.get_registry().reset()
    obs.enable()
    yield obs.get_registry()
    obs.disable()


@pytest.mark.parametrize("caller", sorted(CALLERS))
class TestConformance:
    def test_span_tree(self, caller, relation, observed):
        result = CALLERS[caller](relation, DARConfig())
        spans = obs.get_tracer().spans()
        (phase2,) = [s for s in spans if s.name == "phase2"]
        assert phase2.attributes["rules"] == len(result.rules)
        for stage in STAGES:
            (record,) = [s for s in spans if s.name == stage]
            assert record.parent_id == phase2.span_id

    def test_stats_filled_and_published(self, caller, relation, observed):
        result = CALLERS[caller](relation, DARConfig())
        stats = result.phase2
        assert isinstance(stats, Phase2Stats)
        for name in FILLED:
            assert getattr(stats, name) > 0, name
        assert stats.n_rules == len(result.rules)
        assert stats.n_cliques == len(result.cliques)
        assert stats.events == []
        assert observed.value("repro_phase2_runs_total") == 1
        assert observed.value("repro_phase2_rules") == stats.n_rules
        assert observed.value("repro_phase2_edges") == stats.n_edges


def degradations(registry):
    """Guard events recorded, over every ``kind``."""
    return sum(
        metric.value
        for metric in registry.metrics()
        if metric.name == "repro_degradation_events_total"
    )


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_kernel_fault_propagates(caller, relation, observed):
    """Phase II has one engine: a kernel fault is the caller's error,
    not a degradation, and the next clean run mines the clean rules."""
    clean = CALLERS[caller](relation, DARConfig())
    with faults.injected(faults.FaultInjector().fail_at("phase2.kernel")):
        with pytest.raises(InjectedFault):
            CALLERS[caller](relation, DARConfig())
    assert degradations(observed) == 0
    assert signature(CALLERS[caller](relation, DARConfig())) == signature(clean)


def test_graph_build_failure_propagates(relation, observed, monkeypatch):
    """A kernel that builds but fails on the graph is not retried."""

    def broken_graph(self, *args, **kwargs):
        raise RuntimeError("graph lost")

    monkeypatch.setattr(Phase2Kernel, "build_graph", broken_graph)
    with pytest.raises(RuntimeError, match="graph lost"):
        DARMiner().mine(relation)
    assert degradations(observed) == 0


def test_single_partition_forms_nothing(relation):
    result = DARMiner().mine(relation)
    name, clusters = next(iter(result.frequent_clusters.items()))
    output = run_phase2(
        DARConfig(),
        {name: clusters},
        result.density_thresholds,
        result.degree_thresholds,
        n_clusters=len(clusters),
    )
    assert output.graph is None
    assert output.cliques == [] and output.rules == []
    assert output.stats.extract_seconds == 0.0
    assert output.stats.n_frequent_clusters == len(clusters)


class TestCountSupport:
    def test_ands_masks_and_keeps_degrees(self, relation):
        rule = DARMiner().mine(relation).rules[0]
        clusters = rule.antecedent + rule.consequent
        masks = {c.uid: np.array([True, True, False, True]) for c in clusters}
        masks[clusters[0].uid] = np.array([True, False, False, True])
        (counted,) = count_support([rule], masks)
        assert counted.support_count == 2
        assert counted.degree == rule.degree
        assert counted.degrees == rule.degrees
        assert counted.key() == rule.key()

    def test_missing_mask_leaves_support_unknown(self, relation):
        rule = DARMiner().mine(relation).rules[0]
        masks = {c.uid: np.ones(3, dtype=bool) for c in rule.consequent}
        (counted,) = count_support([rule], masks)
        assert counted.support_count is None
