"""Snapshot compile against a per-occurrence reference compile.

``RuleSnapshot.from_result`` describes each distinct cluster once, reuses
each rule's cached description, and builds its inverted indexes with
numpy.  The reference below does none of that: it renders every cluster
and rule from its ACF at every occurrence and builds the indexes rule by
rule.  The two must agree exactly — descriptions byte for byte, cluster
descriptors, CSR columns and both indexes — for every kind of result a
snapshot is compiled from.
"""

import dataclasses

import numpy as np

from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.streaming import StreamingDARMiner
from repro.data.relation import Relation, Schema, default_partitions
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation
from repro.mixed.miner import MixedDARMiner
from repro.parallel import ParallelDARMiner
from repro.report.export import cluster_to_dict
from repro.serve.snapshot import SNAPSHOT_KIND, SNAPSHOT_STATE_VERSION, RuleSnapshot


def render_cluster(cluster) -> str:
    """A cluster's description, rendered from its ACF on every call."""
    if not isinstance(cluster, Cluster):
        return str(cluster)  # mixed clusters render from their images
    lo, hi = cluster.acf.bounding_box()
    parts = ", ".join(
        f"{name}:[{lo[i]:g}, {hi[i]:g}]"
        for i, name in enumerate(cluster.partition.attributes)
    )
    return f"C{cluster.uid}({parts}; n={cluster.acf.n})"


def render_rule(rule) -> str:
    """A rule's description, rendered from its clusters on every call."""
    lhs = " & ".join(render_cluster(cluster) for cluster in rule.antecedent)
    rhs = " & ".join(render_cluster(cluster) for cluster in rule.consequent)
    suffix = f" (degree={rule.degree:.4g}"
    if rule.support_count is not None:
        suffix += f", support={rule.support_count}"
    return f"{lhs} => {rhs}{suffix})"


def reference_compile(result, created_at):
    """The per-occurrence compile: ``(state_dict, antecedent_index,
    consequent_index)`` as the snapshot must produce them."""
    degree, support, descriptions = [], [], []
    ant_offsets, ant_uids = [0], []
    con_offsets, con_uids, con_degrees = [0], [], []
    clusters = {}
    ant_sets, con_sets = {}, {}
    for i, rule in enumerate(result.rules):
        degree.append(float(rule.degree))
        support.append(-1 if rule.support_count is None else int(rule.support_count))
        for cluster in rule.antecedent:
            ant_uids.append(cluster.uid)
            clusters.setdefault(str(cluster.uid), cluster_to_dict(cluster))
            ant_sets.setdefault(cluster.partition.name, []).append(i)
        for cluster in rule.consequent:
            con_uids.append(cluster.uid)
            con_degrees.append(float(rule.degrees.get(cluster.uid, rule.degree)))
            clusters.setdefault(str(cluster.uid), cluster_to_dict(cluster))
            con_sets.setdefault(cluster.partition.name, []).append(i)
        ant_offsets.append(len(ant_uids))
        con_offsets.append(len(con_uids))
        descriptions.append(render_rule(rule))
    state = {
        "kind": SNAPSHOT_KIND,
        "state_version": SNAPSHOT_STATE_VERSION,
        "version": 1,
        "created_at": created_at,
        "partitions": sorted(result.density_thresholds),
        "density_thresholds": {
            k: float(v) for k, v in result.density_thresholds.items()
        },
        "degree_thresholds": {
            k: float(v) for k, v in result.degree_thresholds.items()
        },
        "frequency_count": int(result.frequency_count),
        "rules": {
            "degree": degree,
            "support": support,
            "ant_offsets": ant_offsets,
            "ant_uids": ant_uids,
            "con_offsets": con_offsets,
            "con_uids": con_uids,
            "con_degrees": con_degrees,
            "descriptions": descriptions,
        },
        "clusters": clusters,
    }

    def index(sets):
        return {
            name: np.unique(np.asarray(ids, dtype=np.int64))
            for name, ids in sets.items()
        }

    return state, index(ant_sets), index(con_sets)


def assert_same_index(actual, expected):
    assert sorted(actual) == sorted(expected)
    for name, ids in expected.items():
        assert actual[name].dtype == np.int64
        np.testing.assert_array_equal(actual[name], ids)


def assert_matches_reference(result, tmp_path):
    snapshot = RuleSnapshot.from_result(result)
    state, ant_index, con_index = reference_compile(result, snapshot.created_at)
    assert snapshot.state_dict() == state
    # Same first-occurrence order too, so saved files are byte-stable.
    assert list(snapshot.state_dict()["clusters"]) == list(state["clusters"])
    assert_same_index(snapshot.antecedent_index, ant_index)
    assert_same_index(snapshot.consequent_index, con_index)

    path = tmp_path / "rules.snap"
    snapshot.save(path)
    loaded = RuleSnapshot.load(path)
    assert loaded.state_dict() == state
    assert_same_index(loaded.antecedent_index, ant_index)
    assert_same_index(loaded.consequent_index, con_index)
    return snapshot


def stream_relation():
    relation, _ = make_clustered_relation(
        n_modes=4, points_per_mode=90, n_attributes=3, seed=13
    )
    return relation


def streaming_result():
    relation = stream_relation()
    miner = StreamingDARMiner(default_partitions(relation.schema), DARConfig())
    n = len(relation)
    for start in range(0, n, n // 4):
        miner.update(relation.take(range(start, min(start + n // 4, n))))
    return miner.rules()


class TestMatchesReference:
    def test_batch_miner(self, planted_result, tmp_path):
        snapshot = assert_matches_reference(planted_result, tmp_path)
        assert snapshot.n_rules > 0

    def test_support_counts(self, support_result, tmp_path):
        snapshot = assert_matches_reference(support_result, tmp_path)
        assert (snapshot.support >= 0).all()

    def test_streaming_after_updates(self, tmp_path):
        result = streaming_result()
        assert result.rules
        assert_matches_reference(result, tmp_path)

    def test_mixed_miner(self, tmp_path):
        rng = np.random.default_rng(5)
        centers = [(30.0, 42_000.0), (45.0, 90_000.0), (25.0, 35_000.0)]
        ages = np.concatenate([rng.normal(a, 1.2, 120) for a, _ in centers])
        salaries = np.concatenate([rng.normal(s, 1_200, 120) for _, s in centers])
        relation = Relation(
            Schema.of(age="interval", salary="interval"),
            {"age": ages, "salary": salaries},
        )
        result = MixedDARMiner().mine_mixed(relation)
        assert result.rules
        assert_matches_reference(result, tmp_path)

    def test_parallel_clusters_from_worker_state(self, tmp_path):
        relation, _ = make_planted_rule_relation(seed=7)
        result = ParallelDARMiner(DARConfig(), workers=1).mine(relation)
        assert result.rules
        assert_matches_reference(result, tmp_path)

    def test_empty_result(self, planted_result, tmp_path):
        empty = dataclasses.replace(planted_result, rules=[])
        snapshot = assert_matches_reference(empty, tmp_path)
        assert snapshot.n_rules == 0
        assert snapshot.antecedent_index == {}
        assert snapshot.consequent_index == {}


class TestCachedLabelsStayPut:
    def test_update_does_not_change_an_earlier_result(self):
        """Clusters hold copies of the live trees' summaries, so a later
        ``update()`` leaves an earlier result's descriptions as they were."""
        relation = stream_relation()
        half = len(relation) // 2
        miner = StreamingDARMiner(default_partitions(relation.schema), DARConfig())
        miner.update(relation.take(range(half)))
        old = miner.rules()
        described = [str(rule) for rule in old.rules]
        compiled = RuleSnapshot.from_result(old).descriptions
        assert described == [render_rule(rule) for rule in old.rules]

        miner.update(relation.take(range(half, len(relation))))
        new = miner.rules()
        assert [str(rule) for rule in new.rules] != described

        assert [str(rule) for rule in old.rules] == described
        assert [render_rule(rule) for rule in old.rules] == described
        assert RuleSnapshot.from_result(old).descriptions == compiled == described
