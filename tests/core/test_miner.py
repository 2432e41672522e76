"""Tests for the end-to-end DAR miner (both phases)."""

import numpy as np
import pytest

from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.columnar import ColumnStore
from repro.data.relation import AttributePartition, Relation, Schema
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation
from repro.parallel import ParallelDARMiner
from repro.resilience import ValidationError


@pytest.fixture(scope="module")
def planted_result():
    relation, _ = make_planted_rule_relation(seed=7)
    return DARMiner().mine(relation)


class TestValidation:
    def test_empty_relation_rejected(self):
        relation = Relation.empty(Schema.of(a="interval"))
        with pytest.raises(ValueError, match="empty"):
            DARMiner().mine(relation)

    def test_no_interval_attributes_rejected(self):
        relation = Relation(Schema.of(a="nominal"), {"a": ["x", "y"]})
        with pytest.raises(ValueError, match="no interval"):
            DARMiner().mine(relation)

    def test_duplicate_partition_names_rejected(self):
        relation = Relation(Schema.of(a="interval", b="interval"), {"a": [1.0], "b": [2.0]})
        partitions = [
            AttributePartition("p", ("a",)),
            AttributePartition("p", ("b",)),
        ]
        with pytest.raises(ValueError, match="unique"):
            DARMiner().mine(relation, partitions)


    @pytest.mark.parametrize("mode", ["serial", "workers", "out_of_core"])
    def test_non_finite_value_named_in_every_mode(self, mode, tmp_path):
        relation, _ = make_planted_rule_relation(seed=7, points_per_mode=100)
        columns = {name: relation.column(name).copy() for name in relation.schema.names}
        bad = relation.schema.names[1]
        columns[bad][17] = np.nan
        relation = Relation(relation.schema, columns)
        source = relation
        if mode == "out_of_core":
            source = ColumnStore.from_relation(relation, directory=tmp_path / "s", chunk_rows=64)
        miner = ParallelDARMiner(DARConfig(), workers=2) if mode == "workers" else DARMiner()
        with pytest.raises(ValidationError, match=f"'{bad}'.*1 non-finite"):
            miner.mine(source)

    def test_each_column_checked_once_per_mine(self, monkeypatch):
        """The miner checks every column up front; the partition scans,
        which read every column again for their cross moments, do not."""
        relation, _ = make_planted_rule_relation(seed=7)
        checked = []
        isfinite = np.isfinite

        def counting(values, *args, **kwargs):
            if np.ndim(values) == 2 and len(values) == len(relation):
                checked.append(values.shape[1])
            return isfinite(values, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        result = DARMiner().mine(relation)
        assert len(result.phase1) == len(relation.schema.names) > 1
        assert checked == [1] * len(relation.schema.names)


class TestPhase1:
    def test_every_partition_clustered(self, planted_result):
        assert set(planted_result.all_clusters) == {"age", "dependents", "claims"}
        assert set(planted_result.phase1) == {"age", "dependents", "claims"}

    def test_frequency_threshold_enforced(self, planted_result):
        bar = planted_result.frequency_count
        for clusters in planted_result.frequent_clusters.values():
            assert all(cluster.n >= bar for cluster in clusters)

    def test_cluster_uids_globally_unique(self, planted_result):
        uids = [
            cluster.uid
            for clusters in planted_result.all_clusters.values()
            for cluster in clusters
        ]
        assert len(uids) == len(set(uids))

    def test_derived_density_thresholds_positive(self, planted_result):
        assert all(value > 0 for value in planted_result.density_thresholds.values())

    def test_explicit_density_threshold_respected(self):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig(density_thresholds={"age": 123.0})
        result = DARMiner(config).mine(relation)
        assert result.density_thresholds["age"] == 123.0


class TestPhase2:
    def test_rules_found_on_planted_data(self, planted_result):
        assert planted_result.rules
        assert planted_result.phase2.n_rules == len(planted_result.rules)

    def test_planted_association_recovered(self, planted_result):
        """The age~44 <-> claims~12000 mode must appear as some rule."""
        hits = []
        for rule in planted_result.rules:
            clusters = rule.antecedent + rule.consequent
            has_age = any(
                c.partition.name == "age" and abs(c.centroid[0] - 44) < 3
                for c in clusters
            )
            has_claims = any(
                c.partition.name == "claims" and abs(c.centroid[0] - 12_000) < 1_500
                for c in clusters
            )
            if has_age and has_claims:
                hits.append(rule)
        assert hits, "expected a rule joining the age~44 and claims~12K clusters"

    def test_rule_sides_partition_disjoint(self, planted_result):
        for rule in planted_result.rules:
            names = [c.partition.name for c in rule.antecedent + rule.consequent]
            assert len(names) == len(set(names))

    def test_degrees_within_thresholds(self, planted_result):
        for rule in planted_result.rules:
            for consequent in rule.consequent:
                threshold = planted_result.degree_thresholds[consequent.partition.name]
                assert rule.degrees[consequent.uid] <= threshold + 1e-9

    def test_rule_arity_bounds_respected(self):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig(max_antecedent=1, max_consequent=1)
        result = DARMiner(config).mine(relation)
        assert all(rule.arity == (1, 1) for rule in result.rules)

    def test_rules_sorted_by_degree(self, planted_result):
        degrees = [rule.degree for rule in planted_result.rules_sorted()]
        assert degrees == sorted(degrees)

    def test_single_partition_yields_no_rules(self):
        relation, _ = make_clustered_relation(
            n_modes=2, points_per_mode=50, n_attributes=1, seed=5, attribute_prefix="x"
        )
        result = DARMiner().mine(relation)
        assert result.rules == []
        assert result.graph is None

    def test_cluster_by_uid_lookup(self, planted_result):
        some = planted_result.rules[0].antecedent[0]
        assert planted_result.cluster_by_uid(some.uid) == some
        with pytest.raises(KeyError):
            planted_result.cluster_by_uid(10_000_000)


class TestSupportCounting:
    def test_post_scan_counts_populated(self):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig(count_rule_support=True)
        result = DARMiner(config).mine(relation)
        assert result.rules
        for rule in result.rules:
            assert rule.support_count is not None
            assert 0 <= rule.support_count <= len(relation)

    def test_strong_planted_rule_has_high_support(self):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig(count_rule_support=True)
        result = DARMiner(config).mine(relation)
        best = max(result.rules, key=lambda rule: rule.support_count or 0)
        # One mode holds a third of the data; the strongest rule should
        # capture a healthy share of it.
        assert (best.support_count or 0) >= len(relation) * 0.1


class TestMetricAndPruningOptions:
    @pytest.mark.parametrize("metric", ["d1", "d2"])
    def test_both_metrics_run(self, metric):
        relation, _ = make_planted_rule_relation(seed=7)
        result = DARMiner(DARConfig(metric=metric)).mine(relation)
        assert result.phase2.n_clusters > 0

    def test_pruning_reduces_comparisons(self):
        relation, _ = make_planted_rule_relation(seed=7)
        pruned = DARMiner(DARConfig(use_density_pruning=True)).mine(relation)
        unpruned = DARMiner(DARConfig(use_density_pruning=False)).mine(relation)
        assert pruned.phase2.comparisons <= unpruned.phase2.comparisons
        assert unpruned.phase2.comparisons_skipped == 0


class TestDegenerateData:
    def test_constant_columns(self):
        relation = Relation(
            Schema.of(a="interval", b="interval"),
            {"a": [5.0] * 40, "b": [7.0] * 40},
        )
        result = DARMiner().mine(relation)
        # One cluster per attribute, perfectly associated.
        assert result.phase2.n_frequent_clusters == 2
        assert len(result.rules) == 2  # a=>b and b=>a

    def test_single_tuple(self):
        relation = Relation(Schema.of(a="interval", b="interval"), {"a": [1.0], "b": [2.0]})
        result = DARMiner().mine(relation)
        assert result.phase2.n_frequent_clusters == 2


class TestCandidateRuleSupportFilter:
    """Section 6.2 post-processing: candidate rules below the support bar
    are dropped after the single rescan."""

    def test_filter_drops_low_support_rules(self):
        relation, _ = make_planted_rule_relation(seed=7)
        unfiltered = DARMiner(DARConfig(count_rule_support=True)).mine(relation)
        filtered = DARMiner(
            DARConfig(rule_support_fraction=0.08)
        ).mine(relation)
        bar = int(np.ceil(0.08 * len(relation)))
        assert len(filtered.rules) < len(unfiltered.rules)
        for rule in filtered.rules:
            assert (rule.support_count or 0) >= bar

    def test_filter_implies_counting(self):
        relation, _ = make_planted_rule_relation(seed=7)
        result = DARMiner(DARConfig(rule_support_fraction=0.01)).mine(relation)
        assert all(rule.support_count is not None for rule in result.rules)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            DARConfig(rule_support_fraction=1.5)


class TestTargetedMining:
    """The Section 5.2 N:1 application wired into the miner itself."""

    def test_targets_restrict_consequents(self):
        relation, _ = make_planted_rule_relation(seed=7)
        result = DARMiner().mine(relation, targets=["claims"])
        assert result.rules
        for rule in result.rules:
            assert {c.partition.name for c in rule.consequent} == {"claims"}

    def test_targeted_subset_of_untargeted(self):
        relation, _ = make_planted_rule_relation(seed=7)
        full = DARMiner().mine(relation)
        targeted = DARMiner().mine(relation, targets=["claims"])
        full_keys = {r.key() for r in full.rules}
        assert {r.key() for r in targeted.rules} <= full_keys

    def test_multiple_targets(self):
        relation, _ = make_planted_rule_relation(seed=7)
        result = DARMiner().mine(relation, targets=["claims", "age"])
        names = {
            name
            for rule in result.rules
            for name in (c.partition.name for c in rule.consequent)
        }
        assert names <= {"claims", "age"}

    def test_unknown_target_rejected(self):
        relation, _ = make_planted_rule_relation(seed=7)
        with pytest.raises(ValueError, match="unknown target"):
            DARMiner().mine(relation, targets=["premium"])

    def test_empty_targets_rejected(self):
        relation, _ = make_planted_rule_relation(seed=7)
        with pytest.raises(ValueError, match="non-empty"):
            DARMiner().mine(relation, targets=[])
