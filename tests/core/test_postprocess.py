"""Tests for rule post-processing: filtering, pruning, selection."""

import numpy as np
import pytest

from repro.birch.features import ACF
from repro.core.cluster import Cluster
from repro.core.postprocess import (
    filter_by_antecedent,
    filter_by_consequent,
    prune_redundant,
    select_rules,
)
from repro.core.rules import DistanceRule
from repro.data.relation import AttributePartition


def cluster(uid, name):
    acf = ACF.of_points(np.array([[float(uid)]]), {})
    return Cluster(uid=uid, partition=AttributePartition(name, (name,)), acf=acf)


A1 = cluster(1, "age")
A2 = cluster(2, "deps")
C1 = cluster(3, "claims")
C2 = cluster(4, "income")


def rule(antecedent, consequent, degree, support=None):
    return DistanceRule(
        antecedent=tuple(antecedent),
        consequent=tuple(consequent),
        degree=degree,
        support_count=support,
    )


class TestFilters:
    def test_filter_by_consequent(self):
        rules = [
            rule([A1], [C1], 0.1),
            rule([A1], [C2], 0.2),
            rule([A2], [C1, C2], 0.3),
        ]
        kept = filter_by_consequent(rules, ["claims"])
        assert len(kept) == 1
        assert kept[0].consequent == (C1,)

    def test_filter_by_consequent_multiple_targets(self):
        rules = [rule([A1], [C1, C2], 0.3)]
        assert filter_by_consequent(rules, ["claims", "income"]) == rules

    def test_filter_requires_targets(self):
        with pytest.raises(ValueError):
            filter_by_consequent([], [])

    def test_filter_by_antecedent(self):
        rules = [rule([A1], [C1], 0.1), rule([A1, A2], [C1], 0.2)]
        kept = filter_by_antecedent(rules, ["age"])
        assert kept == [rules[0]]


class TestPruneRedundant:
    def test_longer_weaker_rule_dropped(self):
        short = rule([A1], [C1], 0.1)
        long = rule([A1, A2], [C1], 0.2)  # superset antecedent, worse degree
        assert prune_redundant([long, short]) == [short]

    def test_longer_stronger_rule_kept(self):
        short = rule([A1], [C1], 0.3)
        long = rule([A1, A2], [C1], 0.1)  # superset but strictly stronger
        kept = prune_redundant([short, long])
        assert set(kept) == {short, long}

    def test_different_consequents_independent(self):
        a = rule([A1], [C1], 0.1)
        b = rule([A1, A2], [C2], 0.5)
        assert set(prune_redundant([a, b])) == {a, b}

    def test_equal_degree_prefers_shorter(self):
        short = rule([A1], [C1], 0.2)
        long = rule([A1, A2], [C1], 0.2)
        assert prune_redundant([long, short]) == [short]

    def test_output_sorted_by_degree(self):
        a = rule([A1], [C1], 0.5)
        b = rule([A2], [C2], 0.1)
        assert prune_redundant([a, b]) == [b, a]


class TestSelectRules:
    def test_max_degree(self):
        rules = [rule([A1], [C1], 0.1), rule([A2], [C1], 0.9)]
        assert select_rules(rules, max_degree=0.5) == [rules[0]]

    def test_top_k(self):
        rules = [rule([A1], [C1], 0.3), rule([A2], [C1], 0.1)]
        assert select_rules(rules, top_k=1)[0].degree == 0.1

    def test_top_k_validated(self):
        with pytest.raises(ValueError):
            select_rules([], top_k=0)

    def test_min_support_requires_counts(self):
        rules = [rule([A1], [C1], 0.1)]  # no support_count
        with pytest.raises(ValueError, match="count_rule_support"):
            select_rules(rules, min_support=5)

    def test_min_support_filters(self):
        rules = [
            rule([A1], [C1], 0.1, support=3),
            rule([A2], [C1], 0.2, support=50),
        ]
        assert select_rules(rules, min_support=10) == [rules[1]]

    def test_support_breaks_degree_ties(self):
        weak = rule([A1], [C1], 0.2, support=5)
        strong = rule([A2], [C1], 0.2, support=80)
        assert select_rules([weak, strong])[0] is strong


def reference_prune_redundant(rules):
    """The quadratic loop ``prune_redundant`` ran before it bucketed kept
    rules by consequent: every rule against every kept rule."""
    ordered = sorted(
        rules, key=lambda rule: (len(rule.antecedent), rule.degree, str(rule))
    )
    kept, kept_index = [], []
    for rule in ordered:
        consequent, antecedent = rule.consequent_uids, rule.antecedent_uids
        if not any(
            consequent == kept_consequent
            and kept_antecedent < antecedent
            and kept_degree <= rule.degree + 1e-12
            for kept_consequent, kept_antecedent, kept_degree in kept_index
        ):
            kept.append(rule)
            kept_index.append((consequent, antecedent, rule.degree))
    kept.sort(key=lambda rule: (rule.degree, str(rule)))
    return kept


@pytest.fixture(scope="module")
def stream_rules():
    """The rules of a 12,000-row, 7-attribute stream fed in 10 batches
    (the benchmark's ``stream`` shape): 3,420 rules."""
    from repro.core.streaming import StreamingDARMiner
    from repro.data.relation import default_partitions
    from repro.data.synthetic import make_clustered_relation

    relation, _ = make_clustered_relation(
        n_modes=8, points_per_mode=1_500, n_attributes=7, seed=3
    )
    miner = StreamingDARMiner(default_partitions(relation.schema))
    for chunk in np.array_split(np.arange(len(relation)), 10):
        miner.update(relation.take(chunk))
    return miner.rules()


class TestPruneAgainstReference:
    def test_library_prune_matches_the_quadratic_loop(self, stream_rules):
        rules = list(stream_rules.rules)
        assert len(rules) > 3_000
        kept = prune_redundant(rules)
        assert [str(r) for r in kept] == [
            str(r) for r in reference_prune_redundant(rules)
        ]
        assert len(kept) < len(rules)

    def test_query_engine_prune_matches_the_quadratic_loop(self, stream_rules):
        from repro.serve.query import QueryEngine, RuleQuery
        from repro.serve.snapshot import compile_snapshot

        snapshot = compile_snapshot(stream_rules)
        answer = QueryEngine(snapshot).query(RuleQuery(prune_redundant=True))
        want = [str(r) for r in reference_prune_redundant(stream_rules.rules)]
        assert [snapshot.descriptions[i] for i in answer.ids] == want
