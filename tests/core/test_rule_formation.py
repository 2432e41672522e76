"""§6.2 rule formation against its reference, and the dominance lemma.

Phase II expands each distinct consequent once, as array work over the
distance blocks.  ``rules_oracle.reference_rules`` is the clique-pair
loop it replaced: every consequent sub-clique of every maximal clique,
per-pair distance lookups, a ``seen`` set.  On random dense populations
and graphs, with many zero distances (duplicate clusters), formation over
the kernel must give the reference's rule list exactly — descriptions,
``repr`` degrees, per-consequent ``degrees`` dicts and order — whether
the reference looks its distances up in the kernel or computes each one
per pair with ``image_distance`` (the two engines Phase II once had).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF
from repro.core.cliques import maximal_cliques
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph
from repro.core.phase2 import _form_rules
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import AttributePartition

from tests.core.rules_oracle import reference_rules


def population(rng, n_partitions, n_clusters):
    """Single-attribute clusters of 1-3 points on a coarse grid: images
    often coincide (zero distances), and some clusters duplicate an
    earlier one's points outright."""
    names = [f"p{i}" for i in range(n_partitions)]
    clusters, points = [], []
    for uid in range(n_clusters):
        own = names[uid] if uid < n_partitions else names[
            int(rng.integers(n_partitions))
        ]
        if points and rng.random() < 0.3:
            columns = points[int(rng.integers(len(points)))]
        else:
            n_points = int(rng.integers(1, 4))
            columns = {
                name: rng.integers(0, 3, size=(n_points, 1)).astype(float)
                for name in names
            }
        points.append(columns)
        acf = ACF.of_points(
            columns[own], {name: columns[name] for name in names if name != own}
        )
        clusters.append(
            Cluster(uid=uid, partition=AttributePartition(own, (own,)), acf=acf)
        )
    return names, clusters


def random_graph(rng, clusters, density):
    """Edges only between clusters over different partitions (Dfn 6.1)."""
    adjacency = {cluster.uid: set() for cluster in clusters}
    for i, a in enumerate(clusters):
        for b in clusters[i + 1:]:
            if a.partition.name != b.partition.name and rng.random() < density:
                adjacency[a.uid].add(b.uid)
                adjacency[b.uid].add(a.uid)
    return ClusteringGraph({c.uid: c for c in clusters}, adjacency)


@st.composite
def formation_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_partitions = draw(st.integers(2, 5))
    names, clusters = population(
        rng, n_partitions, draw(st.integers(n_partitions, 14))
    )
    graph = random_graph(rng, clusters, draw(st.sampled_from([0.5, 0.8, 1.0])))
    degree = {name: float(rng.choice([0.0, 1.0, 2.0, 9.0, 9.0])) for name in names}
    config = DARConfig(
        max_antecedent=draw(st.integers(1, 4)),
        max_consequent=draw(st.integers(1, 3)),
        max_antecedent_candidates=draw(st.sampled_from([1, 2, 3, 32])),
        metric=draw(st.sampled_from(["d1", "d2"])),
    )
    targets = draw(
        st.none() | st.sets(st.sampled_from(names), min_size=1).map(frozenset)
    )
    return config, clusters, graph, degree, targets


def listing(rules):
    return [
        (str(rule), repr(rule.degree), repr(list(rule.degrees.items())))
        for rule in rules
    ]


@settings(max_examples=150, deadline=None)
@given(formation_cases())
def test_formation_matches_reference_on_both_engines(case):
    config, clusters, graph, degree, targets = case
    cliques = maximal_cliques(graph.adjacency)
    kernel = Phase2Kernel(clusters, metric=config.metric)
    got = _form_rules(config, graph, degree, targets=targets, kernel=kernel)
    for lookup in (None, kernel):
        want = reference_rules(
            config, graph, cliques, degree, targets=targets, kernel=lookup
        )
        assert listing(got) == listing(want)


@pytest.mark.parametrize("limit", [3, 32])
@pytest.mark.parametrize("max_antecedent, max_consequent", [(4, 1), (3, 2), (2, 3)])
def test_complete_graph_reaches_every_arity(max_antecedent, max_consequent, limit):
    """Five partitions, every cross-partition edge, every candidate in
    assoc: the largest antecedents and consequents are all formed."""
    names, clusters = population(np.random.default_rng(3), 5, 10)
    graph = random_graph(np.random.default_rng(4), clusters, 1.0)
    degree = {name: 9.0 for name in names}
    config = DARConfig(
        max_antecedent=max_antecedent,
        max_consequent=max_consequent,
        max_antecedent_candidates=limit,
    )
    cliques = maximal_cliques(graph.adjacency)
    kernel = Phase2Kernel(clusters)
    got = _form_rules(config, graph, degree, kernel=kernel)
    for lookup in (None, kernel):
        assert listing(got) == listing(
            reference_rules(config, graph, cliques, degree, kernel=lookup)
        )
    assert max(len(rule.antecedent) for rule in got) == min(max_antecedent, limit)
    assert max(len(rule.consequent) for rule in got) == max_consequent


@settings(max_examples=60, deadline=None)
@given(formation_cases())
def test_dominance_lemma(case):
    """Adding an antecedent cluster never lowers a rule's degree, and a
    rule's degree is the strength of its last-ranked antecedent cluster:
    that cluster's largest image distance to any consequent cluster."""
    config, clusters, graph, degree, targets = case
    kernel = Phase2Kernel(clusters, metric=config.metric)
    rules = _form_rules(config, graph, degree, targets=targets, kernel=kernel)
    by_key = {rule.key(): rule for rule in rules}

    def strength(x, consequent):
        return max(
            kernel.distance(x.uid, y.uid, y.partition.name) for y in consequent
        )

    for rule in rules:
        ranks = [(strength(x, rule.consequent), x.uid) for x in rule.antecedent]
        assert ranks == sorted(ranks)
        pairs = [
            kernel.distance(x.uid, y.uid, y.partition.name)
            for x in rule.antecedent
            for y in rule.consequent
        ]
        assert rule.degree == max([0.0] + pairs) == max(0.0, ranks[-1][0])
        for dropped in range(len(rule.antecedent)):
            rest = rule.antecedent[:dropped] + rule.antecedent[dropped + 1:]
            if rest:
                sub = by_key[(frozenset(c.uid for c in rest), rule.consequent_uids)]
                assert sub.degree <= rule.degree


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_negative_zero_distances_give_zero_degrees(seed):
    """Each degree is a max started from 0.0, as the reference's is, so a
    distance of -0.0 (planted here in the kernel's cached matrices)
    surfaces as a degree of 0.0."""
    names, clusters = population(np.random.default_rng(seed), 3, 10)
    graph = random_graph(np.random.default_rng(seed), clusters, 1.0)
    kernel = Phase2Kernel(clusters)
    for name in names:
        matrix = kernel.pairwise_on(name)
        matrix[matrix == 0.0] = -0.0
    config = DARConfig(max_antecedent=2, max_consequent=2)
    degree = {name: 1.0 for name in names}
    got = _form_rules(config, graph, degree, kernel=kernel)
    want = reference_rules(
        config, graph, maximal_cliques(graph.adjacency), degree, kernel=kernel
    )
    assert listing(got) == listing(want)
    assert any(rule.degree == 0.0 for rule in got)
    assert "-0.0" not in repr(listing(got))
