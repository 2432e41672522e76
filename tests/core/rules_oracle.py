"""The reference §6.2 rule formation: one expansion per (clique, consequent).

This is the rule-formation loop Phase II ran before it expanded each
distinct consequent once as array work.  It visits every consequent
sub-clique of every maximal clique, ranks the antecedent candidates and
builds each rule with per-pair distance lookups, and drops the repeats
with a ``seen`` set.  It is slow and plainly correct, so the tests hold
``repro.core.phase2``'s formation to it rule for rule: descriptions,
``repr`` degrees, per-consequent ``degrees`` dicts and list order.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph
from repro.core.phase2_kernel import Phase2Kernel
from repro.core.rules import DistanceRule

__all__ = ["reference_rules"]


def reference_rules(
    config: DARConfig,
    graph: ClusteringGraph,
    cliques: Sequence[FrozenSet[int]],
    degree_thresholds: Mapping[str, float],
    targets: Optional[FrozenSet[str]] = None,
    kernel: Optional[Phase2Kernel] = None,
) -> List[DistanceRule]:
    """Section 6.2 rule formation, deduplicated across clique pairs.

    For every sub-clique chosen as a consequent, the antecedent
    candidates are the intersection of the consequents' ``assoc`` sets;
    any antecedent subset that is itself a clique and is
    partition-disjoint from the consequent yields a rule.  With
    ``kernel`` given, the assoc sets, candidate ranking and rule degrees
    read the kernel's cached pairwise-distance matrices.
    """
    clusters = graph.clusters
    dist = _distance_fn(kernel, config.metric)

    if kernel is not None:
        uids = kernel.uids
        assoc = {
            uid: {int(u) for u in uids[mask]}
            for uid, mask in kernel.assoc_sets(
                degree_thresholds, targets=targets
            ).items()
        }
    else:
        assoc = {}
        for y_uid, y_cluster in clusters.items():
            y_name = y_cluster.partition.name
            if targets is not None and y_name not in targets:
                continue
            threshold = degree_thresholds[y_name]
            members: Set[int] = set()
            for x_uid, x_cluster in clusters.items():
                if x_cluster.partition.name == y_name:
                    continue
                if dist(x_cluster, y_cluster, y_name) <= threshold:
                    members.add(x_uid)
            assoc[y_uid] = members

    seen: Set[Tuple[frozenset, frozenset]] = set()
    rules: List[DistanceRule] = []

    for clique in cliques:
        ordered = sorted(clique)
        max_y = min(config.max_consequent, len(ordered))
        for y_size in range(1, max_y + 1):
            for consequent_uids in itertools.combinations(ordered, y_size):
                consequent = tuple(clusters[u] for u in consequent_uids)
                consequent_names = {c.partition.name for c in consequent}
                if targets is not None and not consequent_names <= targets:
                    continue
                candidates = set.intersection(
                    *(assoc[u] for u in consequent_uids)
                )
                candidates -= set(consequent_uids)
                candidates = {
                    u
                    for u in candidates
                    if clusters[u].partition.name not in consequent_names
                }
                if not candidates:
                    continue
                ranked = _rank_candidates(
                    candidates, consequent, clusters, dist,
                    config.max_antecedent_candidates,
                )
                for antecedent_uids in _antecedent_subsets(
                    ranked, graph, config.max_antecedent
                ):
                    antecedent = tuple(clusters[u] for u in antecedent_uids)
                    antecedent_names = [c.partition.name for c in antecedent]
                    if len(set(antecedent_names)) != len(antecedent_names):
                        continue
                    key = (frozenset(antecedent_uids), frozenset(consequent_uids))
                    if key in seen:
                        continue
                    seen.add(key)
                    rules.append(_make_rule(antecedent, consequent, dist))
    rules.sort(key=lambda rule: (rule.degree, str(rule)))
    return rules


def _distance_fn(kernel: Optional[Phase2Kernel], metric: str):
    if kernel is not None:
        return lambda a, b, on: kernel.distance(a.uid, b.uid, on)
    return lambda a, b, on: image_distance(a, b, on=on, metric=metric)


def _rank_candidates(
    candidates: Set[int],
    consequent: Tuple[Cluster, ...],
    clusters: Mapping[int, Cluster],
    dist,
    limit: int,
) -> List[int]:
    """The ``limit`` candidates with the smallest worst-case image
    distance to the consequent, ties broken by uid."""
    def strength(uid: int) -> float:
        x_cluster = clusters[uid]
        return max(
            dist(x_cluster, y_cluster, y_cluster.partition.name)
            for y_cluster in consequent
        )

    ranked = sorted(candidates, key=lambda uid: (strength(uid), uid))
    return ranked[:limit]


def _antecedent_subsets(
    candidates: Sequence[int], graph: ClusteringGraph, max_antecedent: int
):
    """Non-empty pairwise-adjacent subsets of ``candidates`` (bounded size)."""
    max_size = min(max_antecedent, len(candidates))
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(candidates, size):
            if size == 1 or all(
                graph.has_edge(a, b)
                for a, b in itertools.combinations(subset, 2)
            ):
                yield subset


def _make_rule(
    antecedent: Tuple[Cluster, ...],
    consequent: Tuple[Cluster, ...],
    dist,
) -> DistanceRule:
    degrees: Dict[int, float] = {}
    worst = 0.0
    for y_cluster in consequent:
        y_name = y_cluster.partition.name
        y_worst = 0.0
        for x_cluster in antecedent:
            distance = dist(x_cluster, y_cluster, y_name)
            y_worst = max(y_worst, distance)
        degrees[y_cluster.uid] = y_worst
        worst = max(worst, y_worst)
    return DistanceRule(
        antecedent=antecedent, consequent=consequent, degree=worst, degrees=degrees
    )
