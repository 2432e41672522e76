"""The reference Dfn 6.1 graph build: one Python distance call per pair.

This is the per-pair loop Phase II ran before every population, nominal
histograms included, went through the blocked
:class:`~repro.core.phase2_kernel.Phase2Kernel`.  It walks the clusters in
uid order, applies the §6.2 density pre-filter from per-cluster image
diameters and tests both projections with
:func:`~repro.core.cluster.image_distance`.  It is slow and plainly
correct, so the tests (and ``benchmarks/test_perf_phase2_graph.py``) hold
the kernel's graph to it: identical edge sets and identical
:class:`~repro.core.graph.GraphStats` accounting.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set

from repro.core.cluster import Cluster, image_distance
from repro.core.graph import ClusteringGraph, GraphStats

__all__ = ["reference_graph"]


def reference_graph(
    clusters: Sequence[Cluster],
    density_thresholds: Mapping[str, float],
    metric: str = "d2",
    use_density_pruning: bool = True,
    pruning_diameter_factor: float = 2.0,
) -> ClusteringGraph:
    """Construct the Dfn 6.1 graph over ``clusters``, pair by pair."""
    by_uid: Dict[int, Cluster] = {}
    for cluster in clusters:
        if cluster.uid in by_uid:
            raise ValueError(f"duplicate cluster uid {cluster.uid}")
        if cluster.partition.name not in density_thresholds:
            raise ValueError(
                f"no density threshold for partition {cluster.partition.name!r}"
            )
        by_uid[cluster.uid] = cluster

    adjacency: Dict[int, Set[int]] = {uid: set() for uid in by_uid}
    stats = GraphStats()
    ordered: List[Cluster] = sorted(by_uid.values(), key=lambda c: c.uid)

    # Pre-compute, per cluster, the partitions against which its image is
    # dense enough to be worth comparing (the §6.2 initial ACF pass).
    viable_against: Dict[int, Set[str]] = {}
    if use_density_pruning:
        partition_names = {cluster.partition.name for cluster in ordered}
        for cluster in ordered:
            viable: Set[str] = set()
            for other_name in partition_names:
                if other_name == cluster.partition.name:
                    continue
                bound = pruning_diameter_factor * density_thresholds[other_name]
                if cluster.image_diameter(other_name) <= bound:
                    viable.add(other_name)
            viable_against[cluster.uid] = viable

    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if a.partition.name == b.partition.name:
                continue
            if use_density_pruning:
                if (
                    b.partition.name not in viable_against[a.uid]
                    or a.partition.name not in viable_against[b.uid]
                ):
                    stats.skipped += 1
                    continue
            stats.comparisons += 1
            name_a, name_b = a.partition.name, b.partition.name
            close_on_a = (
                image_distance(a, b, on=name_a, metric=metric)
                <= density_thresholds[name_a]
            )
            if not close_on_a:
                continue
            close_on_b = (
                image_distance(a, b, on=name_b, metric=metric)
                <= density_thresholds[name_b]
            )
            if close_on_b:
                adjacency[a.uid].add(b.uid)
                adjacency[b.uid].add(a.uid)
                stats.edges += 1

    return ClusteringGraph(clusters=by_uid, adjacency=adjacency, stats=stats)
