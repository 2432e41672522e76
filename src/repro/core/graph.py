"""The clustering graph of Dfn 6.1.

Nodes are the frequent clusters from Phase I; an edge joins clusters
``C_X`` and ``C_Y`` (over *different* partitions) when they are close on
both partitions:

    D(C_X[X], C_Y[X]) <= d0_X   and   D(C_X[Y], C_Y[Y]) <= d0_Y

Edges witness co-occurrence: the two clusters describe roughly the same
tuples, so their maximal cliques play the role frequent itemsets play for
classical rules.

Section 6.2's cost reduction is implemented as an optional pre-filter:
"Image clusters with large diameters (poor density) are unlikely to
contribute edges to the graph.  ...  In an initial pass over the ACFs, we
can determine if edges from a given node need to be computed, dramatically
reducing the number of node comparisons required."  A node whose image on
partition ``Y`` has diameter above ``pruning_factor x d0_Y`` skips all
comparisons against ``Y``'s clusters.  The builder counts performed and
skipped comparisons so the ablation benchmark can report the saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Sequence, Set

from repro.core.cluster import Cluster

__all__ = ["ClusteringGraph", "GraphStats", "build_clustering_graph"]


@dataclass
class GraphStats:
    """Comparison accounting for the §6.2 pruning ablation."""

    comparisons: int = 0
    skipped: int = 0
    edges: int = 0

    @property
    def considered(self) -> int:
        """Total pairs examined (computed plus pruned)."""
        return self.comparisons + self.skipped


@dataclass
class ClusteringGraph:
    """An undirected graph over clusters, keyed by cluster uid."""

    clusters: Dict[int, Cluster]
    adjacency: Dict[int, Set[int]]
    stats: GraphStats = field(default_factory=GraphStats)

    @property
    def n_nodes(self) -> int:
        """Number of clusters in the graph."""
        return len(self.clusters)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    def neighbors(self, uid: int) -> FrozenSet[int]:
        """Uids adjacent to ``uid`` (empty if absent)."""
        return frozenset(self.adjacency.get(uid, ()))

    def has_edge(self, a: int, b: int) -> bool:
        """Whether clusters ``a`` and ``b`` are connected."""
        return b in self.adjacency.get(a, ())

    def degree(self, uid: int) -> int:
        """Number of neighbors of ``uid``."""
        return len(self.adjacency.get(uid, ()))


def build_clustering_graph(
    clusters: Sequence[Cluster],
    density_thresholds: Mapping[str, float],
    metric: str = "d2",
    use_density_pruning: bool = True,
    pruning_diameter_factor: float = 2.0,
) -> ClusteringGraph:
    """Construct the Dfn 6.1 graph over ``clusters``.

    ``density_thresholds`` maps partition name to the (Phase II, possibly
    leniency-scaled) ``d0`` used for edge tests.  Every cluster's partition
    must appear in the mapping.  The graph is built by the blocked
    :class:`~repro.core.phase2_kernel.Phase2Kernel`, over CF images on
    interval partitions and value histograms on nominal ones.
    """
    from repro.core.phase2_kernel import Phase2Kernel

    return Phase2Kernel(clusters, metric=metric).build_graph(
        density_thresholds,
        use_density_pruning=use_density_pruning,
        pruning_diameter_factor=pruning_diameter_factor,
    )
