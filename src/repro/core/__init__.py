"""The paper's primary contribution: distance-based association rules."""

from repro.core.cliques import maximal_cliques, non_trivial_cliques
from repro.core.cluster import CLUSTER_METRICS, Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.gqar import GQARConfig, GQARMiner, GQARResult, GQARRule
from repro.core.graph import ClusteringGraph, GraphStats, build_clustering_graph
from repro.core.interest import (
    RuleInterest,
    classical_rule_interest,
    confidence_from_degree,
    degree_from_confidence,
    distance_rule_interest,
    nominal_cluster_degree,
    nominal_cluster_diameter,
)
from repro.core.miner import DARMiner, DARResult
from repro.core.phase2 import Phase2Stats, run_phase2
from repro.core.phase2_kernel import ImageMoments, Phase2Kernel
from repro.core.postprocess import (
    filter_by_antecedent,
    filter_by_consequent,
    prune_redundant,
    select_rules,
)
from repro.core.rules import DistanceRule, validate_rule_partitions
from repro.core.streaming import StreamingDARMiner
from repro.core.validate import RuleAudit, audit_result, audit_rule

__all__ = [
    "maximal_cliques",
    "non_trivial_cliques",
    "CLUSTER_METRICS",
    "Cluster",
    "image_distance",
    "DARConfig",
    "GQARConfig",
    "GQARMiner",
    "GQARResult",
    "GQARRule",
    "ClusteringGraph",
    "GraphStats",
    "build_clustering_graph",
    "ImageMoments",
    "Phase2Kernel",
    "RuleInterest",
    "classical_rule_interest",
    "confidence_from_degree",
    "degree_from_confidence",
    "distance_rule_interest",
    "nominal_cluster_degree",
    "nominal_cluster_diameter",
    "DARMiner",
    "DARResult",
    "Phase2Stats",
    "run_phase2",
    "DistanceRule",
    "validate_rule_partitions",
    "filter_by_antecedent",
    "filter_by_consequent",
    "prune_redundant",
    "select_rules",
    "RuleAudit",
    "audit_result",
    "audit_rule",
    "StreamingDARMiner",
]
