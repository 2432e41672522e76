"""JSON export of mining results.

Serializes clusters (bounding box and centroid, or a nominal cluster's
value; size; diameter) and rules
(sides, degree, per-consequent degrees, optional support) into plain JSON
structures — the integration surface for dashboards or downstream jobs.
Everything is converted to built-in types so ``json.dumps`` works without
custom encoders.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.birch.birch import Phase1Stats
from repro.core.cluster import Cluster
from repro.core.miner import DARResult, Phase2Stats
from repro.core.rules import DistanceRule

__all__ = [
    "cluster_to_dict",
    "rule_to_dict",
    "phase1_stats_to_dict",
    "phase2_stats_to_dict",
    "result_to_dict",
    "result_to_json",
]


def cluster_to_dict(cluster: Cluster) -> Dict:
    """JSON-ready dict describing one cluster.

    An interval cluster carries its centroid and bounding box.  A nominal
    cluster of a mixed result (a ``MixedCluster`` pure on one value) has
    neither; it carries that ``value`` (as text) instead.
    """
    entry = {
        "uid": cluster.uid,
        "partition": cluster.partition.name,
        "attributes": list(cluster.partition.attributes),
        "n": cluster.n,
        "diameter": float(cluster.diameter),
    }
    if getattr(cluster, "is_nominal", False):
        entry["value"] = str(cluster.value)
        return entry
    lo, hi = cluster.bounding_box()
    entry["centroid"] = [float(v) for v in cluster.centroid]
    entry["bounding_box"] = {
        "lo": [float(v) for v in lo],
        "hi": [float(v) for v in hi],
    }
    return entry


def rule_to_dict(rule: DistanceRule) -> Dict:
    """JSON-ready dict describing one rule (clusters by uid)."""
    return {
        "antecedent": [cluster.uid for cluster in rule.antecedent],
        "consequent": [cluster.uid for cluster in rule.consequent],
        "degree": float(rule.degree),
        "degrees": {str(uid): float(d) for uid, d in rule.degrees.items()},
        "support_count": rule.support_count,
    }


def phase1_stats_to_dict(stats: Phase1Stats) -> Dict:
    """One partition's Phase I diagnostics as built-in types."""
    out = {
        "points_inserted": stats.points_inserted,
        "rebuilds": stats.rebuilds,
        "threshold_history": [float(t) for t in stats.threshold_history],
        "pages_out": stats.pages_out,
        "paged_entries": stats.paged_entries,
        "seconds": float(stats.seconds),
        "final_entry_count": stats.final_entry_count,
        "final_tree_bytes": stats.final_tree_bytes,
    }
    if stats.scan is not None:
        out["scan"] = {
            "points": stats.scan.points,
            "entries": stats.scan.entries,
            "absorbed": stats.scan.absorbed,
            "new_entries": stats.scan.new_entries,
            "verified": stats.scan.verified,
            "splits": stats.scan.splits,
            "rebuilds": stats.scan.rebuilds,
            "batches": stats.scan.batches,
            "flushes": stats.scan.flushes,
            "seconds_total": float(stats.scan.seconds_total),
        }
    return out


def phase2_stats_to_dict(stats: Phase2Stats) -> Dict:
    """Phase II diagnostics, including the per-stage timing breakdown."""
    return {
        "seconds": float(stats.seconds),
        "n_clusters": stats.n_clusters,
        "n_frequent_clusters": stats.n_frequent_clusters,
        "n_edges": stats.n_edges,
        "n_cliques": stats.n_cliques,
        "n_non_trivial_cliques": stats.n_non_trivial_cliques,
        "comparisons": stats.comparisons,
        "comparisons_skipped": stats.comparisons_skipped,
        "n_rules": stats.n_rules,
        "stage_seconds": {
            name: float(value) for name, value in stats.stage_breakdown().items()
        },
        "events": [str(event) for event in stats.events],
    }


def result_to_dict(result: DARResult) -> Dict:
    """Whole-run export: thresholds, clusters (by partition), rules, stats."""
    return {
        "frequency_count": result.frequency_count,
        "density_thresholds": {
            name: float(value) for name, value in result.density_thresholds.items()
        },
        "degree_thresholds": {
            name: float(value) for name, value in result.degree_thresholds.items()
        },
        "clusters": {
            name: [cluster_to_dict(cluster) for cluster in clusters]
            for name, clusters in result.frequent_clusters.items()
        },
        "rules": [rule_to_dict(rule) for rule in result.rules_sorted()],
        "phase1": {
            name: phase1_stats_to_dict(stats)
            for name, stats in result.phase1.items()
        },
        "phase2": phase2_stats_to_dict(result.phase2),
    }


def result_to_json(result: DARResult, indent: int = 2) -> str:
    """``result_to_dict`` rendered as a JSON string."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)
