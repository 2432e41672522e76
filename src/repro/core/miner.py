"""The two-phase distance-based association rule miner (Section 6).

Phase I clusters every attribute partition with the adaptive ACF-tree
(:mod:`repro.birch`); Phase II (:func:`repro.core.phase2.run_phase2`, shared
with the streaming and mixed miners) works entirely on the resulting
summaries: it builds the clustering graph (Dfn 6.1), enumerates maximal
cliques, computes ``assoc`` sets per consequent cluster and emits every
Dfn 5.3-valid rule within the configured arity bounds.  Optionally a single
post-scan counts the classical support of each candidate rule (the
"Reducing the cost of Phase II" / post-processing remark of Section 6.2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.birch.batch import ScanStats
from repro.birch.birch import (
    BirchClusterer,
    BirchOptions,
    Phase1Stats,
    assign_to_centroids,
)
from repro.birch.features import ACF, CF
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph
from repro.core.phase2 import Phase2Stats, postscan, run_phase2
from repro.core.rules import DistanceRule, RuleList
from repro.data.columnar.chunks import ChunkIterator
from repro.data.columnar.store import ColumnStore
from repro.data.relation import AttributePartition, Relation, default_partitions
from repro.obs.trace import span
from repro.resilience.errors import ValidationError

__all__ = ["DARMiner", "DARResult", "Phase2Stats", "fit_partition"]


@dataclass
class DARResult:
    """Everything a mining run produced, summaries included.

    ``rules`` is a :class:`~repro.core.rules.RuleList` — a plain list
    that is also callable with a :class:`~repro.serve.query.RuleQuery`
    (or its keyword fields), the same unified query surface the serving
    layer answers: ``result.rules(targets="claims", top_k=5)``.
    """

    rules: List[DistanceRule]
    frequent_clusters: Dict[str, List[Cluster]]
    all_clusters: Dict[str, List[Cluster]]
    graph: Optional[ClusteringGraph]
    cliques: List[FrozenSet[int]]
    density_thresholds: Dict[str, float]
    degree_thresholds: Dict[str, float]
    frequency_count: int
    phase1: Dict[str, Phase1Stats]
    phase2: Phase2Stats

    def __post_init__(self) -> None:
        if not isinstance(self.rules, RuleList):
            self.rules = RuleList(self.rules)

    def cluster_by_uid(self, uid: int) -> Cluster:
        """Look up a cluster by uid across all partitions."""
        for clusters in self.all_clusters.values():
            for cluster in clusters:
                if cluster.uid == uid:
                    return cluster
        raise KeyError(f"no cluster with uid {uid}")

    def rules_sorted(self) -> List[DistanceRule]:
        """Rules ranked strongest-first (smallest degree, then most support)."""
        return sorted(
            self.rules,
            key=lambda rule: (rule.degree, -(rule.support_count or 0), str(rule)),
        )

    def scan_summary(self) -> Optional[ScanStats]:
        """All partitions' Phase I scan instrumentation merged into one.

        ``None`` when no partition carries scan instrumentation (a result
        without Phase I partitions).
        """
        merged: Optional[ScanStats] = None
        for stats in self.phase1.values():
            if stats.scan is None:
                continue
            if merged is None:
                merged = ScanStats()
            merged.merge(stats.scan)
        return merged

    def to_dict(self) -> Dict:
        """The run as plain built-in types (see :mod:`repro.report.export`).

        Includes thresholds, frequent clusters, rules, and the Phase I /
        Phase II stats breakdowns, so runs are machine-comparable across
        versions.
        """
        from repro.report.export import result_to_dict

        return result_to_dict(self)

    def to_json(self, indent: int = 2) -> str:
        """``to_dict`` rendered as a JSON string."""
        from repro.report.export import result_to_json

        return result_to_json(self, indent=indent)


class DARMiner:
    """Mines distance-based association rules from a relation.

    >>> from repro.data.synthetic import make_planted_rule_relation
    >>> relation, _ = make_planted_rule_relation(seed=7)
    >>> result = DARMiner().mine(relation)
    >>> len(result.rules) > 0
    True
    """

    def __init__(self, config: DARConfig = DARConfig()):
        self.config = config
        #: Scan cadence of the current run when mining a
        #: :class:`~repro.data.columnar.ColumnStore` (``None`` for
        #: in-memory relations); set per :meth:`mine` call and read by
        #: :meth:`_run_phase1` to route the scan through ``fit_chunks``.
        self._chunk_rows: Optional[int] = None

    # ------------------------------------------------------------------

    def mine(
        self,
        relation: "Relation | ColumnStore",
        partitions: Optional[Sequence[AttributePartition]] = None,
        targets: Optional[Sequence[str]] = None,
    ) -> DARResult:
        """Run both phases over ``relation``.

        ``relation`` may be an in-memory
        :class:`~repro.data.relation.Relation` or a memory-mapped
        :class:`~repro.data.columnar.ColumnStore`; both expose the
        ``schema``/``len``/``matrix`` surface the phases read.  A store
        is scanned chunk by chunk (Phase I consumes a
        :class:`~repro.data.columnar.ChunkIterator` at the store's
        ``chunk_rows``), so only one chunk of each partition is resident
        at a time; results are bit-identical to mining the materialized
        relation, with or without a memory budget, at any chunk size.

        ``partitions`` defaults to one partition per interval attribute.
        ``targets`` optionally names the partitions rules may conclude
        about — the Section 5.2 N:1 application ("associations between
        driver characteristics and a specific variable"): only consequents
        over target partitions are enumerated, which also skips their
        assoc-set computation entirely.  Raises ``ValueError`` for empty
        relations, empty partitionings, or unknown target names.
        """
        self._chunk_rows = (
            relation.chunk_rows if isinstance(relation, ColumnStore) else None
        )
        if len(relation) == 0:
            raise ValidationError("cannot mine an empty relation")
        partition_list = list(
            partitions if partitions is not None else default_partitions(relation.schema)
        )
        if not partition_list:
            raise ValueError("no interval attributes to mine over")
        names = [p.name for p in partition_list]
        if len(set(names)) != len(names):
            raise ValueError(f"partition names must be unique, got {names}")
        target_set: Optional[frozenset] = None
        if targets is not None:
            target_set = frozenset(targets)
            unknown = target_set - set(names)
            if unknown:
                raise ValueError(f"unknown target partitions: {sorted(unknown)}")
            if not target_set:
                raise ValueError("targets, when given, must be non-empty")

        matrices = {p.name: relation.matrix(p.attributes) for p in partition_list}
        self._validate_matrices(partition_list, matrices)
        density = self._resolve_density_thresholds(partition_list, matrices)
        degree = {
            p.name: self.config.degree_threshold(p.name, density[p.name])
            for p in partition_list
        }

        # ------------------------------ Phase I ------------------------
        n = len(relation)
        frequency_count = max(1, math.ceil(self.config.frequency_fraction * n))

        with span("phase1", partitions=len(partition_list), rows=n):
            phase1_stats, all_clusters, frequent_clusters = self._run_phase1(
                partition_list, matrices, density, frequency_count
            )

        # ------------------------------ Phase II -----------------------
        # Without support counting there is no post-scan step to time.
        counts_support = (
            self.config.count_rule_support
            or self.config.rule_support_fraction is not None
        )
        graph, cliques, rules, phase2 = run_phase2(
            self.config,
            frequent_clusters,
            density,
            degree,
            n_clusters=sum(len(c) for c in all_clusters.values()),
            targets=target_set,
            postprocess=(lambda rules: postscan(
                self.config,
                rules,
                lambda: self._tuple_masks(frequent_clusters, matrices),
                n,
            )) if counts_support else None,
        )

        return DARResult(
            rules=rules,
            frequent_clusters=frequent_clusters,
            all_clusters=all_clusters,
            graph=graph,
            cliques=cliques,
            density_thresholds=density,
            degree_thresholds=degree,
            frequency_count=frequency_count,
            phase1=phase1_stats,
            phase2=phase2,
        )

    # ------------------------------------------------------------------
    # Phase I hooks — the parallel engine overrides _fit_partitions
    # ------------------------------------------------------------------

    def _run_phase1(
        self,
        partition_list: Sequence[AttributePartition],
        matrices: Mapping[str, np.ndarray],
        density: Mapping[str, float],
        frequency_count: int,
    ) -> Tuple[
        Dict[str, Phase1Stats],
        Dict[str, List[Cluster]],
        Dict[str, List[Cluster]],
    ]:
        """Cluster every partition; returns (stats, all, frequent) by name.

        The scans come from :meth:`_fit_partitions`; cluster uids are then
        assigned from a fresh counter in ``partition_list`` order, so the
        cluster population does not depend on where the scans ran.
        """
        fits = self._fit_partitions(partition_list, matrices, density)
        phase1_stats: Dict[str, Phase1Stats] = {}
        all_clusters: Dict[str, List[Cluster]] = {}
        frequent_clusters: Dict[str, List[Cluster]] = {}
        uid = itertools.count()
        for partition in partition_list:
            acfs, phase1_stats[partition.name] = fits[partition.name]
            clusters = [
                Cluster(uid=next(uid), partition=partition, acf=acf)
                for acf in acfs
            ]
            all_clusters[partition.name] = clusters
            frequent = [c for c in clusters if c.n >= frequency_count]
            # "If for some X_i there are no frequent clusters, we omit X_i
            # from consideration in Phase II."
            if frequent:
                frequent_clusters[partition.name] = frequent
        return phase1_stats, all_clusters, frequent_clusters

    def _fit_partitions(
        self,
        partition_list: Sequence[AttributePartition],
        matrices: Mapping[str, np.ndarray],
        density: Mapping[str, float],
    ) -> Dict[str, Tuple[List[ACF], Phase1Stats]]:
        """One Phase I scan per partition: ``name -> (clusters, stats)``.

        Serial here, in ``partition_list`` order;
        :class:`repro.parallel.ParallelDARMiner` overrides only this method
        to run the same :func:`fit_partition` calls in worker processes.
        """
        return {
            partition.name: fit_partition(
                partition,
                partition_list,
                self._phase1_options(partition, density),
                matrices,
                self._chunk_rows,
            )
            for partition in partition_list
        }

    def _phase1_options(
        self, partition: AttributePartition, density: Mapping[str, float]
    ) -> BirchOptions:
        """The partition's clusterer options: its ``d0`` as first threshold."""
        return replace(
            self.config.birch,
            initial_threshold=density[partition.name],
            frequency_fraction=self.config.frequency_fraction,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _validate_matrices(
        partitions: Sequence[AttributePartition],
        matrices: Mapping[str, np.ndarray],
    ) -> None:
        """Reject non-finite data up front with an error naming the column.

        NaN/inf would otherwise propagate silently through every moment sum
        and surface only as nonsense thresholds or empty rule sets.  The
        message distinguishes an entirely-bad column (drop it) from a few
        bad rows (clean them, or ingest leniently with a quarantine sink).

        The check walks each matrix in fixed-row blocks so memory-mapped
        (out-of-core) matrices are validated without ever allocating a
        whole-column temporary; the per-column bad counts — and therefore
        the error messages — are exactly those of a whole-array check.
        """
        block_rows = 1 << 18
        for partition in partitions:
            matrix = np.atleast_2d(np.asarray(matrices[partition.name], float))
            total = matrix.shape[0]
            bad_counts = np.zeros(matrix.shape[1], dtype=np.int64)
            for start in range(0, total, block_rows):
                finite = np.isfinite(matrix[start : start + block_rows])
                if not finite.all():
                    bad_counts += (~finite).sum(axis=0)
            if not bad_counts.any():
                continue
            for column, attribute in enumerate(partition.attributes):
                bad = int(bad_counts[column])
                if bad == 0:
                    continue
                if bad == total:
                    raise ValidationError(
                        f"attribute {attribute!r} (partition "
                        f"{partition.name!r}) is entirely non-finite "
                        f"(all {total} rows are NaN/inf); drop the column "
                        f"or clean the data before mining"
                    )
                raise ValidationError(
                    f"attribute {attribute!r} (partition {partition.name!r}) "
                    f"has {bad} non-finite value(s) in {total} rows; clean "
                    f"the data or load it leniently with a quarantine sink "
                    f"(load_csv(..., sink=...)) to divert the bad rows"
                )

    def _resolve_density_thresholds(
        self,
        partitions: Sequence[AttributePartition],
        matrices: Mapping[str, np.ndarray],
    ) -> Dict[str, float]:
        """Per-partition ``d0``: explicit config, else a data-derived default.

        The default scales with the partition's overall spread: the RMS
        diameter of the whole column, computable from one global CF.  A
        degenerate (constant) column gets a tiny positive threshold so
        clustering still works.
        """
        thresholds: Dict[str, float] = {}
        for partition in partitions:
            global_cf = CF.of_points(matrices[partition.name])
            spread = global_cf.rms_diameter
            derived = self.config.density_fraction * spread
            if derived <= 0:
                derived = 1e-9
            thresholds[partition.name] = self.config.density_threshold(
                partition.name, derived
            )
        return thresholds

    def _tuple_masks(
        self,
        frequent_clusters: Mapping[str, List[Cluster]],
        matrices: Mapping[str, np.ndarray],
    ) -> Dict[int, np.ndarray]:
        """The tuples each frequent cluster labels, keyed by cluster uid.

        Tuples are labeled per partition by closest frequent-cluster
        centroid (§4.3.2), so a tuple supports a rule when its label
        matches the rule's cluster in every partition the rule mentions.
        """
        masks: Dict[int, np.ndarray] = {}
        for name, clusters in frequent_clusters.items():
            centroids = np.stack([cluster.centroid for cluster in clusters])
            labels = assign_to_centroids(matrices[name], centroids)
            for index, cluster in enumerate(clusters):
                masks[cluster.uid] = labels == index
        return masks


class _CheckedClusterer(BirchClusterer):
    """A clusterer over columns :meth:`DARMiner._validate_matrices` has
    already checked: its scans skip the finiteness checks, so a mine checks
    each column once instead of once per partition that reads it."""

    _check_finite = False


def fit_partition(
    partition: AttributePartition,
    partition_list: Sequence[AttributePartition],
    options: BirchOptions,
    matrices: Mapping[str, np.ndarray],
    chunk_rows: Optional[int] = None,
) -> Tuple[List[ACF], Phase1Stats]:
    """One partition's Phase I scan, in the miner or in a pool worker.

    The other partitions' matrices feed the cross moments.  With
    ``chunk_rows`` the scan streams fixed-size chunks, so one chunk of each
    (memory-mapped) matrix is resident at a time; chunk cuts never change
    the tree.  The matrices must be finite: the miner checks them once,
    before Phase I.
    """
    others = [p for p in partition_list if p.name != partition.name]
    clusterer = _CheckedClusterer(partition, others, options)
    if chunk_rows is not None:
        result = clusterer.fit_chunks(ChunkIterator(dict(matrices), chunk_rows))
    else:
        result = clusterer.fit_arrays(
            matrices[partition.name], {p.name: matrices[p.name] for p in others}
        )
    return result.clusters, result.stats
