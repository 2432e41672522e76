"""The two-phase distance-based association rule miner (Section 6).

Phase I clusters every attribute partition with the adaptive ACF-tree
(:mod:`repro.birch`); Phase II works entirely on the resulting summaries:
it builds the clustering graph (Dfn 6.1), enumerates maximal cliques,
computes ``assoc`` sets per consequent cluster and emits every
Dfn 5.3-valid rule within the configured arity bounds.  Optionally a single
post-scan counts the classical support of each candidate rule (the
"Reducing the cost of Phase II" / post-processing remark of Section 6.2).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.birch.batch import ScanStats
from repro.birch.birch import BirchClusterer, Phase1Stats, assign_to_centroids
from repro.birch.features import CF
from repro.core.cliques import maximal_cliques, non_trivial_cliques
from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph, build_clustering_graph
from repro.core.phase2_kernel import Phase2Kernel
from repro.core.rules import DistanceRule, RuleList
from repro.data.columnar.chunks import ChunkIterator
from repro.data.columnar.store import ColumnStore
from repro.data.relation import AttributePartition, Relation, default_partitions
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.errors import ValidationError
from repro.resilience.events import GuardEvent, record_guard_event

__all__ = ["DARMiner", "DARResult", "Phase2Stats"]


@dataclass
class Phase2Stats:
    """Diagnostics of the in-memory rule-formation phase.

    ``engine`` is the resolved distance engine (``"vector"`` for the
    blocked numpy kernel, ``"scalar"`` for per-pair Python calls, empty
    when Phase II never ran) — resolved *after* any degradation, so it
    always names the engine that actually produced the graph.  ``events``
    records graceful degradations in order (e.g. a vector-kernel failure
    that fell back to the scalar engine, or a guarded retry after memory
    exhaustion); an empty list means the run was clean.  The
    ``*_seconds`` fields break ``seconds`` down by stage: image-moment
    extraction, clustering-graph build, maximal-clique enumeration and
    rule emission (assoc sets, antecedent search, degree computation).
    """

    seconds: float = 0.0
    n_clusters: int = 0
    n_frequent_clusters: int = 0
    n_cliques: int = 0
    n_non_trivial_cliques: int = 0
    n_edges: int = 0
    comparisons: int = 0
    comparisons_skipped: int = 0
    n_rules: int = 0
    engine: str = ""
    extract_seconds: float = 0.0
    graph_seconds: float = 0.0
    clique_seconds: float = 0.0
    rules_seconds: float = 0.0
    events: List[GuardEvent] = field(default_factory=list)

    def stage_breakdown(self) -> Dict[str, float]:
        """Stage-name → seconds, in pipeline order (for reports/CLI)."""
        return {
            "extract": self.extract_seconds,
            "graph": self.graph_seconds,
            "cliques": self.clique_seconds,
            "rules": self.rules_seconds,
        }

    def publish(self) -> None:
        """Emit this run's Phase II numbers into the metrics registry.

        The stats object remains the per-run record (``--stats``, JSON
        export); this bridge mirrors the same values as ``repro_phase2_*``
        metrics so the registry — what ``--metrics`` and the Prometheus
        dump read — always agrees with the stats views.  Point-in-time
        quantities (cluster/clique/edge/rule counts) land in gauges
        reflecting the latest run; cumulative work (runs, comparisons,
        degradation events, seconds) lands in counters/histograms.
        No-op while metrics are disabled.
        """
        if not obs_metrics.metrics_enabled():
            return
        obs_metrics.inc(
            "repro_phase2_runs_total", help="Phase II (rule formation) executions"
        )
        obs_metrics.set_gauge(
            "repro_phase2_clusters", self.n_clusters,
            help="Clusters found by Phase I in the latest run",
        )
        obs_metrics.set_gauge(
            "repro_phase2_frequent_clusters", self.n_frequent_clusters,
            help="Clusters meeting the frequency threshold in the latest run",
        )
        obs_metrics.set_gauge(
            "repro_phase2_cliques", self.n_cliques,
            help="Maximal cliques of the clustering graph in the latest run",
        )
        obs_metrics.set_gauge(
            "repro_phase2_edges", self.n_edges,
            help="Clustering-graph edges in the latest run",
        )
        obs_metrics.set_gauge(
            "repro_phase2_rules", self.n_rules,
            help="Rules emitted by the latest run",
        )
        obs_metrics.inc(
            "repro_phase2_comparisons_total", self.comparisons,
            help="Cluster-pair distance comparisons performed",
        )
        obs_metrics.inc(
            "repro_phase2_comparisons_skipped_total", self.comparisons_skipped,
            help="Cluster-pair comparisons pruned by the density pre-filter",
        )
        obs_metrics.observe(
            "repro_phase2_seconds", self.seconds,
            help="Phase II wall time per run", unit="seconds",
        )
        for stage, seconds in self.stage_breakdown().items():
            obs_metrics.inc(
                "repro_phase2_stage_seconds_total", seconds,
                help="Phase II wall seconds by pipeline stage",
                unit="seconds", stage=stage,
            )
        for event in self.events:
            if getattr(event, "kind", None) is not None:
                # Structured GuardEvents were already counted into
                # repro_degradation_events_total by record_guard_event.
                continue
            line = str(event)
            if "columnar" in line:
                kind = "columnar_fallback"
            elif "memory" in line:
                kind = "memory_escalation"
            elif "kernel" in line:
                kind = "kernel_fallback"
            else:
                kind = "other"
            obs_metrics.inc(
                "repro_degradation_events_total",
                help="Graceful-degradation events, by kind", kind=kind,
            )


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
        ``chunk_rows``, or ``config.birch.scan_chunk_rows`` when set),
        so only one chunk of each partition is resident at a time; with
        a memory budget configured, results are bit-identical to mining
        the materialized relation under the same budget.

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
        phase2 = Phase2Stats()
        started = time.perf_counter()
        flat_frequent = [
            cluster
            for clusters in frequent_clusters.values()
            for cluster in clusters
        ]
        phase2.n_clusters = sum(len(c) for c in all_clusters.values())
        phase2.n_frequent_clusters = len(flat_frequent)

        graph: Optional[ClusteringGraph] = None
        cliques: List[FrozenSet[int]] = []
        rules: List[DistanceRule] = []
        with span(
            "phase2", frequent_clusters=len(flat_frequent)
        ) as phase2_span:
            if len(frequent_clusters) >= 2:
                engine = self.config.phase2_engine
                if engine == "auto":
                    engine = (
                        "vector"
                        if Phase2Kernel.supports(flat_frequent)
                        else "scalar"
                    )

                # Image-moment extraction: every frequent cluster's
                # (N, LS, SS) on every partition, stacked once, reused by
                # the graph build AND the rule-formation stage below.
                stage = time.perf_counter()
                kernel: Optional[Phase2Kernel] = None
                if engine == "vector":
                    with span("phase2.extract", clusters=len(flat_frequent)):
                        try:
                            faults.fire("phase2.kernel")
                            kernel = self._make_kernel(flat_frequent)
                        except Exception as error:
                            phase2.events.append(record_guard_event(
                                "kernel_fallback",
                                f"vector Phase II kernel failed during moment "
                                f"extraction ({error}); degraded to the "
                                f"scalar engine",
                            ))
                            engine = "scalar"
                            kernel = None
                phase2.extract_seconds = time.perf_counter() - stage

                lenient = {
                    name: self.config.phase2_leniency * threshold
                    for name, threshold in density.items()
                }
                stage = time.perf_counter()
                with span("phase2.graph") as graph_span:
                    if kernel is not None:
                        try:
                            graph = kernel.build_graph(
                                lenient,
                                use_density_pruning=self.config.use_density_pruning,
                                pruning_diameter_factor=self.config.pruning_diameter_factor,
                            )
                        except Exception as error:
                            phase2.events.append(record_guard_event(
                                "kernel_fallback",
                                f"vector Phase II kernel failed during graph "
                                f"build ({error}); degraded to the scalar "
                                f"engine",
                            ))
                            engine = "scalar"
                            kernel = None
                            graph = None
                    if kernel is None:
                        graph = build_clustering_graph(
                            flat_frequent,
                            lenient,
                            metric=self.config.metric,
                            use_density_pruning=self.config.use_density_pruning,
                            pruning_diameter_factor=self.config.pruning_diameter_factor,
                            engine="scalar",
                        )
                    graph_span.set("engine", engine)
                    graph_span.set("edges", graph.n_edges)
                phase2.engine = engine
                phase2.graph_seconds = time.perf_counter() - stage

                stage = time.perf_counter()
                with span("phase2.cliques") as clique_span:
                    cliques = maximal_cliques(graph.adjacency)
                    clique_span.set("cliques", len(cliques))
                phase2.clique_seconds = time.perf_counter() - stage

                stage = time.perf_counter()
                with span("phase2.rules") as rules_span:
                    rules = self._rules_from_cliques(
                        graph, cliques, degree, targets=target_set, kernel=kernel
                    )
                    rules_span.set("rules", len(rules))
                phase2.rules_seconds = time.perf_counter() - stage

                phase2.n_edges = graph.n_edges
                phase2.comparisons = graph.stats.comparisons
                phase2.comparisons_skipped = graph.stats.skipped
            phase2.n_cliques = len(cliques)
            phase2.n_non_trivial_cliques = len(non_trivial_cliques(cliques))

            wants_counts = (
                self.config.count_rule_support
                or self.config.rule_support_fraction is not None
            )
            if wants_counts and rules:
                with span("phase2.postscan", candidates=len(rules)):
                    rules = self._count_support(
                        rules, frequent_clusters, matrices
                    )
                    if self.config.rule_support_fraction is not None:
                        # Section 6.2 post-processing: "these rules are only
                        # candidate rules ... we can rescan the data (once)
                        # and count the frequency of all candidate rules."
                        bar = math.ceil(self.config.rule_support_fraction * n)
                        rules = [
                            rule
                            for rule in rules
                            if (rule.support_count or 0) >= bar
                        ]
            phase2.n_rules = len(rules)
            phase2_span.set("rules", len(rules))
        phase2.seconds = time.perf_counter() - started
        phase2.publish()

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
    # Phase hooks — the seams the parallel engine overrides
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

        This is the "what to compute" of Phase I: one independent
        clustering task per attribute partition, executed here serially in
        ``partition_list`` order.  :class:`repro.parallel.ParallelDARMiner`
        overrides only this method (and :meth:`_make_kernel`) to fan the
        same tasks out over a worker pool — cluster uids are assigned from
        a fresh counter in ``partition_list`` order either way, so the two
        paths produce identical cluster populations.
        """
        phase1_stats: Dict[str, Phase1Stats] = {}
        all_clusters: Dict[str, List[Cluster]] = {}
        frequent_clusters: Dict[str, List[Cluster]] = {}
        uid = itertools.count()
        # Out-of-core runs scan through one re-iterable chunk iterator over
        # all partition matrices (memory-mapped views), so every
        # clusterer's pass streams the same fixed-size chunks instead of
        # touching whole columns at once.
        chunks: Optional[ChunkIterator] = None
        if self._chunk_rows is not None:
            chunks = ChunkIterator(dict(matrices), self._chunk_rows)
        for partition in partition_list:
            others = [p for p in partition_list if p.name != partition.name]
            options = replace(
                self.config.birch,
                initial_threshold=density[partition.name],
                frequency_fraction=self.config.frequency_fraction,
            )
            clusterer = BirchClusterer(partition, others, options)
            if chunks is not None:
                result = clusterer.fit_chunks(chunks)
            else:
                result = clusterer.fit_arrays(
                    matrices[partition.name],
                    {p.name: matrices[p.name] for p in others},
                )
            phase1_stats[partition.name] = result.stats
            clusters = [
                Cluster(uid=next(uid), partition=partition, acf=acf)
                for acf in result.clusters
            ]
            all_clusters[partition.name] = clusters
            frequent = [c for c in clusters if c.n >= frequency_count]
            # "If for some X_i there are no frequent clusters, we omit X_i
            # from consideration in Phase II."
            if frequent:
                frequent_clusters[partition.name] = frequent
        return phase1_stats, all_clusters, frequent_clusters

    def _make_kernel(self, flat_frequent: Sequence[Cluster]) -> Phase2Kernel:
        """Construct the vector Phase II kernel over the frequent clusters.

        The parallel miner overrides this to return a kernel whose blocked
        pairwise computation is tiled across the worker pool; everything
        downstream (graph build, assoc sets, rule degrees) reads the same
        cached matrices either way.
        """
        return Phase2Kernel(flat_frequent, metric=self.config.metric)

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

    # ------------------------------------------------------------------

    def _rules_from_cliques(
        self,
        graph: ClusteringGraph,
        cliques: Sequence[FrozenSet[int]],
        degree_thresholds: Mapping[str, float],
        targets: Optional[FrozenSet[str]] = None,
        kernel: Optional[Phase2Kernel] = None,
    ) -> List[DistanceRule]:
        """Section 6.2 rule formation, deduplicated across clique pairs.

        For every sub-clique chosen as a consequent, the antecedent
        candidates are the intersection of the consequents' ``assoc`` sets;
        any antecedent subset that is itself a clique (i.e. lies inside
        some maximal clique Q1) and is partition-disjoint from the
        consequent yields a rule.  Enumerating antecedent subsets that are
        pairwise adjacent is exactly equivalent to enumerating subsets of
        all maximal cliques Q1, without visiting the same rule once per
        containing clique.

        With ``kernel`` given, the assoc sets, candidate ranking and rule
        degrees all read the kernel's cached pairwise-distance matrices
        instead of re-deriving image CFs per pair.
        """
        metric = self.config.metric
        clusters = graph.clusters
        dist = self._distance_fn(kernel, metric)

        # assoc(C_Y) over *all* frequent clusters: antecedent candidates
        # whose image on Y's partition sits within D0 of C_Y (Section 6.2).
        # With targets set, only target-partition clusters can be
        # consequents, so only their assoc sets are ever needed.
        if kernel is not None:
            assoc = kernel.assoc_sets(degree_thresholds, targets=targets)
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
            max_y = min(self.config.max_consequent, len(ordered))
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
                    ranked = self._rank_candidates(
                        candidates, consequent, clusters, dist
                    )
                    for antecedent_uids in self._antecedent_subsets(ranked, graph):
                        antecedent = tuple(clusters[u] for u in antecedent_uids)
                        antecedent_names = [
                            c.partition.name for c in antecedent
                        ]
                        if len(set(antecedent_names)) != len(antecedent_names):
                            continue
                        key = (frozenset(antecedent_uids), frozenset(consequent_uids))
                        if key in seen:
                            continue
                        seen.add(key)
                        rules.append(
                            self._make_rule(antecedent, consequent, dist)
                        )
        rules.sort(key=lambda rule: (rule.degree, str(rule)))
        return rules

    @staticmethod
    def _distance_fn(kernel: Optional[Phase2Kernel], metric: str):
        """``dist(x_cluster, y_cluster, on) -> float`` for rule formation:
        a cached-matrix lookup under the vector engine, a per-pair
        ``image_distance`` call under the scalar one."""
        if kernel is not None:
            return lambda a, b, on: kernel.distance(a.uid, b.uid, on)
        return lambda a, b, on: image_distance(a, b, on=on, metric=metric)

    def _rank_candidates(
        self,
        candidates: Set[int],
        consequent: Tuple[Cluster, ...],
        clusters: Mapping[int, Cluster],
        dist,
    ) -> List[int]:
        """Bound the antecedent search: keep the strongest-associated
        ``max_antecedent_candidates`` clusters (smallest worst-case image
        distance to the consequent), deterministically ordered."""
        def strength(uid: int) -> float:
            x_cluster = clusters[uid]
            return max(
                dist(x_cluster, y_cluster, y_cluster.partition.name)
                for y_cluster in consequent
            )

        ranked = sorted(candidates, key=lambda uid: (strength(uid), uid))
        return ranked[: self.config.max_antecedent_candidates]

    def _antecedent_subsets(
        self, candidates: Sequence[int], graph: ClusteringGraph
    ):
        """Non-empty pairwise-adjacent subsets of ``candidates`` (bounded size).

        Size-1 subsets are always cliques; larger subsets require every
        pair to share a graph edge, which is the Dfn 5.2/5.3 condition
        that co-antecedent clusters occur together.
        """
        max_size = min(self.config.max_antecedent, len(candidates))
        for size in range(1, max_size + 1):
            for subset in itertools.combinations(candidates, size):
                if size == 1 or all(
                    graph.has_edge(a, b)
                    for a, b in itertools.combinations(subset, 2)
                ):
                    yield subset

    @staticmethod
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

    # ------------------------------------------------------------------

    def _count_support(
        self,
        rules: List[DistanceRule],
        frequent_clusters: Mapping[str, List[Cluster]],
        matrices: Mapping[str, np.ndarray],
    ) -> List[DistanceRule]:
        """One post-scan: classical support of every candidate rule.

        Tuples are labeled per partition by closest frequent-cluster
        centroid (§4.3.2); a tuple supports a rule when its label matches
        the rule's cluster in every partition the rule mentions.
        """
        masks: Dict[int, np.ndarray] = {}
        for name, clusters in frequent_clusters.items():
            centroids = np.stack([cluster.centroid for cluster in clusters])
            labels = assign_to_centroids(matrices[name], centroids)
            for index, cluster in enumerate(clusters):
                masks[cluster.uid] = labels == index

        counted: List[DistanceRule] = []
        for rule in rules:
            mask: Optional[np.ndarray] = None
            for cluster in rule.antecedent + rule.consequent:
                cluster_mask = masks[cluster.uid]
                mask = cluster_mask if mask is None else (mask & cluster_mask)
            support = int(np.count_nonzero(mask)) if mask is not None else 0
            counted.append(
                DistanceRule(
                    antecedent=rule.antecedent,
                    consequent=rule.consequent,
                    degree=rule.degree,
                    degrees=rule.degrees,
                    support_count=support,
                )
            )
        return counted
