"""Phase II on summaries alone (Section 6): the one stage sequence.

Phase II never rescans the data (Thm 6.1).  Given the frequent clusters,
their density thresholds and the degree thresholds, it builds the
clustering graph (Dfn 6.1), enumerates its maximal cliques, computes the
``assoc`` sets and emits every Dfn 5.3-valid rule within the configured
arity bounds.  Where those clusters came from does not matter — a batch
Phase I scan, a live stream's trees, or the mixed nominal/interval
populations of Section 8 — so :func:`run_phase2` is the only place the
sequence is written.  Callers supply only what differs: the kernel
factory (the parallel miner tiles the pairwise blocks over its pool), a
per-partition leniency override (nominal thresholds are already
fractions), and a ``postprocess`` step that runs inside the ``phase2``
span (the mixed miner's taxonomy-level filter, and in both data-holding
miners the support :func:`postscan`).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.cliques import maximal_cliques, non_trivial_cliques
from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph, build_clustering_graph
from repro.core.phase2_kernel import Phase2Kernel
from repro.core.rules import DistanceRule
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.events import GuardEvent, record_guard_event

__all__ = [
    "Phase2Output",
    "Phase2Stats",
    "count_support",
    "postscan",
    "run_phase2",
]


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
        seconds) lands in counters/histograms.  Degradation events are
        not counted here: :func:`~repro.resilience.events.record_guard_event`
        counted each one when it happened.  No-op while metrics are
        disabled.
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


class Phase2Output(NamedTuple):
    """What :func:`run_phase2` produced: graph, cliques, rules and stats."""

    graph: Optional[ClusteringGraph]
    cliques: List[FrozenSet[int]]
    rules: List[DistanceRule]
    stats: Phase2Stats


KernelFactory = Callable[[Sequence[Cluster]], Phase2Kernel]
RuleStep = Callable[[List[DistanceRule]], List[DistanceRule]]


def run_phase2(
    config: DARConfig,
    frequent_clusters: Mapping[str, Sequence[Cluster]],
    density_thresholds: Mapping[str, float],
    degree_thresholds: Mapping[str, float],
    *,
    n_clusters: int,
    targets: Optional[FrozenSet[str]] = None,
    leniency: Optional[Mapping[str, float]] = None,
    kernel_factory: Optional[KernelFactory] = None,
    postprocess: Optional[RuleStep] = None,
    span_attributes: Optional[Mapping[str, Any]] = None,
) -> Phase2Output:
    """Run Phase II over the frequent clusters of each partition.

    Graph edges use ``leniency[name] x d0`` per partition, with
    ``config.phase2_leniency`` for every partition ``leniency`` does not
    name (Section 6.2: a more lenient Phase II threshold gives better
    rules).  The engine comes from ``config.phase2_engine``; ``"auto"``
    picks the vector kernel whenever :meth:`Phase2Kernel.supports` the
    population.  ``kernel_factory`` builds that kernel (default: a serial
    :class:`Phase2Kernel`); if it or the kernel's graph build fails, the
    failure is recorded as a ``kernel_fallback`` guard event and the run
    continues on the scalar engine with identical decisions.  Rules are
    formed only over ``targets`` consequents when given, then passed
    through ``postprocess`` (inside the ``phase2`` span, so its time is
    Phase II time).  The stats are published to the metrics registry
    before returning.  Fewer than two partitions with frequent clusters
    means no graph, no cliques and no rules.
    """
    stats = Phase2Stats()
    started = time.perf_counter()
    flat = [cluster for group in frequent_clusters.values() for cluster in group]
    stats.n_clusters = n_clusters
    stats.n_frequent_clusters = len(flat)

    graph: Optional[ClusteringGraph] = None
    cliques: List[FrozenSet[int]] = []
    rules: List[DistanceRule] = []
    with span(
        "phase2", frequent_clusters=len(flat), **dict(span_attributes or {})
    ) as phase2_span:
        if len(frequent_clusters) >= 2:
            engine = config.phase2_engine
            if engine == "auto":
                engine = "vector" if Phase2Kernel.supports(flat) else "scalar"

            # Image-moment extraction: every frequent cluster's (N, LS, SS)
            # on every partition, stacked once, reused by the graph build
            # AND the rule-formation stage below.
            stage = time.perf_counter()
            kernel: Optional[Phase2Kernel] = None
            with span("phase2.extract", clusters=len(flat)):
                if engine == "vector":
                    try:
                        faults.fire("phase2.kernel")
                        if kernel_factory is None:
                            kernel = Phase2Kernel(flat, metric=config.metric)
                        else:
                            kernel = kernel_factory(flat)
                    except Exception as error:
                        stats.events.append(record_guard_event(
                            "kernel_fallback",
                            f"vector Phase II kernel failed during moment "
                            f"extraction ({error}); degraded to the "
                            f"scalar engine",
                        ))
                        engine = "scalar"
            stats.extract_seconds = time.perf_counter() - stage

            overrides = leniency or {}
            lenient = {
                name: overrides.get(name, config.phase2_leniency) * threshold
                for name, threshold in density_thresholds.items()
            }
            stage = time.perf_counter()
            with span("phase2.graph") as graph_span:
                if kernel is not None:
                    try:
                        graph = kernel.build_graph(
                            lenient,
                            use_density_pruning=config.use_density_pruning,
                            pruning_diameter_factor=config.pruning_diameter_factor,
                        )
                    except Exception as error:
                        stats.events.append(record_guard_event(
                            "kernel_fallback",
                            f"vector Phase II kernel failed during graph "
                            f"build ({error}); degraded to the scalar "
                            f"engine",
                        ))
                        engine = "scalar"
                        kernel = None
                if kernel is None:
                    graph = build_clustering_graph(
                        flat,
                        lenient,
                        metric=config.metric,
                        use_density_pruning=config.use_density_pruning,
                        pruning_diameter_factor=config.pruning_diameter_factor,
                        engine="scalar",
                    )
                graph_span.set("engine", engine)
                graph_span.set("edges", graph.n_edges)
            stats.engine = engine
            stats.graph_seconds = time.perf_counter() - stage

            stage = time.perf_counter()
            with span("phase2.cliques") as clique_span:
                cliques = maximal_cliques(graph.adjacency)
                clique_span.set("cliques", len(cliques))
            stats.clique_seconds = time.perf_counter() - stage

            stage = time.perf_counter()
            with span("phase2.rules") as rules_span:
                rules = _rules_from_cliques(
                    config, graph, cliques, degree_thresholds,
                    targets=targets, kernel=kernel,
                )
                rules_span.set("rules", len(rules))
            stats.rules_seconds = time.perf_counter() - stage

            stats.n_edges = graph.n_edges
            stats.comparisons = graph.stats.comparisons
            stats.comparisons_skipped = graph.stats.skipped
        stats.n_cliques = len(cliques)
        stats.n_non_trivial_cliques = len(non_trivial_cliques(cliques))
        if postprocess is not None:
            rules = postprocess(rules)
        stats.n_rules = len(rules)
        phase2_span.set("rules", len(rules))
    stats.seconds = time.perf_counter() - started
    stats.publish()
    return Phase2Output(graph, cliques, rules, stats)


def count_support(
    rules: Sequence[DistanceRule], masks: Mapping[int, np.ndarray]
) -> List[DistanceRule]:
    """Every rule with its classical support from per-cluster tuple masks.

    ``masks`` maps a cluster uid to the boolean mask of the tuples it
    labels; a tuple supports a rule when every cluster of the rule labels
    it.  A rule with a cluster that has no mask keeps
    ``support_count=None`` (its support is unknown, not zero).
    """
    counted: List[DistanceRule] = []
    for rule in rules:
        joint: Optional[np.ndarray] = None
        for cluster in rule.antecedent + rule.consequent:
            mask = masks.get(cluster.uid)
            if mask is None:
                joint = None
                break
            joint = mask if joint is None else (joint & mask)
        counted.append(
            DistanceRule(
                antecedent=rule.antecedent,
                consequent=rule.consequent,
                degree=rule.degree,
                degrees=rule.degrees,
                support_count=(
                    int(np.count_nonzero(joint)) if joint is not None else None
                ),
            )
        )
    return counted


def postscan(
    config: DARConfig,
    rules: List[DistanceRule],
    masks: Callable[[], Mapping[int, np.ndarray]],
    n: int,
) -> List[DistanceRule]:
    """The one post-scan: classical support of every candidate rule.

    Runs when ``config.count_rule_support`` or
    ``config.rule_support_fraction`` is set, and only then calls
    ``masks`` for the per-cluster tuple masks :func:`count_support`
    reads.  With ``rule_support_fraction`` set, rules supported by fewer
    than ``ceil(fraction * n)`` of the ``n`` tuples are dropped (Section
    6.2 post-processing: "these rules are only candidate rules ... we can
    rescan the data (once) and count the frequency of all candidate
    rules").
    """
    fraction = config.rule_support_fraction
    if not rules or not (config.count_rule_support or fraction is not None):
        return rules
    with span("phase2.postscan", candidates=len(rules)):
        rules = count_support(rules, masks())
        if fraction is not None:
            bar = math.ceil(fraction * n)
            rules = [rule for rule in rules if (rule.support_count or 0) >= bar]
    return rules


# ----------------------------------------------------------------------
# Rule formation (§6.2)
# ----------------------------------------------------------------------


def _rules_from_cliques(
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
    clusters = graph.clusters
    dist = _distance_fn(kernel, config.metric)

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
    """``dist(x_cluster, y_cluster, on) -> float`` for rule formation:
    a cached-matrix lookup under the vector engine, a per-pair
    ``image_distance`` call under the scalar one."""
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
    """Bound the antecedent search: keep the ``limit`` strongest-associated
    clusters (smallest worst-case image distance to the consequent),
    deterministically ordered."""
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
    """Non-empty pairwise-adjacent subsets of ``candidates`` (bounded size).

    Size-1 subsets are always cliques; larger subsets require every
    pair to share a graph edge, which is the Dfn 5.2/5.3 condition
    that co-antecedent clusters occur together.
    """
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
