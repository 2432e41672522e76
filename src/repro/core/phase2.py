"""Phase II on summaries alone (Section 6): the one stage sequence.

Phase II never rescans the data (Thm 6.1).  Given the frequent clusters,
their density thresholds and the degree thresholds, it builds the
clustering graph (Dfn 6.1), enumerates its maximal cliques, computes the
``assoc`` sets and emits every Dfn 5.3-valid rule within the configured
arity bounds.  Where those clusters came from does not matter — a batch
Phase I scan, a live stream's trees, or the mixed nominal/interval
populations of Section 8 — so :func:`run_phase2` is the only place the
sequence is written, and it always runs in process on one
:class:`~repro.core.phase2_kernel.Phase2Kernel`.  Callers supply only what
differs: a per-partition leniency override (nominal thresholds are
already fractions), and a ``postprocess`` step timed as the
``phase2.postscan`` stage (the mixed miner's taxonomy-level filter, and
in both data-holding miners the support :func:`postscan`).
"""

from __future__ import annotations

import math
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
)

import numpy as np

from repro.core.cliques import maximal_cliques, non_trivial_cliques
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph
from repro.core.phase2_kernel import Phase2Kernel
from repro.core.rules import DistanceRule
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.events import GuardEvent

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

    ``events`` records graceful degradations in order (e.g. a guarded
    retry after memory exhaustion); an empty list means the run was
    clean.  The ``*_seconds`` fields break ``seconds`` down by stage:
    image-summary extraction, clustering-graph build, maximal-clique
    enumeration, rule emission (assoc sets, antecedent search, degree
    computation) and the caller's post-scan step.  Each is the duration of
    its ``phase2.*`` span, and ``seconds`` that of the ``phase2`` span.
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
    extract_seconds: float = 0.0
    graph_seconds: float = 0.0
    clique_seconds: float = 0.0
    rules_seconds: float = 0.0
    postscan_seconds: float = 0.0
    events: List[GuardEvent] = field(default_factory=list)

    def stage_breakdown(self) -> Dict[str, float]:
        """Stage-name → seconds, in pipeline order (for reports/CLI)."""
        return {
            "extract": self.extract_seconds,
            "graph": self.graph_seconds,
            "cliques": self.clique_seconds,
            "rules": self.rules_seconds,
            "postscan": self.postscan_seconds,
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
    postprocess: Optional[RuleStep] = None,
    span_attributes: Optional[Mapping[str, Any]] = None,
) -> Phase2Output:
    """Run Phase II over the frequent clusters of each partition.

    Graph edges use ``leniency[name] x d0`` per partition, with
    ``config.phase2_leniency`` for every partition ``leniency`` does not
    name (Section 6.2: a more lenient Phase II threshold gives better
    rules).  One :class:`Phase2Kernel` over the frequent clusters holds
    the distances every stage reads; a failure there, or in any later
    stage, propagates to the caller.  Rules are
    formed only over ``targets`` consequents when given, then passed
    through ``postprocess`` (in a ``phase2.postscan`` span, so its time is
    Phase II time).  The stats are published to the metrics registry
    before returning.  Fewer than two partitions with frequent clusters
    means no graph, no cliques and no rules.
    """
    stats = Phase2Stats()
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
            # Image-summary extraction: every frequent cluster's image on
            # every partition, stacked once, reused by the graph build AND
            # the rule-formation stage below.
            with span("phase2.extract", clusters=len(flat)) as extract_span:
                faults.fire("phase2.kernel")
                kernel = Phase2Kernel(flat, metric=config.metric)
            stats.extract_seconds = extract_span.seconds

            overrides = leniency or {}
            lenient = {
                name: overrides.get(name, config.phase2_leniency) * threshold
                for name, threshold in density_thresholds.items()
            }
            with span("phase2.graph") as graph_span:
                graph = kernel.build_graph(
                    lenient,
                    use_density_pruning=config.use_density_pruning,
                    pruning_diameter_factor=config.pruning_diameter_factor,
                )
                graph_span.set("edges", graph.n_edges)
            stats.graph_seconds = graph_span.seconds

            with span("phase2.cliques") as clique_span:
                cliques = maximal_cliques(graph.adjacency)
                clique_span.set("cliques", len(cliques))
            stats.clique_seconds = clique_span.seconds

            with span("phase2.rules") as rules_span:
                rules = _form_rules(
                    config, graph, degree_thresholds, kernel, targets=targets
                )
                rules_span.set("rules", len(rules))
            stats.rules_seconds = rules_span.seconds

            stats.n_edges = graph.n_edges
            stats.comparisons = graph.stats.comparisons
            stats.comparisons_skipped = graph.stats.skipped
        stats.n_cliques = len(cliques)
        stats.n_non_trivial_cliques = len(non_trivial_cliques(cliques))
        if postprocess is not None:
            with span("phase2.postscan", candidates=len(rules)) as postscan_span:
                rules = postprocess(rules)
            stats.postscan_seconds = postscan_span.seconds
        stats.n_rules = len(rules)
        phase2_span.set("rules", len(rules))
    stats.seconds = phase2_span.seconds
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
    rules = count_support(rules, masks())
    if fraction is not None:
        bar = math.ceil(fraction * n)
        rules = [rule for rule in rules if (rule.support_count or 0) >= bar]
    return rules


# ----------------------------------------------------------------------
# Rule formation (§6.2)
# ----------------------------------------------------------------------


#: Bound on a batch of consequents expanded together, in
#: (consequent x cluster) entries of its strength matrix.
_BATCH_ENTRIES = 1 << 20


def _form_rules(
    config: DARConfig,
    graph: ClusteringGraph,
    degree_thresholds: Mapping[str, float],
    kernel: Phase2Kernel,
    targets: Optional[FrozenSet[str]] = None,
) -> List[DistanceRule]:
    """Section 6.2 rule formation, one array expansion per consequent.

    The consequents are the graph's cliques of at most ``max_consequent``
    target clusters, which are exactly the consequent sub-cliques of the
    maximal cliques.  Consequents of one size are expanded together:
    candidates are the AND of their ``assoc`` rows, ranked by strength
    (the largest distance to a consequent cluster, ties by uid) and cut
    to ``max_antecedent_candidates``; antecedents are the ranked
    candidates' pairwise-adjacent subsets; degrees are maxima over the
    (candidate x consequent) distance block, and by the dominance lemma
    a subset's degree is its last member's strength (ALGORITHMS §4).
    Distances and ``assoc`` rows are read from ``kernel``, which must
    cover every cluster of ``graph``.
    """
    uids = sorted(graph.clusters)
    clusters = [graph.clusters[uid] for uid in uids]
    labels = [str(cluster) for cluster in clusters]
    index = {uid: i for i, uid in enumerate(uids)}
    names = [cluster.partition.name for cluster in clusters]
    adjacency = np.zeros((len(uids), len(uids)), dtype=bool)
    for uid, neighbors in graph.adjacency.items():
        adjacency[index[uid], [index[v] for v in neighbors]] = True
    heads = np.array(
        [i for i, name in enumerate(names) if targets is None or name in targets],
        dtype=np.int64,
    )

    # distance[h, x] = D(C_x[Y], C_Y[Y]) for the h-th possible consequent
    # cluster C_Y over partition Y; assoc[h] is assoc(C_Y), which never
    # holds a cluster over Y.
    distance = np.full((heads.size, len(uids)), np.inf)
    assoc = np.zeros((heads.size, len(uids)), dtype=bool)
    rows = kernel.assoc_sets(degree_thresholds, targets=targets)
    for h, i in enumerate(heads.tolist()):
        distance[h] = kernel.pairwise_on(names[i])[:, i]
        assoc[h] = rows[uids[i]]

    rules: List[DistanceRule] = []
    step = max(1, _BATCH_ENTRIES // max(1, len(uids)))
    for cliques in _cliques_by_size(
        adjacency[np.ix_(heads, heads)][None],
        np.ones((1, heads.size), dtype=bool),
        config.max_consequent,
    ):
        for start in range(0, len(cliques), step):
            ys = cliques[start:start + step, 1:]  # rows of distance/assoc
            candidate = assoc[ys].all(axis=1)
            strength = np.where(candidate, distance[ys].max(axis=1), np.inf)
            width = min(
                config.max_antecedent_candidates,
                int(candidate.sum(axis=1).max(initial=0)),
            )
            ranked = np.argsort(strength, axis=1, kind="stable")[:, :width]
            valid = np.take_along_axis(candidate, ranked, axis=1)
            strength = _at_least_zero(np.take_along_axis(strength, ranked, axis=1))
            # block[c, p, j]: distance of c's p-th candidate to its j-th cluster
            block = distance[ys[:, None, :], ranked[:, :, None]]
            linked = adjacency[ranked[:, :, None], ranked[:, None, :]]

            consequents = [
                tuple(map(clusters.__getitem__, row)) for row in heads[ys].tolist()
            ]
            rhs = [" & ".join(map(str, consequent)) for consequent in consequents]
            keys = [[c.uid for c in consequent] for consequent in consequents]
            for subsets in _cliques_by_size(
                linked & valid[:, None, :], valid, config.max_antecedent
            ):
                owner, chosen = subsets[:, 0], subsets[:, 1:]
                degree = strength[owner, chosen[:, -1]]
                degrees = (
                    degree[:, None]
                    if ys.shape[1] == 1
                    else _at_least_zero(block[owner[:, None], chosen].max(axis=1))
                )
                for c, row, worst, per in zip(
                    owner.tolist(), ranked[owner[:, None], chosen].tolist(),
                    degree.tolist(), degrees.tolist(),
                ):
                    rules.append(DistanceRule.formed(
                        tuple(map(clusters.__getitem__, row)), consequents[c],
                        worst, dict(zip(keys[c], per)),
                        " & ".join(map(labels.__getitem__, row)), rhs[c],
                    ))
    rules.sort(key=lambda rule: (rule.degree, str(rule)))
    return rules


def _at_least_zero(values: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` as Python computes it: ``-0.0`` becomes ``0.0``."""
    return np.where(values > 0.0, values, 0.0)


def _cliques_by_size(
    adjacency: np.ndarray, vertices: np.ndarray, max_size: int
) -> List[np.ndarray]:
    """Every clique of at most ``max_size`` vertices in a stack of graphs.

    ``adjacency`` is a ``(graphs, n, n)`` boolean stack with no edge into
    a vertex that ``vertices`` (``(graphs, n)``) leaves out.  One array
    per size, each row ``[graph, v1 < v2 < ...]``: cliques of one size
    extend those of the size below by a later vertex adjacent to all.
    """
    later = np.triu(np.ones(adjacency.shape[1:], dtype=bool), 1)
    found = [np.argwhere(vertices)]
    while len(found) < max_size and found[-1].size:
        cliques = found[-1]
        common = later[cliques[:, -1]]
        for column in cliques[:, 1:].T:
            common &= adjacency[cliques[:, 0], column]
        rows, extra = np.nonzero(common)
        found.append(np.column_stack([cliques[rows], extra]))
    return found
