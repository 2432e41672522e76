"""Phase II fast paths against their baselines.

**Graph build, on the Figure 6 workload.**

Phase I (batch path, PR 1) leaves one ACF-tree per partition; its leaf
entries — wrapped as :class:`~repro.core.cluster.Cluster` — are exactly
the population Phase II runs over.  This benchmark times the Dfn 6.1
clustering-graph construction twice over that population: the per-pair
oracle loop (``tests/core/graph_oracle.py``) and the blocked numpy kernel
(extraction included), checks decision-equivalence (identical edge sets,
identical ``GraphStats`` accounting) and gates a ``MIN_SPEEDUP``
throughput ratio, mirroring the Phase I batch-ingestion gate.  The
``assoc``-set stage of rule formation is measured the same way
(reported, not gated).

**Rule formation, on a dense graph.**  The 30-attribute run (every
attribute of the WBCD surrogate its own partition, 20K tuples, 3 %
frequency, ``max_antecedent=2``, ``max_consequent=1``) at
``density_fraction`` 0.25 gives a graph of about 500 non-trivial cliques.
There the rules stage forms each consequent once, as array work, and the
reference is the clique-pair loop it replaced
(``tests/core/rules_oracle.py``).  Both must give the same rule list,
and the ``MIN_RULES_SPEEDUP`` gate holds the speedup.
"""

import itertools
import time

from repro.birch.features import CF
from repro.birch.tree import ACFTree
from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.core.phase2 import _form_rules
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import AttributePartition
from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like
from repro.report.tables import Table

from conftest import bench_scale
from tests.core.graph_oracle import reference_graph
from tests.core.rules_oracle import reference_rules

N_ATTRIBUTES = 4
# Tighter than the miner's 0.15 default: finer summaries mean more
# frequent clusters, the regime where Phase II dominates (the point of
# the vectorized kernel).
DENSITY_FRACTION = 0.05
PHASE2_LENIENCY = 2.0
DEGREE_FACTOR = 2.0
MIN_SPEEDUP = 3.0
DENSE_FRACTION = 0.25
MIN_RULES_SPEEDUP = 10.0


def build_population():
    """Phase I over the fig6 workload → flat frequent-cluster population."""
    size = int(round(20_000 * bench_scale()))
    base = make_wbcd_like(seed=42)
    names = list(base.schema.names[:N_ATTRIBUTES])
    relation = make_scaled_wbcd(size, outlier_fraction=0.05, seed=42, base=base)
    matrices = {name: relation.matrix((name,)) for name in names}

    thresholds = {}
    clusters = []
    uid = itertools.count()
    for name in names:
        column = matrices[name]
        d0 = DENSITY_FRACTION * CF.of_points(column).rms_diameter
        thresholds[name] = PHASE2_LENIENCY * d0
        tree = ACFTree(
            dimension=column.shape[1],
            threshold=d0,
            branching=8,
            leaf_capacity=8,
            cross_dimensions={
                other: matrices[other].shape[1] for other in names if other != name
            },
        )
        tree.insert_points(
            column, {other: matrices[other] for other in names if other != name}
        )
        partition = AttributePartition(name, (name,))
        for acf in tree.entries():
            clusters.append(Cluster(uid=next(uid), partition=partition, acf=acf))
    return names, clusters, thresholds


def oracle_assoc(clusters, degree_thresholds):
    assoc = {}
    for y in clusters:
        y_name = y.partition.name
        threshold = degree_thresholds[y_name]
        assoc[y.uid] = {
            x.uid
            for x in clusters
            if x.partition.name != y_name
            and image_distance(x, y, on=y_name, metric="d2") <= threshold
        }
    return assoc


def run_comparison():
    names, clusters, thresholds = build_population()
    degree = {name: DEGREE_FACTOR * value for name, value in thresholds.items()}
    run = {"names": names, "clusters": clusters}

    # Gated configuration: density pruning off, so both builders evaluate
    # every cross-partition pair and the comparison measures the distance
    # kernel itself.  With pruning on, the §6.2 diameter check discards
    # most pairs before any distance is computed, so that row (reported
    # below) measures the mask machinery instead.
    for label, pruning in (("graph", False), ("graph+prune", True)):
        started = time.perf_counter()
        run[f"{label}:oracle"] = reference_graph(
            clusters, thresholds, use_density_pruning=pruning
        )
        run[f"{label}:oracle_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        kernel = Phase2Kernel(clusters, metric="d2")
        run[f"{label}:kernel"] = kernel.build_graph(
            thresholds, use_density_pruning=pruning
        )
        run[f"{label}:kernel_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    run["assoc:oracle"] = oracle_assoc(clusters, degree)
    run["assoc:oracle_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    masks = kernel.assoc_sets(degree)
    run["assoc:kernel_seconds"] = time.perf_counter() - started
    run["assoc:kernel"] = {
        uid: set(kernel.uids[mask].tolist()) for uid, mask in masks.items()
    }

    run.update(time_dense_rules())
    return run


def time_dense_rules():
    """The rules stage of the 30-attribute run at ``DENSE_FRACTION``:
    the reference loop, then the per-consequent expansion, over one warm
    kernel."""
    base = make_wbcd_like(seed=42)
    relation = make_scaled_wbcd(
        int(round(20_000 * bench_scale())), outlier_fraction=0.05, seed=42, base=base
    )
    config = DARConfig(
        frequency_fraction=0.03,
        density_fraction=DENSE_FRACTION,
        max_antecedent=2,
        max_consequent=1,
    )
    result = DARMiner(config).mine(
        relation, [AttributePartition(name, (name,)) for name in base.schema.names]
    )
    flat = [c for group in result.frequent_clusters.values() for c in group]
    kernel = Phase2Kernel(flat, metric=config.metric)
    for name in kernel.partition_names:
        kernel.pairwise_on(name)
    run = {"rules:graph": result.graph, "rules:cliques": result.cliques}

    started = time.perf_counter()
    run["rules:reference"] = reference_rules(
        config, result.graph, result.cliques, result.degree_thresholds,
        kernel=kernel,
    )
    run["rules:reference_seconds"] = time.perf_counter() - started

    started = time.perf_counter()
    run["rules:array"] = _form_rules(
        config, result.graph, result.degree_thresholds, kernel=kernel
    )
    run["rules:array_seconds"] = time.perf_counter() - started
    return run


def listing(rules):
    return [
        (str(rule), repr(rule.degree), repr(list(rule.degrees.items())))
        for rule in rules
    ]


def edge_set(graph):
    return {
        frozenset((a, b))
        for a, neighbors in graph.adjacency.items()
        for b in neighbors
    }


def test_perf_phase2_graph(benchmark, emit):
    run = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    k = len(run["clusters"])

    table = Table(
        "Phase II fast paths vs baselines "
        f"(graph/assoc: fig6 workload, {N_ATTRIBUTES} partitions, {k} clusters, "
        "per-pair oracle vs kernel; rules: 30 attributes, "
        f"density_fraction {DENSE_FRACTION}, reference loop vs per-consequent "
        "arrays)",
        ["stage", "baseline s", "fast s", "speedup", "edges", "comparisons",
         "pruned", "cliques", "rules"],
    )
    for label in ("graph", "graph+prune"):
        graph = run[f"{label}:kernel"]
        table.add_row(
            label,
            run[f"{label}:oracle_seconds"],
            run[f"{label}:kernel_seconds"],
            run[f"{label}:oracle_seconds"] / run[f"{label}:kernel_seconds"],
            graph.n_edges,
            graph.stats.comparisons,
            graph.stats.skipped,
            "", "",
        )
    table.add_row(
        "assoc",
        run["assoc:oracle_seconds"],
        run["assoc:kernel_seconds"],
        run["assoc:oracle_seconds"] / run["assoc:kernel_seconds"],
        "", "", "", "", "",
    )
    rules_speedup = run["rules:reference_seconds"] / run["rules:array_seconds"]
    table.add_row(
        "rules (dense)",
        run["rules:reference_seconds"],
        run["rules:array_seconds"],
        rules_speedup,
        run["rules:graph"].n_edges,
        "", "",
        sum(1 for clique in run["rules:cliques"] if len(clique) >= 2),
        len(run["rules:array"]),
    )
    emit(table, "perf_phase2_graph.txt")

    # Decision-equivalence: identical edges and identical accounting.
    for label in ("graph", "graph+prune"):
        oracle_graph = run[f"{label}:oracle"]
        kernel_graph = run[f"{label}:kernel"]
        assert edge_set(oracle_graph) == edge_set(kernel_graph)
        assert oracle_graph.n_edges == kernel_graph.n_edges
        assert oracle_graph.stats.comparisons == kernel_graph.stats.comparisons
        assert oracle_graph.stats.skipped == kernel_graph.stats.skipped
        assert oracle_graph.stats.edges == kernel_graph.stats.edges
    assert run["assoc:oracle"] == run["assoc:kernel"]

    assert listing(run["rules:array"]) == listing(run["rules:reference"])
    assert rules_speedup >= MIN_RULES_SPEEDUP, (
        f"per-consequent rule formation only {rules_speedup:.2f}x faster than "
        f"the reference loop (required {MIN_RULES_SPEEDUP}x)"
    )

    speedup = run["graph:oracle_seconds"] / run["graph:kernel_seconds"]
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized graph build only {speedup:.2f}x faster than the per-pair oracle "
        f"(required {MIN_SPEEDUP}x)"
    )
