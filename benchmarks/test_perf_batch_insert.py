"""Batch vs per-point Phase I ingestion on the Figure 6 workload.

Verifies the :meth:`ACFTree.insert_points` contract end to end on the
paper's scaled-WBCD scan: the batch path must produce the *same* leaf
entries as the sequential per-point oracle
(:func:`tests.birch.reference_scan.insert_point`; the multiset of
(n, LS, SS) summaries, within 1e-9) while ingesting at least
``MIN_SPEEDUP`` times faster.  The
measured ratio on an idle machine is ~8-10x; the bar leaves room for
shared-runner noise.

A second table times the 1-D scan's verified bulk windows against the
per-point loop alone (:class:`tests.birch.reference_scan.ReferenceTree`)
on failure-dense shapes — split storms where windows verify little and
the scan must back off — and requires byte-identical trees and no more
than ``MAX_STORM_SLOWDOWN`` times the loop's time.  Run from the
repository root (``python -m pytest benchmarks/test_perf_batch_insert.py``)
so ``tests`` is importable.
"""

import gc
import pickle
import statistics
import time

import numpy as np

from repro.birch.features import CF
from repro.birch.tree import ACFTree
from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like
from repro.report.tables import Table

from conftest import bench_scale
from tests.birch.reference_scan import ReferenceTree, insert_point

N_ATTRIBUTES = 4
DENSITY_FRACTION = 0.15  # the miner's default d0 derivation
MIN_SPEEDUP = 3.0
MAX_STORM_SLOWDOWN = 1.25
STORM_ROUNDS = 5


def build_workload():
    size = int(round(20_000 * bench_scale()))
    base = make_wbcd_like(seed=42)
    names = list(base.schema.names[:N_ATTRIBUTES])
    relation = make_scaled_wbcd(size, outlier_fraction=0.05, seed=42, base=base)
    matrices = {name: relation.matrix((name,)) for name in names}
    return names, matrices


def fresh_tree(name, names, matrices):
    column = matrices[name]
    threshold = DENSITY_FRACTION * CF.of_points(column).rms_diameter
    return ACFTree(
        dimension=column.shape[1],
        threshold=threshold,
        branching=8,
        leaf_capacity=8,
        cross_dimensions={
            other: matrices[other].shape[1] for other in names if other != name
        },
    )


def entry_key(entry):
    return (entry.cf.n, tuple(entry.cf.ls), tuple(entry.cf.ss))


def run_comparison():
    names, matrices = build_workload()
    rows = []
    for name in names:
        points = matrices[name]
        cross = {other: matrices[other] for other in names if other != name}
        cross_names = list(cross)

        seq_tree = fresh_tree(name, names, matrices)
        started = time.perf_counter()
        for i in range(points.shape[0]):
            insert_point(
                seq_tree, points[i], {other: cross[other][i] for other in cross_names}
            )
        seq_seconds = time.perf_counter() - started

        bat_tree = fresh_tree(name, names, matrices)
        started = time.perf_counter()
        stats = bat_tree.insert_points(points, cross)
        bat_seconds = time.perf_counter() - started

        rows.append((name, seq_tree, bat_tree, seq_seconds, bat_seconds, stats))
    return rows


def test_perf_batch_insert(benchmark, emit):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    table = Table(
        "Batch vs per-point Phase I ingestion "
        f"(fig6 workload, {N_ATTRIBUTES} partitions)",
        ["partition", "per-point s", "batch s", "speedup", "entries",
         "absorb %", "points/s"],
    )
    total_seq = total_bat = 0.0
    for name, seq_tree, bat_tree, seq_seconds, bat_seconds, stats in rows:
        total_seq += seq_seconds
        total_bat += bat_seconds
        table.add_row(
            name,
            seq_seconds,
            bat_seconds,
            seq_seconds / bat_seconds,
            bat_tree.entry_count(),
            100.0 * stats.absorb_rate,
            stats.points_per_second,
        )
    table.add_row(
        "TOTAL", total_seq, total_bat, total_seq / total_bat, "", "", ""
    )
    emit(table, "perf_batch_insert.txt")

    # Equivalence: identical leaf-entry multiset, (n, LS, SS) within 1e-9.
    for name, seq_tree, bat_tree, _, _, stats in rows:
        assert bat_tree.n_points == seq_tree.n_points
        assert bat_tree.entry_count() == seq_tree.entry_count(), name
        want = sorted(seq_tree.entries(), key=entry_key)
        got = sorted(bat_tree.entries(), key=entry_key)
        for a, b in zip(want, got):
            assert a.cf.n == b.cf.n
            assert abs(a.cf.ls - b.cf.ls).max() <= 1e-9
            assert abs(a.cf.ss - b.cf.ss).max() <= 1e-9
        # The instrumentation must describe the scan it timed.
        assert stats.points == seq_tree.n_points
        assert stats.absorbed + stats.new_entries == stats.points

    speedup = total_seq / total_bat
    assert speedup >= MIN_SPEEDUP, (
        f"batch ingestion only {speedup:.2f}x faster than per-point "
        f"(required {MIN_SPEEDUP}x)"
    )


def storm_shapes():
    """Failure-dense 1-D scans: ``(name, points, threshold, branching, leaf_capacity)``."""
    size = int(round(20_000 * bench_scale()))
    rng = np.random.default_rng(5)
    return [
        ("threshold 0, integers x50", np.round(rng.normal(size=(size, 1)) * 50),
         0.0, 3, 3),
        ("threshold 1, integers x20", np.round(rng.normal(size=(size, 1)) * 20),
         1.0, 3, 3),
        ("threshold 0, integers x50, leaf capacity 8",
         np.round(rng.normal(size=(size, 1)) * 50), 0.0, 8, 8),
    ]


def time_scan(tree_class, points, threshold, branching, leaf_capacity):
    tree = tree_class(1, threshold, branching, leaf_capacity, {"y": 2})
    cross = {"y": np.zeros((points.shape[0], 2))}
    gc.collect()  # the other engine's garbage is not this run's cost
    started = time.perf_counter()
    stats = tree.insert_points(points, cross)
    return time.perf_counter() - started, tree, stats


def run_storms():
    rows = []
    for name, points, threshold, branching, leaf_capacity in storm_shapes():
        seconds = {ReferenceTree: [], ACFTree: []}
        trees = {}
        for round_ in range(STORM_ROUNDS):
            # Alternate which engine runs first, so drift hits both alike.
            order = (ReferenceTree, ACFTree) if round_ % 2 else (ACFTree, ReferenceTree)
            for tree_class in order:
                elapsed, tree, stats = time_scan(
                    tree_class, points, threshold, branching, leaf_capacity
                )
                seconds[tree_class].append(elapsed)
                trees[tree_class] = (tree, stats)
        (loop_tree, _), (bulk_tree, stats) = trees[ReferenceTree], trees[ACFTree]
        rows.append((
            name,
            statistics.median(seconds[ReferenceTree]),
            statistics.median(seconds[ACFTree]),
            loop_tree,
            bulk_tree,
            stats,
        ))
    return rows


def test_perf_scan_storms(benchmark, emit):
    rows = benchmark.pedantic(run_storms, rounds=1, iterations=1)

    table = Table(
        "1-D scan on split storms: verified bulk windows vs the per-point "
        f"loop (median of {STORM_ROUNDS})",
        ["shape", "per-point s", "bulk s", "ratio", "entries", "splits",
         "verified %"],
    )
    for name, loop_seconds, bulk_seconds, _, bulk_tree, stats in rows:
        table.add_row(
            name,
            loop_seconds,
            bulk_seconds,
            bulk_seconds / loop_seconds,
            bulk_tree.entry_count(),
            bulk_tree.n_splits,
            100.0 * stats.verified / stats.points,
        )
    emit(table, "perf_batch_insert_storms.txt")

    for name, loop_seconds, bulk_seconds, loop_tree, bulk_tree, _ in rows:
        assert pickle.dumps(bulk_tree.state_dict()) == pickle.dumps(
            loop_tree.state_dict()
        ), name
        assert bulk_seconds <= MAX_STORM_SLOWDOWN * loop_seconds, (
            f"{name}: bulk scan {bulk_seconds:.3f}s vs per-point loop "
            f"{loop_seconds:.3f}s (allowed {MAX_STORM_SLOWDOWN}x)"
        )
