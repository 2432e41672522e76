"""Reference insertion paths for the Phase I exactness tests.

The sequential functions here insert into an :class:`ACFTree` one item at
a time by walking node objects, the way BIRCH describes it: descend to
the closest child (empty children skipped, an all-empty node goes to its
first child), absorb into the closest leaf entry if the merged RMS
diameter stays within the threshold, otherwise start an entry, and split
an over-full leaf.  :func:`insert_point`, :func:`insert_entry` and
:func:`replay_into` are the oracles the batch engine must match byte for
byte in :meth:`ACFTree.state_dict`.

:class:`ReferenceInserter` is a :class:`~repro.birch.batch.BatchInserter`
that sends every point of a 1-D batch through the per-item loop
(:meth:`~repro.birch.batch.BatchInserter._scan_range`), never through the
verified bulk windows.  The real engine must leave a tree in exactly the
state this one does.

:class:`CadenceClusterer` is the budgeted Phase I scan at a fixed
cadence: insert ``_MEMORY_CHECK_INTERVAL`` rows, enforce the budget,
repeat, and enforce once more at the end.  :class:`BirchClusterer` probes only
where this one would find the tree over budget, so both must take the
same rebuilds and pages and leave the same tree.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.birch.batch import BatchInserter, ScanStats
from repro.birch.birch import _MEMORY_CHECK_INTERVAL, BirchClusterer, BirchResult, Phase1Stats
from repro.birch.features import ACF, CF, merged_rms_diameter
from repro.birch.node import InternalNode, LeafNode, Node
from repro.birch.outliers import OutlierStore, ReplayReport
from repro.birch.tree import ACFTree

# ---------------------------------------------------------------------------
# The sequential oracle


def _squared_distance(cf: CF, point: np.ndarray) -> float:
    # A plain sum of squared deltas, the arithmetic of the engine's mirrors.
    delta = cf.ls / cf.n - point
    return float((delta * delta).sum())


def closest_child(node: InternalNode, point: np.ndarray) -> Node:
    """The child whose aggregate centroid is closest to ``point``."""
    best: Optional[Node] = None
    best_squared = np.inf
    for child in node.children:
        if child.cf.n == 0:
            continue
        squared = _squared_distance(child.cf, point)
        if squared < best_squared:
            best, best_squared = child, squared
    return node.children[0] if best is None else best


def closest_in_leaf(leaf: LeafNode, point: np.ndarray) -> int:
    """Index of the non-empty entry closest to ``point``; raises if none."""
    best_index = -1
    best_squared = np.inf
    for index, entry in enumerate(leaf.entries):
        if entry.cf.n == 0:
            continue
        squared = _squared_distance(entry.cf, point)
        if squared < best_squared:
            best_index, best_squared = index, squared
    if best_index < 0:
        raise ValueError("closest entry of a leaf with only empty entries")
    return best_index


def _descend(tree: ACFTree, point: np.ndarray):
    path: List[InternalNode] = []
    node = tree._root
    while not node.is_leaf:
        path.append(node)
        node = closest_child(node, point)
    return path, node


def closest_entry(tree: ACFTree, point: np.ndarray) -> Optional[ACF]:
    """Greedy closest-centroid descent; ``None`` on an empty leaf."""
    point = np.asarray(point, dtype=np.float64)
    _, leaf = _descend(tree, point)
    if not leaf.entries:
        return None
    return leaf.entries[closest_in_leaf(leaf, point)]


def merged_point_rms_diameter(cf: CF, point: np.ndarray) -> float:
    """RMS diameter of ``cf`` plus one point."""
    n = cf.n + 1
    if n < 2:
        return 0.0
    ls = cf.ls + point
    ss = cf.ss_total + float(point @ point)
    squared = (2.0 * n * ss - 2.0 * float(ls @ ls)) / (n * (n - 1))
    return float(np.sqrt(max(squared, 0.0)))


def insert_point(
    tree: ACFTree,
    point: np.ndarray,
    cross_values: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Insert one tuple's projection (plus its cross projections)."""
    point = np.asarray(point, dtype=np.float64)
    cross_values = cross_values or {}
    tree._batch_engine = None  # its mirrors would go stale
    path, leaf = _descend(tree, point)
    absorbed = False
    if leaf.entries:
        candidate = leaf.entries[closest_in_leaf(leaf, point)]
        if merged_point_rms_diameter(candidate.cf, point) <= tree.threshold:
            candidate.add_point(point, cross_values)
            leaf.cf.add_point(point)
            absorbed = True
    if not absorbed:
        leaf.add_entry(ACF.of_point(point, cross_values))
        tree._n_entries += 1
    for ancestor in path:
        ancestor.cf.add_point(point)
    if not absorbed and leaf.entry_count() > tree.leaf_capacity:
        tree._split_leaf(leaf)
    tree._n_points += 1


def insert_entry(tree: ACFTree, entry: ACF) -> None:
    """Insert a whole subcluster, routed by its centroid."""
    tree._batch_engine = None
    tree._n_points += entry.n
    path, leaf = _descend(tree, entry.centroid)
    absorbed = False
    if leaf.entries:
        candidate = leaf.entries[closest_in_leaf(leaf, entry.centroid)]
        if merged_rms_diameter(candidate.cf, entry.cf) <= tree.threshold:
            candidate.merge(entry)
            leaf.cf.merge(entry.cf)
            absorbed = True
    if not absorbed:
        leaf.add_entry(entry)
        tree._n_entries += 1
    for ancestor in path:
        ancestor.cf.merge(entry.cf)
    if not absorbed and leaf.entry_count() > tree.leaf_capacity:
        tree._split_leaf(leaf)


def replay_into(store: OutlierStore, tree: ACFTree, min_count: int) -> ReplayReport:
    """Replay paged entries one by one: re-insert those that merge or that
    grew past ``min_count``, confirm the rest as outliers."""
    report = ReplayReport()
    for entry in store.entries:
        closest = closest_entry(tree, entry.centroid)
        mergeable = (
            closest is not None
            and merged_rms_diameter(closest.cf, entry.cf) <= tree.threshold
        )
        if mergeable or entry.n >= min_count:
            insert_entry(tree, entry.copy())
            report.absorbed += 1
        else:
            report.confirmed_outliers.append(entry)
    store._entries.clear()
    return report


# ---------------------------------------------------------------------------
# Reference engines and scans


class ReferenceInserter(BatchInserter):
    """Batch engine whose 1-D point scan is the per-item loop alone."""

    def _scan_windows(self, batch, stats):
        self._scan_range(batch, stats, 0, batch.size)


class ReferenceTree(ACFTree):
    """An :class:`ACFTree` whose batch inserts use :class:`ReferenceInserter`."""

    def _engine(self) -> BatchInserter:
        if self._batch_engine is None:
            self._batch_engine = ReferenceInserter(self)
        return self._batch_engine


class CadenceClusterer(BirchClusterer):
    """Phase I with the budget enforced after every fixed-size batch."""

    def fit_arrays(self, points, cross_matrices=None):
        cross_matrices = cross_matrices or {}
        options = self.options
        stats = Phase1Stats(scan=ScanStats())
        tree = ACFTree(
            dimension=self.partition.dimension,
            threshold=options.initial_threshold,
            branching=options.branching,
            leaf_capacity=options.leaf_capacity,
            cross_dimensions=self._cross_dimensions,
        )
        stats.threshold_history.append(tree.threshold)
        store = OutlierStore(self.memory_model)
        for start in range(0, points.shape[0], _MEMORY_CHECK_INTERVAL):
            stop = start + _MEMORY_CHECK_INTERVAL
            block = points[start:stop]
            tree.insert_points(
                block,
                {name: matrix[start:stop] for name, matrix in cross_matrices.items()},
                stats=stats.scan,
            )
            stats.points_inserted += block.shape[0]
            if stats.points_inserted % _MEMORY_CHECK_INTERVAL == 0:
                tree = self._enforce_budget(tree, store, stats)
        tree = self._enforce_budget(tree, store, stats)
        if len(store):
            stats.replay = replay_into(
                store, tree, self._outlier_bar(stats.points_inserted)
            )
        clusters = list(tree.entries())
        stats.final_entry_count = len(clusters)
        return BirchResult(
            partition=self.partition, clusters=clusters, stats=stats, tree=tree
        )


def walk_counts(tree: ACFTree):
    """(entries, leaves, internal nodes), counted by walking the tree."""
    counts = [0, 0, 0]
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            counts[0] += len(node.entries)
            counts[1] += 1
        else:
            counts[2] += 1
            stack.extend(node.children)
    return tuple(counts)
