"""Reference engines and scans for the Phase I exactness tests.

:class:`ReferenceInserter` is a :class:`~repro.birch.batch.BatchInserter`
that sends every point of a 1-D batch through the per-point loop
(:meth:`~repro.birch.batch.BatchInserter._scan_range`), never through the
verified bulk windows.  The real engine must leave a tree in exactly the
state this one does, down to the bytes of :meth:`ACFTree.state_dict`.

:class:`CadenceClusterer` is the budgeted Phase I scan at a fixed
cadence: insert ``_MEMORY_CHECK_INTERVAL`` rows, enforce the budget,
repeat, and enforce once more at the end.  :class:`BirchClusterer` probes only
where this one would find the tree over budget, so both must take the
same rebuilds and pages and leave the same tree.
"""

from __future__ import annotations

from repro.birch.batch import BatchInserter, ScanStats
from repro.birch.birch import _MEMORY_CHECK_INTERVAL, BirchClusterer, BirchResult, Phase1Stats
from repro.birch.outliers import OutlierStore
from repro.birch.tree import ACFTree


class ReferenceInserter(BatchInserter):
    """Batch engine whose 1-D scan is the per-point loop alone."""

    def _scan_scalar(self, batch, stats):
        xs = batch.ls[:, 0].tolist()
        qs = batch.ss[:, 0].tolist()
        self._scan_range(batch, stats, xs, qs, 0, batch.size)


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
            stats.replay = store.replay_into(
                tree, self._outlier_bar(stats.points_inserted)
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

