"""Phase I driver: one-pass adaptive clustering of an attribute partition.

Combines the ACF-tree, the memory model, the threshold schedule, and the
outlier store into the scan loop of Sections 4.3.1 / 6.1: insert every
tuple's projection; when the summary outgrows the byte budget, page out
small subclusters and rebuild at a higher threshold; after the scan, replay
paged-out entries to confirm or absorb them.

The output is a list of ACF subcluster summaries plus :class:`Phase1Stats`
(rebuild count, threshold history, timings) used by the scalability
experiments of Section 7.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.birch.batch import ScanStats
from repro.birch.features import ACF
from repro.birch.memory import _MEMORY_CHECK_INTERVAL, MemoryModel, ThresholdSchedule, _BudgetProbe
from repro.birch.outliers import OutlierStore, ReplayReport
from repro.birch.rebuild import rebuild_tree, split_off_outlier_entries
from repro.birch.refine import refine_entries
from repro.birch.tree import ACFTree
from repro.data.relation import AttributePartition, Relation
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

__all__ = ["BirchOptions", "Phase1Stats", "BirchResult", "BirchClusterer", "assign_to_centroids"]

#: Rows per ``insert_points`` call of every scan; chunks of an out-of-core
#: scan are cut into pieces of at most this many rows.  A multiple of the
#: check interval, so in-memory batches end on probe rows.  Where batches
#: are cut does not change the tree (see :mod:`repro.birch.batch`); this
#: only bounds the per-batch arrays against per-call overhead.
_SCAN_BATCH_ROWS = 4096


@dataclass(frozen=True)
class BirchOptions:
    """Tuning knobs for Phase I clustering.

    ``initial_threshold = 0`` starts at the finest granularity (every
    distinct value its own subcluster), exactly as BIRCH recommends; the
    adaptive loop will coarsen if memory demands it.
    """

    initial_threshold: float = 0.0
    branching: int = 8
    leaf_capacity: int = 8
    memory_limit_bytes: Optional[int] = None
    frequency_fraction: float = 0.03
    outlier_page_fraction: float = 0.25
    threshold_growth: float = 2.0
    max_rebuilds_per_overflow: int = 32
    global_refinement: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency_fraction <= 1.0:
            raise ValueError("frequency_fraction must be in (0, 1]")
        if not 0.0 <= self.outlier_page_fraction <= 1.0:
            raise ValueError("outlier_page_fraction must be in [0, 1]")
        if self.memory_limit_bytes is not None and self.memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive when set")


@dataclass
class Phase1Stats:
    """Diagnostics of one Phase I run over one partition."""

    points_inserted: int = 0
    rebuilds: int = 0
    threshold_history: List[float] = field(default_factory=list)
    pages_out: int = 0
    paged_entries: int = 0
    replay: Optional[ReplayReport] = None
    seconds: float = 0.0
    """Wall time of the fit: the duration of its ``phase1.fit`` span."""
    final_entry_count: int = 0
    final_tree_bytes: int = 0
    scan: Optional[ScanStats] = None
    """Batch-scan instrumentation; every Phase I scan fills it."""


@dataclass
class BirchResult:
    """Clusters (as ACF summaries) discovered over one partition."""

    partition: AttributePartition
    clusters: List[ACF]
    stats: Phase1Stats
    tree: ACFTree

    def frequent(self, min_count: int) -> List[ACF]:
        """Clusters meeting the frequency threshold ``s0`` (Dfn 4.2)."""
        return [cluster for cluster in self.clusters if cluster.n >= min_count]

    def centroids(self) -> np.ndarray:
        """Centroids of all clusters stacked into a ``(k, dim)`` array."""
        if not self.clusters:
            return np.empty((0, self.partition.dimension))
        return np.stack([cluster.centroid for cluster in self.clusters])


class BirchClusterer:
    """One-pass adaptive clusterer for a single attribute partition.

    Parameters
    ----------
    partition:
        The attribute set ``X_i`` to cluster on.
    cross_partitions:
        The *other* partitions whose cross moments every ACF must carry so
        Phase II can run without rescanning (Eq. 7).  Pass an empty list to
        build plain-CF clusters.
    options:
        See :class:`BirchOptions`.
    """

    #: Whether :meth:`fit_arrays` and :meth:`fit_chunks` reject non-finite
    #: input.  Off only in a subclass for callers that checked every column
    #: already (:func:`repro.core.miner.fit_partition`).
    _check_finite = True

    def __init__(
        self,
        partition: AttributePartition,
        cross_partitions: Sequence[AttributePartition] = (),
        options: BirchOptions = BirchOptions(),
    ):
        names = {partition.name} | {p.name for p in cross_partitions}
        if len(names) != 1 + len(cross_partitions):
            raise ValueError("partition names must be unique")
        self.partition = partition
        self.cross_partitions = tuple(cross_partitions)
        self.options = options
        self._cross_dimensions = {p.name: p.dimension for p in self.cross_partitions}
        self.memory_model = MemoryModel(
            dimension=partition.dimension,
            cross_dimensions=self._cross_dimensions,
            branching=options.branching,
            leaf_capacity=options.leaf_capacity,
        )
        self._schedule = ThresholdSchedule(growth_factor=options.threshold_growth)

    # ------------------------------------------------------------------

    def fit(self, relation: Relation) -> BirchResult:
        """Scan ``relation`` once and return the discovered clusters."""
        points = relation.matrix(self.partition.attributes)
        cross_matrices = {
            p.name: relation.matrix(p.attributes) for p in self.cross_partitions
        }
        return self.fit_arrays(points, cross_matrices)

    def fit_arrays(
        self, points: np.ndarray, cross_matrices: Optional[Dict[str, np.ndarray]] = None
    ) -> BirchResult:
        """Scan raw arrays: ``points`` is ``(n, dim)``; cross matrices match rows."""
        with span("phase1.fit", partition=self.partition.name) as fit_span:
            result = self._fit_arrays(points, cross_matrices)
        return self._finish_fit(fit_span, result)

    def fit_chunks(self, chunks) -> BirchResult:
        """Scan a chunk stream (the out-of-core path of :meth:`fit_arrays`).

        ``chunks`` is any iterable of chunk objects exposing
        ``chunk.arrays[name]`` — a :class:`~repro.data.columnar.ChunkIterator`
        in practice — where ``name`` covers this clusterer's partition and
        every declared cross partition.  Each chunk is cut into batches of
        at most ``_SCAN_BATCH_ROWS`` rows; since the tree does not depend
        on batch cuts and the budget is probed at the same scan rows, the
        result is bit-identical to :meth:`fit_arrays` over the same rows,
        with or without a budget, at any chunk size.  Each chunk is
        finiteness-validated as it streams in, since no one saw the whole
        array upfront.
        """
        with span("phase1.fit", partition=self.partition.name) as fit_span:
            batches = self._batches(chunk.arrays for chunk in chunks)
            result = self._run_scan(batches, validate=self._check_finite)
        return self._finish_fit(fit_span, result)

    def _finish_fit(self, fit_span, result: BirchResult) -> BirchResult:
        """Time the fit from its closed span, annotate the span and publish
        metrics (shared fit tail)."""
        stats = result.stats
        stats.seconds = fit_span.seconds
        fit_span.set("points", stats.points_inserted)
        fit_span.set("entries", stats.final_entry_count)
        fit_span.set("rebuilds", stats.rebuilds)
        if stats.scan is not None:
            stats.scan.publish(self.partition.name)
        self._publish_summary(result)
        return result

    def _publish_summary(self, result: BirchResult) -> None:
        """Point-in-time gauges of the finished Phase I pass (per partition)."""
        if not obs_metrics.metrics_enabled():
            return
        name = self.partition.name
        stats = result.stats
        obs_metrics.set_gauge(
            "repro_phase1_threshold", result.tree.threshold,
            help="Final density/diameter threshold of the partition's tree",
            partition=name,
        )
        obs_metrics.set_gauge(
            "repro_phase1_entry_count", stats.final_entry_count,
            help="Leaf entries (subclusters) after the Phase I pass",
            partition=name,
        )
        obs_metrics.set_gauge(
            "repro_phase1_tree_bytes", stats.final_tree_bytes,
            help="Modeled byte size of the partition's final tree",
            unit="bytes", partition=name,
        )
        obs_metrics.inc(
            "repro_phase1_paged_entries_total", stats.paged_entries,
            help="Subcluster summaries paged to the outlier store",
            partition=name,
        )

    def _fit_arrays(
        self, points: np.ndarray, cross_matrices: Optional[Dict[str, np.ndarray]] = None
    ) -> BirchResult:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cross_matrices = cross_matrices or {}
        if set(cross_matrices) != set(self._cross_dimensions):
            raise ValueError(
                f"cross matrices {sorted(cross_matrices)} do not match declared "
                f"cross partitions {sorted(self._cross_dimensions)}"
            )
        for name, matrix in cross_matrices.items():
            if matrix.shape[0] != points.shape[0]:
                raise ValueError(f"cross matrix {name!r} has mismatched row count")
        # Non-finite values would silently poison every moment downstream;
        # fail loudly at the boundary instead.
        if self._check_finite:
            if points.size and not np.all(np.isfinite(points)):
                raise ValueError(
                    f"partition {self.partition.name!r} contains non-finite values"
                )
            for name, matrix in cross_matrices.items():
                matrix = np.asarray(matrix, dtype=np.float64)
                if matrix.size and not np.all(np.isfinite(matrix)):
                    raise ValueError(f"cross matrix {name!r} contains non-finite values")

        arrays = {self.partition.name: points, **cross_matrices}
        return self._run_scan(self._batches([arrays]), validate=False)

    def _batches(self, chunks):
        """Cut each chunk (a name → matrix mapping) into ``(points, cross)``
        views of at most ``_SCAN_BATCH_ROWS`` rows."""
        names = [self.partition.name, *self._cross_dimensions]
        for arrays in chunks:
            try:
                points, *cross = [np.asarray(arrays[name], dtype=np.float64) for name in names]
            except KeyError as error:
                raise ValueError(
                    f"chunk lacks matrix {error.args[0]!r}; scanning "
                    f"{self.partition.name!r} needs {names}"
                ) from None
            for start in range(0, points.shape[0], _SCAN_BATCH_ROWS):
                stop = start + _SCAN_BATCH_ROWS
                yield points[start:stop], {
                    name: matrix[start:stop] for name, matrix in zip(names[1:], cross)
                }

    def _run_scan(self, batches, *, validate: bool) -> BirchResult:
        """The one-pass scan core shared by the array and chunk entry points.

        ``batches`` yields ``(points, cross_matrices)`` blocks;
        ``validate`` turns on per-block finiteness checks for sources
        nobody validated upfront.  Under a budget, the budget is enforced
        after every ``_MEMORY_CHECK_INTERVAL``-th row at which the tree is
        over it, and at the end.  The engine stops a batch at the first
        such row after growth crosses the budget; while enforcement leaves
        the tree over budget, the scan feeds it one interval at a time.
        """
        stats = Phase1Stats()
        tree = ACFTree(
            dimension=self.partition.dimension,
            threshold=self.options.initial_threshold,
            branching=self.options.branching,
            leaf_capacity=self.options.leaf_capacity,
            cross_dimensions=self._cross_dimensions,
        )
        stats.threshold_history.append(tree.threshold)
        store = OutlierStore(self.memory_model)
        stats.scan = ScanStats()
        budget = self.options.memory_limit_bytes

        for block, cross_blocks in batches:
            if validate:
                if block.size and not np.all(np.isfinite(block)):
                    raise ValueError(
                        f"partition {self.partition.name!r} contains non-finite values"
                    )
                for name, matrix in cross_blocks.items():
                    if matrix.size and not np.all(np.isfinite(matrix)):
                        raise ValueError(
                            f"cross matrix {name!r} contains non-finite values"
                        )
            offset = 0
            while offset < block.shape[0]:
                stop = block.shape[0]
                probe = None
                if budget is not None:
                    probe = _BudgetProbe(self.memory_model, budget, stats.points_inserted)
                    if probe.over(tree):  # still over after the last probe
                        stop = min(stop, offset + probe.stop_after(0))
                        probe = None
                rows_before = stats.scan.points
                tree._insert_points(
                    block[offset:stop],
                    {name: matrix[offset:stop] for name, matrix in cross_blocks.items()},
                    stats.scan,
                    probe,
                )
                taken = stats.scan.points - rows_before
                offset += taken
                stats.points_inserted += taken
                if (
                    budget is not None
                    and stats.points_inserted % _MEMORY_CHECK_INTERVAL == 0
                ):
                    tree = self._enforce_budget(tree, store, stats)

        if budget is not None:
            tree = self._enforce_budget(tree, store, stats)

        if len(store):
            # Outliers are "significantly smaller than the frequency
            # threshold": replay judges them against the outlier bar, not
            # the full frequency count (which Phase II applies later).
            stats.replay = store.replay_into(
                tree, self._outlier_bar(stats.points_inserted), stats.scan
            )

        clusters = list(tree.entries())
        if self.options.global_refinement and len(clusters) > 1:
            # BIRCH's global phase: undo order-dependence by merging leaf
            # entries whose unions still respect the final threshold.
            clusters = refine_entries(clusters, tree.threshold)
        stats.final_entry_count = len(clusters)
        stats.final_tree_bytes = self.memory_model.tree_bytes(*tree.summary_counts())
        return BirchResult(
            partition=self.partition, clusters=clusters, stats=stats, tree=tree
        )

    # ------------------------------------------------------------------

    def _frequency_count(self, n_points: int) -> int:
        return max(1, math.ceil(self.options.frequency_fraction * n_points))

    def _outlier_bar(self, n_points: int) -> int:
        """Entries 'significantly smaller than the frequency threshold'."""
        bar = self.options.outlier_page_fraction * self._frequency_count(n_points)
        return max(2, math.floor(bar))

    def _tree_bytes(self, tree: ACFTree) -> int:
        return self.memory_model.tree_bytes(*tree.summary_counts())

    def _enforce_budget(
        self, tree: ACFTree, store: OutlierStore, stats: Phase1Stats
    ) -> ACFTree:
        """Escalate the threshold (and page outliers) until within budget.

        Coarsening comes first: raising the threshold and rebuilding is what
        BIRCH does on overflow, and it keeps the summary representative.
        Outlier paging is the secondary valve, applied after a rebuild that
        did not shrink the tree enough — paging *before* coarsening would
        let a stream of young singleton subclusters drain to the outlier
        store without the threshold ever adapting.
        """
        budget = self.options.memory_limit_bytes
        assert budget is not None
        attempts = 0
        while (
            self._tree_bytes(tree) > budget
            and attempts < self.options.max_rebuilds_per_overflow
        ):
            new_threshold = self._schedule.next_threshold(tree)
            tree = rebuild_tree(tree, new_threshold, stats=stats.scan)
            stats.rebuilds += 1
            stats.threshold_history.append(new_threshold)
            attempts += 1
            if self._tree_bytes(tree) > budget:
                bar = self._outlier_bar(stats.points_inserted)
                tree, outliers = split_off_outlier_entries(tree, bar, stats=stats.scan)
                if outliers:
                    store.page_out(outliers)
                    stats.pages_out += 1
                    stats.paged_entries += len(outliers)
        return tree


def assign_to_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label each point with the index of its closest centroid.

    This is the Section 4.3.2 labeling rule ("find the centroid closest to
    the point and define the tuple to be in the cluster represented by this
    centroid"), vectorized.  Returns ``-1`` labels when there are no
    centroids.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    if centroids.shape[0] == 0:
        return np.full(points.shape[0], -1, dtype=np.intp)
    # Chunk to bound the (n_points x n_centroids) distance matrix.
    labels = np.empty(points.shape[0], dtype=np.intp)
    chunk = max(1, int(2_000_000 / max(centroids.shape[0], 1)))
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        deltas = block[:, None, :] - centroids[None, :, :]
        distances = np.einsum("ijk,ijk->ij", deltas, deltas)
        labels[start : start + chunk] = np.argmin(distances, axis=1)
    return labels
