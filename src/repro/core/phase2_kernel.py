"""Vectorized Phase II distance kernel.

Phase II never touches raw data (Thm 6.1): every quantity it needs — the
Dfn 6.1 clustering-graph edge tests, the §6.2 density-pruning mask, the
``assoc`` sets and degrees of association of §6.2 rule formation — is a
function of the clusters' image summaries.  :class:`Phase2Kernel`
extracts every cluster's image summary **once** per partition into
stacked numpy matrices and computes whole pairwise distance matrices with
blocked array ops:

* on an interval partition the images are CFs ``(N, LS, SS)``, and the
  matrix is D1 (Eq. 5) or RMS-D2 (Eq. 6) from the stacked moments;
* on a nominal partition (the Section 8 mixed-data extension) the images
  are value histograms, and under the 0/1 metric (Thm 5.2) D2 is
  ``1 - sum_v c_A(v) c_B(v) / (|A| |B|)`` — one integer matrix product of
  the stacked ``(k, V)`` count matrix over the partition's values.

The kernel evaluates the same formulas as the per-cluster summaries
(``repro.metrics.cluster``, :class:`~repro.mixed.features.NominalFeature`)
in the same cluster (uid) order.  Nominal arithmetic stays in int64 until
the one division, so those entries equal ``NominalFeature.d2`` and
``.diameter`` bit for bit.  ``tests/core/graph_oracle.py`` keeps the
per-pair graph loop as the reference the equivalence suite in
``tests/core/test_phase2_kernel.py`` holds the kernel to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.birch.features import CF
from repro.core.cluster import CLUSTER_METRICS, Cluster
from repro.core.graph import ClusteringGraph, GraphStats
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

__all__ = [
    "ImageHistograms",
    "ImageMoments",
    "Phase2Kernel",
    "pairwise_block",
    "require_finite",
]


def pairwise_block(
    metric: str,
    n: np.ndarray,
    ls: np.ndarray,
    ss: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Rows ``[start, stop)`` of the pairwise image-distance matrix.

    This is the unit of work of the blocked computation behind
    :meth:`Phase2Kernel.pairwise_on`.  The same block recomputed anywhere
    gives the same bits (same expressions, same operand shapes, same BLAS
    calls); a block of a different shape may differ from it in the last
    bits for ``d2``.
    """
    if metric == "d1":
        centroids = ls / n[:, None]
        return np.abs(
            centroids[start:stop, None, :] - centroids[None, :, :]
        ).sum(axis=2)
    # d2 — RMS average inter-cluster distance from moments
    ss_over_n = ss / n
    # <LS_i, LS_j> / (N_i N_j), the cross term of Eq. (6).
    cross = (ls[start:stop] @ ls.T) / np.outer(n[start:stop], n)
    squared = ss_over_n[start:stop, None] + ss_over_n[None, :] - 2.0 * cross
    return np.sqrt(np.maximum(squared, 0.0))


def _nominal_block(
    counts: np.ndarray, n: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Rows ``[start, stop)`` of the pairwise 0/1-metric D2 matrix.

    ``counts`` is the ``(k, V)`` int64 value-histogram stack and ``n`` its
    row sums.  The agreements ``sum_v c_A(v) c_B(v)`` and the pair counts
    ``|A| |B|`` are exact integers; the one division rounds once, exactly
    as ``NominalFeature.d2`` does.
    """
    agreements = counts[start:stop] @ counts.T
    return 1.0 - agreements / np.outer(n[start:stop], n)


def require_finite(array: np.ndarray, what: str, partition_name: str) -> None:
    """Post-condition: every entry of ``array`` is finite.

    Phase II math is closed over finite moments, so a NaN/inf here means
    the input moments were already degenerate (non-finite data values, a
    corrupted checkpoint, a bad merge) — raise a clear error naming the
    partition instead of letting NaN propagate silently through the
    threshold comparisons, where it would compare false and quietly drop
    edges.
    """
    if np.isfinite(array).all():
        return
    bad = int(np.count_nonzero(~np.isfinite(array)))
    raise ValueError(
        f"partition {partition_name!r}: {what} has {bad} non-finite "
        f"entr{'y' if bad == 1 else 'ies'} — the cluster moments feeding "
        f"Phase II are degenerate (non-finite input values?)"
    )

#: Row-block size for pairwise-distance materialization.  D1 needs a
#: (block, k, dim) intermediate; 256 rows keeps that under a few MB for
#: realistic dimensions while leaving the inner loops fully vectorized.
DEFAULT_BLOCK_SIZE = 256


@dataclass(frozen=True)
class ImageMoments:
    """Stacked image moments of every cluster on one partition.

    Row ``i`` summarizes cluster ``i``'s image (in kernel order): ``n[i]``
    tuples, linear sum ``ls[i]`` and scalar sum of squared norms
    ``ss[i]`` — exactly the ``(N, LS, SS)`` of Eq. (3) that Theorem 6.1
    shows suffice for all Phase II distances.
    """

    n: np.ndarray  # (k,) float64
    ls: np.ndarray  # (k, dim) float64
    ss: np.ndarray  # (k,) float64

    @property
    def k(self) -> int:
        """Number of clusters (rows) in the stack."""
        return self.n.shape[0]

    @property
    def centroids(self) -> np.ndarray:
        """Per-cluster centroids, ``(k, dim)``."""
        return self.ls / self.n[:, None]

    def rms_diameters(self) -> np.ndarray:
        """Per-row RMS diameter (vectorized ``rms_diameter_from_moments``).

        Singleton images (``n < 2``) have diameter 0 by definition; they
        are routed around the division explicitly rather than computing
        ``0/0`` under a suppressed-warning block, so any *other* division
        problem (corrupt moments, non-finite sums) still surfaces as a
        real floating-point warning instead of being masked.
        """
        n = self.n
        singleton = n < 2.0
        denominator = np.where(singleton, 1.0, n * (n - 1.0))
        squared = (
            2.0 * n * self.ss - 2.0 * np.einsum("ij,ij->i", self.ls, self.ls)
        ) / denominator
        return np.where(singleton, 0.0, np.sqrt(np.maximum(squared, 0.0)))


@dataclass(frozen=True)
class ImageHistograms:
    """Stacked value histograms of every cluster on one nominal partition.

    Column ``v`` of ``counts`` is one value of the partition's vocabulary
    (every value any cluster's image holds); row ``i`` is cluster ``i``'s
    histogram in kernel order, and ``n[i]`` its tuple count.
    """

    counts: np.ndarray  # (k, V) int64
    n: np.ndarray  # (k,) int64

    @classmethod
    def stack(cls, images: Sequence) -> "ImageHistograms":
        """Stack ``NominalFeature``-like images (``.counts`` mappings)."""
        vocabulary: Dict[Hashable, int] = {}
        rows: List[int] = []
        columns: List[int] = []
        values: List[int] = []
        for i, image in enumerate(images):
            for value, count in image.counts.items():
                rows.append(i)
                columns.append(vocabulary.setdefault(value, len(vocabulary)))
                values.append(count)
        counts = np.zeros((len(images), len(vocabulary)), dtype=np.int64)
        counts[rows, columns] = values
        return cls(counts=counts, n=counts.sum(axis=1))

    def diameters(self) -> np.ndarray:
        """Per-row 0/1-metric diameter ``1 - sum c(c-1) / (n(n-1))``.

        Singletons (``n < 2``) have diameter 0, as in
        ``NominalFeature.diameter``; they are routed around the division.
        """
        n = self.n
        singleton = n < 2
        agreements = (self.counts * (self.counts - 1)).sum(axis=1)
        pairs = np.where(singleton, 1, n * (n - 1))
        return np.where(singleton, 0.0, 1.0 - agreements / pairs)


class Phase2Kernel:
    """Blocked pairwise image distances over one frequent-cluster population.

    The kernel is built once per mining run from the flat list of frequent
    clusters.  Construction performs the image-summary extraction; distance
    matrices are materialized lazily, once per partition, and cached — the
    clustering-graph build, the ``assoc``-set computation and the
    rule-formation degree lookups all read the same cached matrices.
    """

    def __init__(
        self,
        clusters: Sequence[Cluster],
        metric: str = "d2",
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if metric not in CLUSTER_METRICS:
            raise KeyError(
                f"unknown cluster metric {metric!r}; available: "
                f"{sorted(CLUSTER_METRICS)}"
            )
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.metric = metric
        self.block_size = int(block_size)

        ordered = sorted(clusters, key=lambda c: c.uid)
        self.clusters: Dict[int, Cluster] = {}
        for cluster in ordered:
            if cluster.uid in self.clusters:
                raise ValueError(f"duplicate cluster uid {cluster.uid}")
            self.clusters[cluster.uid] = cluster
        self.order: List[Cluster] = ordered
        self.uids: np.ndarray = np.array([c.uid for c in ordered], dtype=np.int64)
        self.index: Dict[int, int] = {c.uid: i for i, c in enumerate(ordered)}

        self.partition_names: List[str] = sorted(
            {c.partition.name for c in ordered}
        )
        name_index = {name: i for i, name in enumerate(self.partition_names)}
        self.partition_of: np.ndarray = np.array(
            [name_index[c.partition.name] for c in ordered], dtype=np.int64
        )

        # ---------------- image-summary extraction (once per cluster) ---
        self._moments: Dict[str, ImageMoments] = {}
        self._histograms: Dict[str, ImageHistograms] = {}
        for name in self.partition_names:
            images = [c.image(name) for c in ordered]
            kinds = {
                "CF" if isinstance(image, CF)
                else "histogram" if hasattr(image, "counts")
                else type(image).__name__
                for image in images
            }
            if kinds == {"CF"}:
                self._moments[name] = ImageMoments(
                    n=np.array([cf.n for cf in images], dtype=np.float64),
                    ls=np.stack([cf.ls for cf in images]),
                    ss=np.array([cf.ss_total for cf in images], dtype=np.float64),
                )
            elif kinds == {"histogram"}:
                self._histograms[name] = ImageHistograms.stack(images)
            else:
                raise TypeError(
                    f"partition {name!r}: the kernel needs every image to "
                    f"be a CF or every image a value histogram, got "
                    f"{sorted(kinds)}"
                )

        self._distances: Dict[str, np.ndarray] = {}
        self._diameters: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Cached matrices
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of clusters the kernel was built over."""
        return len(self.order)

    def moments_on(self, partition_name: str) -> ImageMoments:
        """The stacked image moments of every cluster on one partition."""
        return self._moments[partition_name]

    def image_diameters_on(self, partition_name: str) -> np.ndarray:
        """Diameter of every cluster's image on ``partition_name`` (the
        quantity the §6.2 pre-filter thresholds): RMS for CF images, the
        0/1-metric diameter for value histograms."""
        cached = self._diameters.get(partition_name)
        if cached is None:
            histograms = self._histograms.get(partition_name)
            if histograms is None:
                cached = self._moments[partition_name].rms_diameters()
            else:
                cached = histograms.diameters()
            require_finite(cached, "image diameters", partition_name)
            self._diameters[partition_name] = cached
        return cached

    def pairwise_on(self, partition_name: str) -> np.ndarray:
        """The full k x k image-distance matrix on one partition.

        ``result[i, j]`` is ``D(C_i[P], C_j[P])`` under the kernel's
        metric (always the 0/1-metric D2 on a nominal partition, where a
        centroid distance has no meaning), rows/columns in kernel
        (uid-sorted) order.  Computed blocked on first use and cached.
        """
        cached = self._distances.get(partition_name)
        if cached is not None:
            return cached
        k = self.k
        n_blocks = -(-k // self.block_size) if k else 0
        with span("phase2.kernel.pairwise", k=k, blocks=n_blocks):
            if obs_metrics.metrics_enabled():
                obs_metrics.set_gauge(
                    "repro_kernel_block_size",
                    self.block_size,
                    help="Row-block size of the Phase II pairwise kernel",
                )
                obs_metrics.inc(
                    "repro_kernel_blocks_total",
                    n_blocks,
                    help="Row blocks materialized by the pairwise kernel",
                )
            histograms = self._histograms.get(partition_name)
            if histograms is None:
                moments = self._moments[partition_name]
                block = partial(
                    pairwise_block, self.metric, moments.n, moments.ls, moments.ss
                )
            else:
                block = partial(_nominal_block, histograms.counts, histograms.n)
            cached = np.zeros((k, k), dtype=np.float64)
            for start in range(0, k, self.block_size):
                stop = min(start + self.block_size, k)
                cached[start:stop] = block(start, stop)
        require_finite(cached, "pairwise image distances", partition_name)
        self._distances[partition_name] = cached
        return cached

    def distance(self, a_uid: int, b_uid: int, on: str) -> float:
        """``D(a[on], b[on])`` looked up from the cached matrices."""
        return float(self.pairwise_on(on)[self.index[a_uid], self.index[b_uid]])

    # ------------------------------------------------------------------
    # Graph build (Dfn 6.1 + §6.2 pruning)
    # ------------------------------------------------------------------

    def viability_mask(
        self,
        density_thresholds: Mapping[str, float],
        pruning_diameter_factor: float,
    ) -> np.ndarray:
        """``mask[i, p]`` — may cluster ``i`` be compared against partition
        ``p`` (kernel partition order)?  False where the cluster's image on
        ``p`` has diameter above ``factor x d0_p`` (§6.2); a cluster is
        always viable against its own partition (never compared anyway).
        """
        k, n_parts = self.k, len(self.partition_names)
        mask = np.ones((k, n_parts), dtype=bool)
        for p, name in enumerate(self.partition_names):
            bound = pruning_diameter_factor * density_thresholds[name]
            viable = self.image_diameters_on(name) <= bound
            own = self.partition_of == p
            mask[:, p] = viable | own
        return mask

    def build_graph(
        self,
        density_thresholds: Mapping[str, float],
        use_density_pruning: bool = True,
        pruning_diameter_factor: float = 2.0,
    ) -> ClusteringGraph:
        """The Dfn 6.1 clustering graph over the kernel's clusters.

        ``density_thresholds`` maps partition name to the (Phase II,
        possibly leniency-scaled) ``d0`` used for edge tests.  Every
        comparison, §6.2 skip and edge is counted in the returned
        :class:`~repro.core.graph.GraphStats`, exactly as the per-pair
        loop would count it.
        """
        for cluster in self.order:
            if cluster.partition.name not in density_thresholds:
                raise ValueError(
                    f"no density threshold for partition "
                    f"{cluster.partition.name!r}"
                )

        adjacency: Dict[int, Set[int]] = {uid: set() for uid in self.clusters}
        stats = GraphStats()
        names = self.partition_names
        thresholds = {name: float(density_thresholds[name]) for name in names}

        viable: Optional[np.ndarray] = None
        if use_density_pruning:
            viable = self.viability_mask(thresholds, pruning_diameter_factor)

        uids = self.uids
        for pa in range(len(names)):
            rows = np.nonzero(self.partition_of == pa)[0]
            if rows.size == 0:
                continue
            for pb in range(pa + 1, len(names)):
                cols = np.nonzero(self.partition_of == pb)[0]
                if cols.size == 0:
                    continue
                name_a, name_b = names[pa], names[pb]
                if viable is not None:
                    # Pair survives the §6.2 pre-filter only if A's image is
                    # dense on B's partition and vice versa.
                    pair_ok = viable[rows, pb][:, None] & viable[cols, pa][None, :]
                    n_ok = int(np.count_nonzero(pair_ok))
                    stats.skipped += rows.size * cols.size - n_ok
                    stats.comparisons += n_ok
                else:
                    pair_ok = None
                    stats.comparisons += rows.size * cols.size
                close = (
                    self.pairwise_on(name_a)[np.ix_(rows, cols)]
                    <= thresholds[name_a]
                ) & (
                    self.pairwise_on(name_b)[np.ix_(rows, cols)]
                    <= thresholds[name_b]
                )
                if pair_ok is not None:
                    close &= pair_ok
                edge_rows, edge_cols = np.nonzero(close)
                stats.edges += edge_rows.size
                for i, j in zip(uids[rows[edge_rows]], uids[cols[edge_cols]]):
                    adjacency[int(i)].add(int(j))
                    adjacency[int(j)].add(int(i))

        return ClusteringGraph(
            clusters=dict(self.clusters), adjacency=adjacency, stats=stats
        )

    # ------------------------------------------------------------------
    # Rule formation (§6.2) support
    # ------------------------------------------------------------------

    def assoc_sets(
        self,
        degree_thresholds: Mapping[str, float],
        targets: Optional[frozenset] = None,
    ) -> Dict[int, np.ndarray]:
        """``assoc(C_Y)`` for every (target) cluster, from cached matrices.

        ``assoc(C_Y)`` is the set of frequent clusters over *other*
        partitions whose image on Y's partition lies within ``D0_Y`` of
        ``C_Y`` — the antecedent candidate pool of §6.2 rule formation.
        Each is returned as a boolean mask over the kernel (uid) order,
        keyed by ``C_Y``'s uid.
        """
        assoc: Dict[int, np.ndarray] = {}
        for p, name in enumerate(self.partition_names):
            if targets is not None and name not in targets:
                continue
            rows = np.nonzero(self.partition_of == p)[0]
            threshold = float(degree_thresholds[name])
            members = (self.pairwise_on(name)[rows] <= threshold) & (
                self.partition_of != p
            )
            assoc.update(zip(self.uids[rows].tolist(), members))
        return assoc
