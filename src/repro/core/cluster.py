"""Clusters as first-class objects (Dfn 4.2) backed by ACF summaries.

A :class:`Cluster` is the Phase I output unit: a set of tuples restricted on
one attribute partition, represented compactly by its ACF.  All Phase II
computations — image distances, the clustering graph, degrees of
association — go through this wrapper and therefore never touch raw data
(Theorem 6.1, ACF Representativity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.birch.features import ACF, CF
from repro.data.relation import AttributePartition

__all__ = ["Cluster", "image_distance", "CLUSTER_METRICS"]


@dataclass(frozen=True)
class Cluster:
    """A cluster ``C_X`` defined on the attribute partition ``X``.

    ``uid`` is unique across all partitions within one mining run and is
    what the clustering graph and cliques refer to.

    The cluster owns ``acf``: every construction site hands it a summary
    nothing else holds (a finished Phase I tree's entry, an ``acf.copy()``
    of a live streaming tree, or ``ACF.from_state`` of a worker's result),
    and it must not be mutated afterwards.  The rendered ``str`` is
    computed from it once and cached.
    """

    uid: int
    partition: AttributePartition
    acf: ACF = field(compare=False, hash=False, repr=False)

    @property
    def n(self) -> int:
        """|C_X| — the number of supporting tuples."""
        return self.acf.n

    @property
    def dimension(self) -> int:
        """|X| — the dimension of the cluster (Dfn 4.2)."""
        return self.partition.dimension

    @property
    def centroid(self) -> np.ndarray:
        """Centroid of the cluster's own-partition summary."""
        return self.acf.centroid

    @property
    def diameter(self) -> float:
        """RMS diameter over the defining partition (the ``d`` of Dfn 4.1)."""
        return self.acf.rms_diameter

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """Smallest bounding box — the user-facing description (§7.2)."""
        return self.acf.bounding_box()

    def image(self, partition_name: str) -> CF:
        """CF of this cluster's image ``C[Y]`` on partition ``partition_name``."""
        return self.acf.image(partition_name, self.partition.name)

    def image_diameter(self, partition_name: str) -> float:
        """RMS diameter of the image on another partition (the §6.2 heuristic
        uses this to skip poor-density images)."""
        return self.image(partition_name).rms_diameter

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cluster):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __str__(self) -> str:
        """The §7.2 bounding-box description, rendered on first use."""
        label = self.__dict__.get("_label")
        if label is None:
            lo, hi = self.bounding_box()
            parts = ", ".join(
                f"{name}:[{lo[i]:g}, {hi[i]:g}]"
                for i, name in enumerate(self.partition.attributes)
            )
            label = self.__dict__["_label"] = f"C{self.uid}({parts}; n={self.n})"
        return label


def _d1(a: CF, b: CF) -> float:
    return a.d1(b)


def _d2(a: CF, b: CF) -> float:
    return a.rms_d2(b)


#: Cluster-distance metrics usable in Phase II, by name.  ``d1`` is the
#: centroid Manhattan distance (Eq. 5); ``d2`` the (RMS) average
#: inter-cluster distance (Eq. 6).  Both are exact functions of the ACFs.
CLUSTER_METRICS = {"d1": _d1, "d2": _d2}


def image_distance(a: Cluster, b: Cluster, on: str, metric: str = "d2") -> float:
    """D(a[on], b[on]) — the inter-cluster distance between two images.

    ``on`` names the partition whose attributes the images are projected
    onto.  This is the ``D`` of Dfn 5.1/5.3 and Dfn 6.1.

    Images over qualitative attributes (the Section 8 mixed-data
    extension, :mod:`repro.mixed`) are value histograms rather than CFs;
    for those the 0/1-metric D2 is used regardless of ``metric``, since a
    centroid distance has no meaning on an unordered domain.
    """
    if metric not in CLUSTER_METRICS:
        raise KeyError(
            f"unknown cluster metric {metric!r}; available: {sorted(CLUSTER_METRICS)}"
        )
    image_a = a.image(on)
    image_b = b.image(on)
    if isinstance(image_a, CF) and isinstance(image_b, CF):
        return CLUSTER_METRICS[metric](image_a, image_b)
    if hasattr(image_a, "d2") and hasattr(image_b, "counts"):
        return image_a.d2(image_b)
    raise TypeError(
        f"incompatible images on {on!r}: {type(image_a).__name__} vs "
        f"{type(image_b).__name__}"
    )
