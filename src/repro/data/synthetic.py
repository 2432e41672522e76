"""Synthetic workload generators.

Two families:

* *clustered relations* — tuples drawn from a fixed set of modes, each mode
  placing the tuple near a per-attribute center; tuples from one mode are
  therefore associated across attributes, which is exactly the structure
  distance-based rules are meant to discover;
* *scaled relations* — the Section 7.2 protocol: hold the number and form
  of the clusters constant while growing the data, "by increasing the
  number of points per cluster and proportionally the number of irrelevant
  (or outliers) points".

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.relation import Attribute, AttributeKind, Relation, Schema

__all__ = [
    "PlantedStructure",
    "make_clustered_relation",
    "make_planted_rule_relation",
    "scale_relation",
]


@dataclass(frozen=True)
class PlantedStructure:
    """Ground truth of a generated relation, for test assertions.

    ``centers`` is ``(n_modes, n_attributes)``; ``labels`` gives the mode
    of each non-outlier tuple, with ``-1`` marking outliers.
    """

    centers: np.ndarray
    labels: np.ndarray
    spread: float

    @property
    def n_modes(self) -> int:
        """Number of planted modes."""
        return self.centers.shape[0]

    def mode_indices(self, mode: int) -> np.ndarray:
        """Row indices drawn from planted ``mode``."""
        return np.flatnonzero(self.labels == mode)


def _mode_centers(
    rng: np.random.Generator, n_modes: int, n_attributes: int, separation: float
) -> np.ndarray:
    """Well-separated per-attribute centers: a jittered grid on each axis."""
    base = np.arange(n_modes, dtype=np.float64) * separation
    centers = np.empty((n_modes, n_attributes))
    for j in range(n_attributes):
        order = rng.permutation(n_modes)
        jitter = rng.uniform(-0.1, 0.1, size=n_modes) * separation
        centers[:, j] = base[order] + jitter
    return centers


def make_clustered_relation(
    n_modes: int = 4,
    points_per_mode: int = 200,
    n_attributes: int = 3,
    spread: float = 1.0,
    separation: float = 20.0,
    outlier_fraction: float = 0.05,
    seed: int = 0,
    attribute_prefix: str = "a",
) -> Tuple[Relation, PlantedStructure]:
    """A relation of Gaussian modes plus uniform outliers.

    Each tuple picks a mode and is Gaussian around that mode's center in
    *every* attribute, so each attribute exhibits ``n_modes`` dense
    clusters and the clusters co-occur across attributes.  Outliers are
    uniform over an inflated range and carry label ``-1``.
    """
    if n_modes < 1 or points_per_mode < 1 or n_attributes < 1:
        raise ValueError("n_modes, points_per_mode and n_attributes must be positive")
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    centers = _mode_centers(rng, n_modes, n_attributes, separation)

    n_clustered = n_modes * points_per_mode
    n_outliers = int(round(outlier_fraction / (1 - outlier_fraction) * n_clustered))
    labels = np.repeat(np.arange(n_modes), points_per_mode)
    data = centers[labels] + rng.normal(scale=spread, size=(n_clustered, n_attributes))

    if n_outliers:
        lo = centers.min() - separation
        hi = centers.max() + separation
        outliers = rng.uniform(lo, hi, size=(n_outliers, n_attributes))
        data = np.vstack([data, outliers])
        labels = np.concatenate([labels, np.full(n_outliers, -1)])

    order = rng.permutation(data.shape[0])
    data = data[order]
    labels = labels[order]

    schema = Schema(
        Attribute(f"{attribute_prefix}{j}", AttributeKind.INTERVAL)
        for j in range(n_attributes)
    )
    relation = Relation(
        schema, {f"{attribute_prefix}{j}": data[:, j] for j in range(n_attributes)}
    )
    return relation, PlantedStructure(centers=centers, labels=labels, spread=spread)


def make_planted_rule_relation(
    seed: int = 0, points_per_mode: int = 150
) -> Tuple[Relation, PlantedStructure]:
    """A small insurance-flavored relation with known 1:1 and 2:1 rules.

    Three attributes — ``age``, ``dependents``, ``claims`` — with three
    modes echoing Figure 5's example (41-47 year-olds with 2-5 dependents
    have claims near 10K-14K).  The planted structure makes rules like
    ``C_age C_dependents => C_claims`` discoverable.
    """
    rng = np.random.default_rng(seed)
    centers = np.array(
        [
            # age, dependents, claims
            [44.0, 3.5, 12_000.0],
            [28.0, 0.5, 2_500.0],
            [63.0, 1.5, 29_000.0],
        ]
    )
    scales = np.array([2.0, 0.6, 900.0])
    n_modes = centers.shape[0]
    labels = np.repeat(np.arange(n_modes), points_per_mode)
    data = centers[labels] + rng.normal(size=(labels.size, 3)) * scales

    order = rng.permutation(labels.size)
    data = data[order]
    labels = labels[order]
    schema = Schema.of(age="interval", dependents="interval", claims="interval")
    relation = Relation(
        schema,
        {"age": data[:, 0], "dependents": data[:, 1], "claims": data[:, 2]},
    )
    return relation, PlantedStructure(centers=centers, labels=labels, spread=1.0)


#: Rows :func:`scale_relation` draws per block.
_BLOCK_ROWS = 8_192


def scale_relation(
    base: Relation,
    target_size: int,
    outlier_fraction: float = 0.05,
    jitter_fraction: float = 0.01,
    seed: int = 0,
    attributes: Optional[Sequence[str]] = None,
) -> Relation:
    """Grow ``base`` to ``target_size`` tuples, Section 7.2 style.

    Base tuples are replicated (each with small jitter proportional to the
    per-attribute spread) so the number and form of clusters stays
    constant, and ``outlier_fraction`` of the result is uniform noise over
    an inflated range — "the number of irrelevant (or outliers) points"
    grows proportionally with the data.
    """
    if target_size < 1:
        raise ValueError("target_size must be positive")
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    names: Tuple[str, ...] = tuple(attributes or base.schema.interval_names())
    if not names:
        raise ValueError("base relation has no interval attributes to scale")
    matrix = base.matrix(names)
    n_base = matrix.shape[0]
    if n_base == 0:
        raise ValueError("cannot scale an empty relation")

    rng = np.random.default_rng(seed)
    n_outliers = int(round(target_size * outlier_fraction))
    n_clustered = target_size - n_outliers

    indices = rng.integers(0, n_base, size=n_clustered)
    spread = matrix.std(axis=0)
    spread[spread == 0] = 1.0
    scale = spread * jitter_fraction
    # One (attribute, tuple) array, filled block by block in draw order
    # and then permuted one attribute at a time, so that no temporary is
    # as large as the result.
    columns = np.empty((matrix.shape[1], target_size))
    for start in range(0, n_clustered, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_clustered)
        block = rng.normal(size=(stop - start, matrix.shape[1]))
        block *= scale
        block += matrix[indices[start:stop]]
        columns[:, start:stop] = block.T

    if n_outliers:
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        pad = (hi - lo) * 0.5 + spread
        for start in range(n_clustered, target_size, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, target_size)
            columns[:, start:stop] = rng.uniform(
                lo - pad, hi + pad, size=(stop - start, matrix.shape[1])
            ).T
    order = rng.permutation(target_size)
    for column in columns:
        column[:] = column[order]

    schema = base.schema.project(names)
    return Relation(schema, dict(zip(names, columns)))
