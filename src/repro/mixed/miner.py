"""Distance-based association rules over mixed interval + qualitative data.

The Section 8 extension, realized: interval partitions are clustered with
the adaptive BIRCH/ACF machinery of the base miner; each qualitative
attribute becomes a partition whose clusters are its frequent values
(Theorem 5.1: under the 0/1 metric, the diameter-0 clusters are exactly
the value-pure tuple sets, so "clustering" a nominal attribute is value
grouping).  Every cluster then carries images over every partition — CFs
over interval projections, value histograms over nominal ones — and
Phase II proceeds verbatim through the miners' shared
:func:`~repro.core.phase2.run_phase2`: clustering graph, maximal cliques,
``assoc`` sets, rules.

Degrees of association toward a nominal consequent are 0/1-metric D2
distances, so by Theorem 5.2 they read as ``1 - confidence``: a degree
threshold of 0.4 means "at least 60% of the antecedent's tuples carry the
value".  This is precisely the "combining the quality and interest
measures used for different types of data" the paper calls for.

Cost: one extra labeling pass over the data (shared with the optional
support count) to attach nominal histograms to interval clusters; the
ACF-tree itself is unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

import numpy as np

from repro.birch.birch import BirchClusterer, assign_to_centroids
from repro.birch.features import CF
from repro.core.config import DARConfig
from repro.core.graph import ClusteringGraph
from repro.core.miner import DARMiner
from repro.core.phase2 import Phase2Stats, postscan, run_phase2
from repro.core.rules import DistanceRule
from repro.data.relation import AttributeKind, AttributePartition, Relation
from repro.mixed.cluster import MixedCluster
from repro.mixed.features import NominalFeature

__all__ = ["MixedDARConfig", "MixedDARMiner", "MixedDARResult"]


@dataclass(frozen=True)
class MixedDARConfig:
    """Thresholds for the qualitative side of mixed mining.

    ``nominal_density`` bounds the 0/1-metric D2 between two clusters'
    nominal images for a clustering-graph edge; ``nominal_degree`` is the
    degree-of-association threshold toward nominal consequents
    (``1 - min_confidence`` by Theorem 5.2).  Both live in [0, 1].
    """

    base: DARConfig = DARConfig()
    nominal_density: float = 0.6
    nominal_degree: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.nominal_density <= 1.0:
            raise ValueError("nominal_density must be in [0, 1]")
        if not 0.0 <= self.nominal_degree <= 1.0:
            raise ValueError("nominal_degree must be in [0, 1]")


@dataclass
class MixedDARResult:
    """Mixed mining output: rules over MixedCluster sides."""

    rules: List[DistanceRule]
    clusters: Dict[str, List[MixedCluster]]
    graph: Optional[ClusteringGraph]
    cliques: List[FrozenSet[int]]
    density_thresholds: Dict[str, float]
    degree_thresholds: Dict[str, float]
    frequency_count: int
    phase2: Phase2Stats

    def rules_sorted(self) -> List[DistanceRule]:
        """Rules ordered by degree (ties broken textually)."""
        return sorted(self.rules, key=lambda rule: (rule.degree, str(rule)))


class MixedDARMiner(DARMiner):
    """Mines DARs over relations mixing interval and nominal attributes."""

    def __init__(self, config: MixedDARConfig = MixedDARConfig()):
        super().__init__(config.base)
        self.mixed_config = config

    # ------------------------------------------------------------------

    def mine_mixed(
        self,
        relation: Relation,
        interval_partitions: Optional[Sequence[AttributePartition]] = None,
        nominal_attributes: Optional[Sequence[str]] = None,
        taxonomies: Optional[Mapping[str, "Taxonomy"]] = None,
    ) -> MixedDARResult:
        """Run both phases over a mixed relation.

        Interval partitions default to one per interval attribute; nominal
        attributes default to every nominal attribute in the schema.

        ``taxonomies`` optionally maps a nominal attribute to a
        :class:`~repro.classic.taxonomy.Taxonomy`; each generalization
        level then becomes an additional virtual nominal partition
        (``attr@1``, ``attr@2``, ...) whose values are the ancestors at
        that level — the [SA95] "one count for all cars" grouping of
        Section 3, lifted into the distance-based framework.  Rules never
        combine two levels of the same attribute (those would be vacuous).
        """
        if len(relation) == 0:
            raise ValueError("cannot mine an empty relation")
        if interval_partitions is None:
            interval_partitions = [
                AttributePartition(name, (name,))
                for name in relation.schema.interval_names()
            ]
        if nominal_attributes is None:
            nominal_attributes = list(relation.schema.nominal_names())
        for name in nominal_attributes:
            if relation.schema[name].kind is not AttributeKind.NOMINAL:
                raise ValueError(f"attribute {name!r} is not nominal")
        interval_partitions = list(interval_partitions)
        nominal_partitions = [
            AttributePartition(name, (name,), metric="discrete")
            for name in nominal_attributes
        ]
        if not interval_partitions and not nominal_partitions:
            raise ValueError("nothing to mine: no partitions")

        n = len(relation)
        frequency_count = max(1, math.ceil(self.config.frequency_fraction * n))
        matrices = {
            p.name: relation.matrix(p.attributes) for p in interval_partitions
        }
        nominal_columns: Dict[str, np.ndarray] = {
            name: relation.column(name) for name in nominal_attributes
        }

        # Generalized virtual partitions from taxonomies ([SA95] levels).
        base_attribute: Dict[str, str] = {
            p.name: p.name for p in interval_partitions + nominal_partitions
        }
        for attribute, taxonomy in (taxonomies or {}).items():
            if attribute not in nominal_columns:
                raise ValueError(
                    f"taxonomy given for {attribute!r}, which is not a mined "
                    "nominal attribute"
                )
            column = nominal_columns[attribute]
            max_depth = max(
                (taxonomy.depth(value) for value in set(column.tolist())), default=0
            )
            for level in range(1, max_depth + 1):
                name = f"{attribute}@{level}"
                generalized = np.empty(n, dtype=object)
                for i, value in enumerate(column):
                    chain = taxonomy.ancestors(value)
                    generalized[i] = chain[level - 1] if len(chain) >= level else value
                nominal_columns[name] = generalized
                nominal_partitions.append(
                    AttributePartition(name, (attribute,), metric="discrete")
                )
                base_attribute[name] = attribute

        all_names = [p.name for p in interval_partitions + nominal_partitions]
        if len(set(all_names)) != len(all_names):
            raise ValueError(f"partition names must be unique, got {all_names}")

        density = self._resolve_density_thresholds(interval_partitions, matrices)
        degree = {
            p.name: self.config.degree_threshold(p.name, density[p.name])
            for p in interval_partitions
        }
        for p in nominal_partitions:
            density[p.name] = self.mixed_config.nominal_density
            degree[p.name] = self.mixed_config.nominal_degree

        # ---------------- Phase I: interval clustering -----------------
        uid = itertools.count()
        clusters: Dict[str, List[MixedCluster]] = {}
        interval_masks: Dict[int, np.ndarray] = {}

        for partition in interval_partitions:
            others = [p for p in interval_partitions if p.name != partition.name]
            clusterer = BirchClusterer(
                partition, others, self._phase1_options(partition, density)
            )
            result = clusterer.fit_arrays(
                matrices[partition.name],
                {p.name: matrices[p.name] for p in others},
            )
            frequent = result.frequent(frequency_count)
            if not frequent:
                continue
            centroids = np.stack([acf.centroid for acf in frequent])
            labels = assign_to_centroids(matrices[partition.name], centroids)
            partition_clusters: List[MixedCluster] = []
            for index, acf in enumerate(frequent):
                mask = labels == index
                if not mask.any():
                    # Greedy closest-centroid labeling can strand a summary
                    # with no assigned tuples; it cannot carry nominal
                    # images, so it sits out Phase II.
                    continue
                images: Dict[str, object] = {partition.name: acf.cf}
                for other in others:
                    images[other.name] = acf.cross[other.name]
                for name, column in nominal_columns.items():
                    images[name] = NominalFeature.of_values(column[mask])
                cluster = MixedCluster(
                    uid=next(uid), partition=partition, images=images
                )
                interval_masks[cluster.uid] = mask
                partition_clusters.append(cluster)
            clusters[partition.name] = partition_clusters

        # ---------------- Phase I': nominal value grouping --------------
        nominal_masks: Dict[int, np.ndarray] = {}
        for partition in nominal_partitions:
            column = nominal_columns[partition.name]
            # Group on the raw values, as every histogram counts them, so
            # each cluster is value-pure (Thm 5.1) even where two values
            # render alike (1 and "1"); groups run in rendered order.
            rows_of: Dict[object, List[int]] = {}
            for row, value in enumerate(column.tolist()):
                rows_of.setdefault(value, []).append(row)
            partition_clusters = []
            for rows in sorted(
                rows_of.values(), key=lambda rows: (str(column[rows[0]]), rows[0])
            ):
                if len(rows) < frequency_count:
                    continue
                mask = np.zeros(n, dtype=bool)
                mask[rows] = True
                images = {
                    partition.name: NominalFeature.of_values(column[mask])
                }
                for p in interval_partitions:
                    images[p.name] = CF.of_points(matrices[p.name][mask])
                for name, other_column in nominal_columns.items():
                    if name == partition.name:
                        continue
                    images[name] = NominalFeature.of_values(other_column[mask])
                cluster = MixedCluster(
                    uid=next(uid),
                    partition=partition,
                    images=images,
                    value=column[rows[0]],
                )
                nominal_masks[cluster.uid] = mask
                partition_clusters.append(cluster)
            if partition_clusters:
                clusters[partition.name] = partition_clusters

        # ---------------- Phase II --------------------------------------
        masks = {**interval_masks, **nominal_masks}

        def postprocess(rules: List[DistanceRule]) -> List[DistanceRule]:
            # A rule mixing two generalization levels of one attribute
            # (job=honda with job@1=car) is vacuous: drop it.
            rules = [
                rule
                for rule in rules
                if len(
                    {
                        base_attribute[c.partition.name]
                        for c in rule.antecedent + rule.consequent
                    }
                )
                == len(rule.antecedent) + len(rule.consequent)
            ]
            return postscan(self.config, rules, lambda: masks, n)

        graph, cliques, rules, phase2 = run_phase2(
            self.config,
            clusters,
            density,
            degree,
            n_clusters=sum(len(group) for group in clusters.values()),
            # Nominal thresholds are already [0, 1] fractions.
            leniency={p.name: 1.0 for p in nominal_partitions},
            postprocess=postprocess,
            span_attributes={"mixed": True},
        )

        return MixedDARResult(
            rules=rules,
            clusters=clusters,
            graph=graph,
            cliques=cliques,
            density_thresholds=density,
            degree_thresholds=degree,
            frequency_count=frequency_count,
            phase2=phase2,
        )
