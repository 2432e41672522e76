"""Scalar-vs-vectorized Phase II equivalence (core/phase2_kernel.py).

The vectorized kernel claims decision-equivalence with the per-pair
scalar path: identical edge sets, identical GraphStats accounting,
distances within 1e-9.  These tests pin that on hand-built populations,
on full miner runs over the synthetic workloads, and on random ACF
populations via hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF
from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.graph import build_clustering_graph
from repro.core.miner import DARMiner
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation

PARTITIONS = {
    "x": AttributePartition("x", ("x",)),
    "y": AttributePartition("y", ("y",)),
    "z": AttributePartition("z", ("z",)),
}


def edge_set(graph):
    return {
        frozenset((a, b))
        for a, neighbors in graph.adjacency.items()
        for b in neighbors
    }


def random_population(seed, n_clusters=8, names=("x", "y", "z")):
    """Random single-attribute clusters with full cross moments."""
    rng = np.random.default_rng(seed)
    clusters = []
    for uid in range(n_clusters):
        own_name = names[int(rng.integers(len(names)))]
        n_points = int(rng.integers(1, 6))
        center = rng.normal(0.0, 10.0, size=len(names))
        spread = float(rng.uniform(0.01, 5.0))
        columns = {
            name: (center[i] + rng.normal(0.0, spread, size=n_points)).reshape(-1, 1)
            for i, name in enumerate(names)
        }
        acf = ACF.of_points(
            columns[own_name],
            {name: columns[name] for name in names if name != own_name},
        )
        clusters.append(
            Cluster(uid=uid, partition=PARTITIONS[own_name], acf=acf)
        )
    return clusters


def thresholds_for(clusters, scale):
    names = {c.partition.name for c in clusters}
    return {name: scale for name in names}


class TestKernelMatrices:
    def test_pairwise_matches_image_distance(self):
        clusters = random_population(seed=1, n_clusters=10)
        for metric in ("d1", "d2"):
            kernel = Phase2Kernel(clusters, metric=metric)
            for name in kernel.partition_names:
                matrix = kernel.pairwise_on(name)
                for i, a in enumerate(kernel.order):
                    for j, b in enumerate(kernel.order):
                        if i == j:
                            continue
                        want = image_distance(a, b, on=name, metric=metric)
                        assert matrix[i, j] == pytest.approx(want, abs=1e-9)

    def test_image_diameters_match_scalar(self):
        clusters = random_population(seed=2, n_clusters=10)
        kernel = Phase2Kernel(clusters)
        for name in kernel.partition_names:
            diameters = kernel.image_diameters_on(name)
            for i, cluster in enumerate(kernel.order):
                assert diameters[i] == pytest.approx(
                    cluster.image_diameter(name), abs=1e-9
                )

    def test_distance_lookup_symmetric(self):
        clusters = random_population(seed=3, n_clusters=6)
        kernel = Phase2Kernel(clusters)
        name = kernel.partition_names[0]
        a, b = clusters[0].uid, clusters[1].uid
        assert kernel.distance(a, b, name) == pytest.approx(
            kernel.distance(b, a, name), abs=1e-12
        )

    def test_duplicate_uid_rejected(self):
        clusters = random_population(seed=4, n_clusters=3)
        twin = Cluster(
            uid=clusters[0].uid,
            partition=clusters[1].partition,
            acf=clusters[1].acf,
        )
        with pytest.raises(ValueError, match="duplicate"):
            Phase2Kernel(clusters + [twin])

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError, match="bogus"):
            Phase2Kernel(random_population(seed=5, n_clusters=2), metric="bogus")

    def test_supports_rejects_missing_cross_moments(self):
        incomplete = Cluster(
            uid=0,
            partition=PARTITIONS["x"],
            acf=ACF.of_points(np.array([[1.0]]), {}),  # no cross moments
        )
        complete = Cluster(
            uid=1,
            partition=PARTITIONS["y"],
            acf=ACF.of_points(
                np.array([[2.0]]), {"x": np.array([[1.0]])}
            ),
        )
        assert not Phase2Kernel.supports([incomplete, complete])
        assert Phase2Kernel.supports([complete])

    def test_empty_population(self):
        kernel = Phase2Kernel([])
        graph = kernel.build_graph({})
        assert graph.n_nodes == 0
        assert graph.n_edges == 0


class TestGraphEquivalence:
    @pytest.mark.parametrize("metric", ["d1", "d2"])
    @pytest.mark.parametrize("pruning", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_populations(self, metric, pruning, seed):
        clusters = random_population(seed=seed, n_clusters=12)
        thresholds = thresholds_for(clusters, scale=4.0)
        scalar = build_clustering_graph(
            clusters, thresholds, metric=metric,
            use_density_pruning=pruning, engine="scalar",
        )
        vector = build_clustering_graph(
            clusters, thresholds, metric=metric,
            use_density_pruning=pruning, engine="vector",
        )
        assert scalar.stats.engine == "scalar"
        assert vector.stats.engine == "vector"
        assert edge_set(scalar) == edge_set(vector)
        assert scalar.stats.comparisons == vector.stats.comparisons
        assert scalar.stats.skipped == vector.stats.skipped
        assert scalar.stats.edges == vector.stats.edges

    def test_auto_prefers_vector_for_cf_images(self):
        clusters = random_population(seed=7, n_clusters=6)
        graph = build_clustering_graph(
            clusters, thresholds_for(clusters, 2.0), engine="auto"
        )
        assert graph.stats.engine == "vector"

    def test_unknown_engine_rejected(self):
        clusters = random_population(seed=8, n_clusters=2)
        with pytest.raises(ValueError, match="engine"):
            build_clustering_graph(
                clusters, thresholds_for(clusters, 1.0), engine="turbo"
            )

    def test_missing_threshold_rejected_by_vector_engine(self):
        clusters = random_population(seed=9, n_clusters=4)
        thresholds = thresholds_for(clusters, 1.0)
        present = {c.partition.name for c in clusters}
        thresholds.pop(sorted(present)[0])
        with pytest.raises(ValueError, match="threshold"):
            build_clustering_graph(clusters, thresholds, engine="vector")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_clusters=st.integers(2, 14),
        scale=st.floats(0.1, 50.0),
        metric=st.sampled_from(["d1", "d2"]),
        pruning=st.booleans(),
    )
    def test_property_random_acf_populations(
        self, seed, n_clusters, scale, metric, pruning
    ):
        clusters = random_population(seed=seed, n_clusters=n_clusters)
        thresholds = thresholds_for(clusters, scale)
        scalar = build_clustering_graph(
            clusters, thresholds, metric=metric,
            use_density_pruning=pruning, engine="scalar",
        )
        vector = build_clustering_graph(
            clusters, thresholds, metric=metric,
            use_density_pruning=pruning, engine="vector",
        )
        assert edge_set(scalar) == edge_set(vector)
        assert scalar.stats.comparisons == vector.stats.comparisons
        assert scalar.stats.skipped == vector.stats.skipped
        assert scalar.stats.edges == vector.stats.edges


class TestAssocEquivalence:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_assoc_sets_match_scalar_loop(self, seed):
        clusters = random_population(seed=seed, n_clusters=10)
        kernel = Phase2Kernel(clusters, metric="d2")
        degree = thresholds_for(clusters, scale=6.0)
        assoc = kernel.assoc_sets(degree)
        for y in clusters:
            want = {
                x.uid
                for x in clusters
                if x.partition.name != y.partition.name
                and image_distance(x, y, on=y.partition.name, metric="d2")
                <= degree[y.partition.name]
            }
            assert set(kernel.uids[assoc[y.uid]].tolist()) == want

    def test_targets_limit_assoc_computation(self):
        clusters = random_population(seed=13, n_clusters=10)
        kernel = Phase2Kernel(clusters)
        degree = thresholds_for(clusters, scale=6.0)
        only_x = kernel.assoc_sets(degree, targets=frozenset({"x"}))
        assert only_x  # the population always has at least one x cluster
        assert all(
            kernel.clusters[uid].partition.name == "x" for uid in only_x
        )


class TestMinerEquivalence:
    """End-to-end: both engines mine identical rule sets."""

    @pytest.mark.parametrize(
        "relation_factory",
        [
            lambda: make_planted_rule_relation(seed=3)[0],
            lambda: make_clustered_relation(
                n_modes=5, points_per_mode=80, n_attributes=3, seed=7
            )[0],
        ],
        ids=["planted", "clustered"],
    )
    @pytest.mark.parametrize("metric", ["d1", "d2"])
    def test_scalar_and_vector_mine_identical_rules(self, relation_factory, metric):
        relation = relation_factory()
        scalar = DARMiner(
            DARConfig(metric=metric, phase2_engine="scalar")
        ).mine(relation)
        vector = DARMiner(
            DARConfig(metric=metric, phase2_engine="vector")
        ).mine(relation)
        assert scalar.phase2.engine == "scalar"
        assert vector.phase2.engine == "vector"
        assert edge_set(scalar.graph) == edge_set(vector.graph)
        assert scalar.phase2.comparisons == vector.phase2.comparisons
        assert (
            scalar.phase2.comparisons_skipped == vector.phase2.comparisons_skipped
        )
        assert [r.key() for r in scalar.rules] == [r.key() for r in vector.rules]
        for a, b in zip(scalar.rules, vector.rules):
            assert b.degree == pytest.approx(a.degree, abs=1e-9)
            for uid, value in a.degrees.items():
                assert b.degrees[uid] == pytest.approx(value, abs=1e-9)

    def test_stats_breakdown_populated(self):
        relation, _ = make_planted_rule_relation(seed=9)
        result = DARMiner().mine(relation)
        phase2 = result.phase2
        assert phase2.engine == "vector"
        breakdown = phase2.stage_breakdown()
        assert set(breakdown) == {"extract", "graph", "cliques", "rules"}
        assert all(seconds >= 0.0 for seconds in breakdown.values())
        # The stage timers cover work included in the phase total.
        assert sum(breakdown.values()) <= phase2.seconds + 1e-6

    def test_targets_equivalent_across_engines(self):
        relation, planted = make_planted_rule_relation(seed=4)
        target = sorted(relation.schema.interval_names())[0]
        scalar = DARMiner(DARConfig(phase2_engine="scalar")).mine(
            relation, targets=[target]
        )
        vector = DARMiner(DARConfig(phase2_engine="vector")).mine(
            relation, targets=[target]
        )
        assert [r.key() for r in scalar.rules] == [r.key() for r in vector.rules]


class TestDegenerateRouting:
    """Satellite of the errstate removal: singletons are routed
    explicitly, so the kernel runs clean under raise-on-everything, and
    genuinely degenerate moments fail loudly via require_finite."""

    def test_singletons_clean_under_seterr_raise(self):
        from repro.core.phase2_kernel import ImageMoments

        moments = ImageMoments(
            n=np.array([1.0, 1.0, 3.0]),
            ls=np.array([[2.0], [-1.0], [6.0]]),
            ss=np.array([4.0, 1.0, 12.5]),
        )
        with np.errstate(all="raise"):
            diameters = moments.rms_diameters()
        assert diameters[0] == 0.0
        assert diameters[1] == 0.0
        assert diameters[2] > 0.0

    def test_all_singleton_population_mines_clean(self):
        clusters = random_population(17, n_clusters=6)
        with np.errstate(all="raise"):
            kernel = Phase2Kernel(clusters, metric="d2")
            for name in ("x", "y", "z"):
                kernel.pairwise_on(name)
                kernel.image_diameters_on(name)

    def test_require_finite_names_partition_and_counts(self):
        from repro.core.phase2_kernel import require_finite

        require_finite(np.ones((2, 2)), "pairwise image distances", "x")
        bad = np.array([np.nan, 1.0, np.inf])
        with pytest.raises(ValueError, match=r"'age'.*2 non-finite"):
            require_finite(bad, "image RMS diameters", "age")

    def test_kernel_rejects_nonfinite_moments(self):
        clusters = random_population(23, n_clusters=5)
        kernel = Phase2Kernel(clusters, metric="d2")
        name = clusters[0].partition.name
        kernel._moments[name].ss[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kernel.pairwise_on(name)
