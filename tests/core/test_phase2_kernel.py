"""The Phase II kernel (core/phase2_kernel.py) against per-pair oracles.

The blocked kernel claims decision-equivalence with one Python distance
call per pair (``tests/core/graph_oracle.py``, and the per-pair mode of
``tests/core/rules_oracle.py``): identical edge sets, identical
GraphStats accounting, distances within 1e-9 on CF images and equal bit
for bit on nominal value histograms.  These tests pin that on hand-built
populations, on full miner runs over the synthetic workloads, and on
random ACF and mixed populations via hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF, CF
from repro.core.cliques import maximal_cliques
from repro.core.cluster import Cluster, image_distance
from repro.core.config import DARConfig
from repro.core.graph import build_clustering_graph
from repro.core.miner import DARMiner
from repro.core.phase2 import _form_rules
from repro.core.phase2_kernel import Phase2Kernel, pairwise_block
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation
from repro.mixed.cluster import MixedCluster
from repro.mixed.features import NominalFeature

from tests.core.graph_oracle import reference_graph
from tests.core.rules_oracle import reference_rules

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


#: Nominal values of mixed types: the kernel's vocabulary keys on the
#: raw values, as ``NominalFeature`` does.
VALUES = ["a", "b", "c", 1, 2, 2.5]

histograms = st.dictionaries(
    st.sampled_from(VALUES), st.integers(1, 60), min_size=1, max_size=len(VALUES)
).map(NominalFeature)


def mixed_population(seed, n_clusters=10):
    """MixedClusters over interval ``x``/``y`` and nominal ``job``/``dept``:
    CF images on the interval partitions, value histograms on the
    nominal ones, each cluster carrying an image on all four."""
    rng = np.random.default_rng(seed)
    names = ("x", "y", "job", "dept")
    clusters = []
    for uid in range(n_clusters):
        own = names[uid] if uid < len(names) else names[int(rng.integers(4))]
        n_points = int(rng.integers(1, 6))
        center = rng.normal(0.0, 3.0, size=2)
        images = {
            name: CF.of_points(
                (center[i] + rng.normal(0.0, 1.0, n_points)).reshape(-1, 1)
            )
            for i, name in enumerate(("x", "y"))
        }
        for name, domain in (("job", VALUES[:3]), ("dept", VALUES[3:])):
            images[name] = NominalFeature.of_values(
                rng.choice(np.array(domain, dtype=object), n_points)
            )
        value = None
        if own in ("job", "dept"):
            value = next(iter(images[own].counts))
            images[own] = NominalFeature({value: n_points})
        metric = "discrete" if value is not None else "euclidean"
        clusters.append(MixedCluster(
            uid=uid,
            partition=AttributePartition(own, (own,), metric=metric),
            images=images,
            value=value,
        ))
    return clusters


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

    def test_blocks_deterministic_and_close_to_full(self):
        # Bit-identity holds per *operand shape*: the same block recomputed
        # anywhere (any process, any time) gives the same bits.  A block
        # of a different shape (the full matrix) may differ in the last
        # BLAS bits for d2, so cross-shape we only claim closeness.
        rng = np.random.default_rng(3)
        k = 23
        n = rng.integers(1, 9, size=k).astype(float)
        ls = rng.normal(size=(k, 2))
        ss = (ls**2).sum(axis=1) / n + rng.uniform(0.1, 2.0, size=k)
        for metric in ("d1", "d2"):
            full = pairwise_block(metric, n, ls, ss, 0, k)
            assert np.array_equal(full, pairwise_block(metric, n, ls, ss, 0, k))
            for start in range(0, k, 7):
                stop = min(start + 7, k)
                block = pairwise_block(metric, n, ls, ss, start, stop)
                assert np.array_equal(
                    block, pairwise_block(metric, n, ls, ss, start, stop)
                )
                np.testing.assert_allclose(block, full[start:stop], atol=1e-12)

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

    def test_missing_cross_moments_rejected(self):
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
        with pytest.raises(KeyError, match="cross moments"):
            Phase2Kernel([incomplete, complete])
        assert Phase2Kernel([complete]).k == 1

    def test_mixed_image_kinds_rejected(self):
        clusters = mixed_population(seed=6, n_clusters=4)
        clusters[0].images["job"] = clusters[0].images["x"]
        with pytest.raises(TypeError, match="'job'"):
            Phase2Kernel(clusters)

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
        assert_same_graph(clusters, thresholds, metric, pruning)

    def test_unknown_engine_rejected(self):
        # The engine choice is gone: any engine= is a TypeError.
        clusters = random_population(seed=8, n_clusters=2)
        with pytest.raises(TypeError, match="engine"):
            build_clustering_graph(
                clusters, thresholds_for(clusters, 1.0), engine="turbo"
            )

    def test_missing_threshold_rejected_by_vector_engine(self):
        clusters = random_population(seed=9, n_clusters=4)
        thresholds = thresholds_for(clusters, 1.0)
        present = {c.partition.name for c in clusters}
        thresholds.pop(sorted(present)[0])
        with pytest.raises(ValueError, match="threshold"):
            build_clustering_graph(clusters, thresholds)

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
        assert_same_graph(
            clusters, thresholds_for(clusters, scale), metric, pruning
        )


def assert_same_graph(clusters, thresholds, metric, pruning):
    """The kernel-built graph equals the per-pair oracle's."""
    oracle = reference_graph(
        clusters, thresholds, metric=metric, use_density_pruning=pruning
    )
    kernel = build_clustering_graph(
        clusters, thresholds, metric=metric, use_density_pruning=pruning
    )
    assert edge_set(oracle) == edge_set(kernel)
    assert oracle.stats == kernel.stats


class TestNominalKernel:
    """Nominal partitions: stacked value histograms, Thm 5.2 by matmul."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(histograms, min_size=1, max_size=12))
    def test_d2_and_diameter_bit_identical(self, images):
        partition = AttributePartition("job", ("job",), metric="discrete")
        clusters = [
            MixedCluster(uid=i, partition=partition, images={"job": image},
                         value=next(iter(image.counts)))
            for i, image in enumerate(images)
        ]
        for metric in ("d1", "d2"):
            kernel = Phase2Kernel(clusters, metric=metric)
            matrix = kernel.pairwise_on("job")
            diameters = kernel.image_diameters_on("job")
            for i, a in enumerate(images):
                assert diameters[i] == a.diameter
                for j, b in enumerate(images):
                    assert matrix[i, j] == a.d2(b)

    @pytest.mark.parametrize("metric", ["d1", "d2"])
    @pytest.mark.parametrize("pruning", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_graph_matches_oracle(self, metric, pruning, seed):
        clusters = mixed_population(seed=seed, n_clusters=14)
        thresholds = {"x": 3.0, "y": 3.0, "job": 0.6, "dept": 0.6}
        assert_same_graph(clusters, thresholds, metric, pruning)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_mixed_rules_match_per_pair_reference(self, seed):
        clusters = mixed_population(seed=seed, n_clusters=14)
        thresholds = {"x": 4.0, "y": 4.0, "job": 0.7, "dept": 0.7}
        degree = {"x": 6.0, "y": 6.0, "job": 0.5, "dept": 0.5}
        config = DARConfig(max_antecedent=3, max_consequent=2)
        graph = build_clustering_graph(clusters, thresholds)
        kernel = Phase2Kernel(clusters)
        want = reference_rules(
            config, graph, maximal_cliques(graph.adjacency), degree
        )
        got = _form_rules(config, graph, degree, kernel)
        assert want
        assert listing(got) == listing(want)


def listing(rules):
    return [
        (str(rule), repr(rule.degree), repr(list(rule.degrees.items())))
        for rule in rules
    ]


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


def assert_miner_matches_per_pair(result, config, targets=None):
    """The miner's graph and rules equal the per-pair oracles' over the
    same frequent clusters and (leniency-scaled) thresholds."""
    flat = [c for group in result.frequent_clusters.values() for c in group]
    lenient = {
        name: config.phase2_leniency * value
        for name, value in result.density_thresholds.items()
    }
    graph = reference_graph(flat, lenient, metric=config.metric)
    assert edge_set(graph) == edge_set(result.graph)
    assert graph.stats == result.graph.stats
    assert result.phase2.comparisons == graph.stats.comparisons
    assert result.phase2.comparisons_skipped == graph.stats.skipped
    rules = reference_rules(
        config, graph, maximal_cliques(graph.adjacency),
        result.degree_thresholds,
        targets=None if targets is None else frozenset(targets),
    )
    assert [r.key() for r in rules] == [r.key() for r in result.rules]
    for a, b in zip(rules, result.rules):
        assert b.degree == pytest.approx(a.degree, abs=1e-9)
        for uid, value in a.degrees.items():
            assert b.degrees[uid] == pytest.approx(value, abs=1e-9)


class TestMinerEquivalence:
    """End-to-end: the kernel mines what the per-pair oracles give."""

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
        config = DARConfig(metric=metric)
        result = DARMiner(config).mine(relation_factory())
        assert result.rules
        assert_miner_matches_per_pair(result, config)

    def test_stats_breakdown_populated(self):
        relation, _ = make_planted_rule_relation(seed=9)
        result = DARMiner().mine(relation)
        phase2 = result.phase2
        breakdown = phase2.stage_breakdown()
        assert set(breakdown) == {"extract", "graph", "cliques", "rules", "postscan"}
        assert all(seconds >= 0.0 for seconds in breakdown.values())
        # The stage timers cover work included in the phase total.
        assert sum(breakdown.values()) <= phase2.seconds + 1e-6

    def test_targets_equivalent_across_engines(self):
        relation, planted = make_planted_rule_relation(seed=4)
        target = sorted(relation.schema.interval_names())[0]
        config = DARConfig()
        result = DARMiner(config).mine(relation, targets=[target])
        assert result.rules
        assert_miner_matches_per_pair(result, config, targets=[target])


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
