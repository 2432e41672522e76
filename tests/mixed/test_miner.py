"""Tests for mixed interval + qualitative DAR mining (Section 8 extension)."""

import math

import numpy as np
import pytest

from repro.core.config import DARConfig
from repro.data.relation import AttributePartition, Relation, Schema
from repro.mixed.cluster import MixedCluster
from repro.mixed.features import NominalFeature
from repro.mixed.miner import MixedDARConfig, MixedDARMiner


def make_mixed_relation(n_per_mode=150, seed=5):
    """Three job modes with characteristic ages and salaries."""
    rng = np.random.default_rng(seed)
    modes = [("dba", 30, 42_000), ("mgr", 45, 90_000), ("qa", 25, 35_000)]
    jobs, ages, salaries = [], [], []
    for job, age_center, salary_center in modes:
        jobs += [job] * n_per_mode
        ages.append(rng.normal(age_center, 1.2, n_per_mode))
        salaries.append(rng.normal(salary_center, 1_200, n_per_mode))
    order = rng.permutation(3 * n_per_mode)
    schema = Schema.of(job="nominal", age="interval", salary="interval")
    return Relation(
        schema,
        {
            "job": [jobs[i] for i in order],
            "age": np.concatenate(ages)[order],
            "salary": np.concatenate(salaries)[order],
        },
    )


@pytest.fixture(scope="module")
def result():
    return MixedDARMiner().mine_mixed(make_mixed_relation())


class TestConfig:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            MixedDARConfig(nominal_density=1.5)
        with pytest.raises(ValueError):
            MixedDARConfig(nominal_degree=-0.1)


class TestMixedCluster:
    def test_own_image_required(self):
        with pytest.raises(ValueError, match="own image"):
            MixedCluster(
                uid=1,
                partition=AttributePartition("x", ("x",)),
                images={"y": NominalFeature.of_value("a")},
            )

    def test_nominal_cluster_properties(self):
        cluster = MixedCluster(
            uid=1,
            partition=AttributePartition("job", ("job",), metric="discrete"),
            images={"job": NominalFeature({"dba": 5})},
            value="dba",
        )
        assert cluster.is_nominal
        assert cluster.n == 5
        assert cluster.diameter == 0.0  # value-pure, Theorem 5.1
        with pytest.raises(TypeError):
            cluster.centroid
        with pytest.raises(TypeError):
            cluster.bounding_box()
        assert "job=dba" in str(cluster)


class TestMining:
    def test_nominal_partitions_discovered(self, result):
        assert "job" in result.clusters
        values = {cluster.value for cluster in result.clusters["job"]}
        assert values == {"dba", "mgr", "qa"}

    def test_nominal_clusters_are_pure(self, result):
        for cluster in result.clusters["job"]:
            assert cluster.diameter == 0.0

    def test_interval_to_nominal_rules(self, result):
        """salary~90K => job=mgr with degree ~0 (confidence ~1)."""
        hits = [
            rule
            for rule in result.rules
            if any(
                c.partition.name == "salary"
                and not c.is_nominal
                and abs(float(c.centroid[0]) - 90_000) < 5_000
                for c in rule.antecedent
            )
            and any(
                c.is_nominal and c.value == "mgr" for c in rule.consequent
            )
        ]
        assert hits
        assert min(rule.degree for rule in hits) < 0.05

    def test_nominal_to_interval_rules(self, result):
        """job=mgr => salary~90K."""
        hits = [
            rule
            for rule in result.rules
            if any(c.is_nominal and c.value == "mgr" for c in rule.antecedent)
            and any(
                c.partition.name == "salary"
                and abs(float(c.centroid[0]) - 90_000) < 5_000
                for c in rule.consequent
            )
        ]
        assert hits

    def test_degrees_respect_nominal_threshold(self, result):
        for rule in result.rules:
            for consequent in rule.consequent:
                if consequent.is_nominal:
                    assert (
                        rule.degrees[consequent.uid]
                        <= result.degree_thresholds["job"] + 1e-9
                    )

    def test_rule_sides_partition_disjoint(self, result):
        for rule in result.rules:
            names = [c.partition.name for c in rule.antecedent + rule.consequent]
            assert len(names) == len(set(names))

    def test_infrequent_values_excluded(self):
        relation = make_mixed_relation(n_per_mode=100)
        # Add two stray job values below any sane frequency bar.
        stray = Relation(
            relation.schema,
            {
                "job": ["intern", "ceo"],
                "age": [22.0, 60.0],
                "salary": [10_000.0, 500_000.0],
            },
        )
        combined = relation.concat(stray)
        result = MixedDARMiner().mine_mixed(combined)
        values = {cluster.value for cluster in result.clusters["job"]}
        assert "intern" not in values and "ceo" not in values

    def test_non_string_values_mine_like_their_string_twin(self):
        """Every histogram on a nominal partition is keyed by the raw
        values, so an int column mines the rules its string rendering
        does (a key mismatch reads D2 = 1 and drops every salary => job
        rule)."""
        rng = np.random.default_rng(0)
        jobs = np.repeat([1, 2, 3], 100).tolist()
        salary = np.concatenate([rng.normal(m, 1.0, 100) for m in (10, 50, 90)])
        schema = Schema.of(job="nominal", salary="interval")

        def descriptions(column):
            relation = Relation(schema, {"job": column, "salary": salary})
            return [str(rule) for rule in MixedDARMiner().mine_mixed(relation).rules]

        as_ints = descriptions(jobs)
        assert as_ints == descriptions([str(job) for job in jobs])
        assert any(
            rule.startswith("C0(salary") and "job=1" in rule for rule in as_ints
        )

    def test_values_that_render_alike_stay_apart(self):
        """Grouping is on raw values: 1 and "1" are two value-pure
        clusters (Thm 5.1: diameter 0), not one mixed one."""
        rng = np.random.default_rng(0)
        jobs = [1] * 100 + ["1"] * 100 + [2] * 100
        salary = np.concatenate([rng.normal(m, 1.0, 100) for m in (10, 50, 90)])
        relation = Relation(
            Schema.of(job="nominal", salary="interval"),
            {"job": jobs, "salary": salary},
        )
        clusters = MixedDARMiner().mine_mixed(relation).clusters["job"]
        assert [(c.value, c.n) for c in clusters] == [(1, 100), ("1", 100), (2, 100)]
        assert [c.diameter for c in clusters] == [0.0, 0.0, 0.0]

    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError):
            MixedDARMiner().mine_mixed(
                Relation.empty(Schema.of(a="interval", b="nominal"))
            )

    def test_non_nominal_attribute_rejected(self):
        relation = make_mixed_relation(n_per_mode=20)
        with pytest.raises(ValueError, match="not nominal"):
            MixedDARMiner().mine_mixed(relation, nominal_attributes=["age"])

    def test_interval_only_still_works(self):
        relation = make_mixed_relation(n_per_mode=100)
        result = MixedDARMiner().mine_mixed(relation, nominal_attributes=[])
        assert "job" not in result.clusters
        assert result.rules  # age <-> salary rules survive

    def test_strict_nominal_degree_prunes_rules(self):
        relation = make_mixed_relation(n_per_mode=100)
        loose = MixedDARMiner(MixedDARConfig(nominal_degree=0.5)).mine_mixed(relation)
        strict = MixedDARMiner(MixedDARConfig(nominal_degree=0.01)).mine_mixed(relation)

        def nominal_consequent_rules(result):
            return [
                rule
                for rule in result.rules
                if any(c.is_nominal for c in rule.consequent)
            ]

        assert len(nominal_consequent_rules(strict)) <= len(
            nominal_consequent_rules(loose)
        )

    def test_theorem52_reading_of_degree(self, result):
        """degree toward a nominal consequent == 1 - classical confidence."""
        relation = make_mixed_relation()
        jobs = relation.column("job")
        salaries = relation.column("salary")
        for rule in result.rules:
            if len(rule.antecedent) != 1 or len(rule.consequent) != 1:
                continue
            (antecedent,) = rule.antecedent
            (consequent,) = rule.consequent
            if antecedent.partition.name != "salary" or not consequent.is_nominal:
                continue
            lo = float(antecedent.centroid[0]) - 3 * 1_200
            hi = float(antecedent.centroid[0]) + 3 * 1_200
            mask = (salaries >= lo) & (salaries <= hi)
            if not mask.any():
                continue
            confidence = (jobs[mask] == consequent.value).mean()
            # The cluster's tuple set approximates the mask; allow slack.
            assert rule.degree == pytest.approx(1 - confidence, abs=0.15)


class TestTaxonomyLevels:
    """Generalized virtual partitions from a taxonomy ([SA95] levels)."""

    @staticmethod
    def make_product_relation(n_per_brand=80, seed=5):
        from repro.classic.taxonomy import Taxonomy

        rng = np.random.default_rng(seed)
        brands = [
            ("honda", 40_000), ("ford", 41_000),
            ("bmx", 25_000), ("road", 26_000),
        ]
        products, pays = [], []
        for brand, pay_center in brands:
            products += [brand] * n_per_brand
            pays.append(rng.normal(pay_center, 800, n_per_brand))
        order = rng.permutation(4 * n_per_brand)
        relation = Relation(
            Schema.of(product="nominal", pay="interval"),
            {
                "product": [products[i] for i in order],
                "pay": np.concatenate(pays)[order],
            },
        )
        taxonomy = Taxonomy(
            {"honda": "car", "ford": "car", "bmx": "bike", "road": "bike"}
        )
        return relation, taxonomy

    def test_generalized_partition_created(self):
        relation, taxonomy = self.make_product_relation()
        result = MixedDARMiner().mine_mixed(relation, taxonomies={"product": taxonomy})
        assert "product@1" in result.clusters
        values = {c.value for c in result.clusters["product@1"]}
        assert values == {"car", "bike"}

    def test_ancestor_clusters_aggregate_counts(self):
        relation, taxonomy = self.make_product_relation()
        result = MixedDARMiner().mine_mixed(relation, taxonomies={"product": taxonomy})
        car = next(c for c in result.clusters["product@1"] if c.value == "car")
        assert car.n == 160  # honda + ford

    def test_generalized_rules_stronger(self):
        """pay ~ 40-41K implies 'car' perfectly but each brand only ~50%."""
        relation, taxonomy = self.make_product_relation()
        result = MixedDARMiner().mine_mixed(relation, taxonomies={"product": taxonomy})
        car_degrees = [
            rule.degree
            for rule in result.rules
            if any(c.value == "car" for c in rule.consequent)
        ]
        brand_degrees = [
            rule.degree
            for rule in result.rules
            if any(c.value in ("honda", "ford") for c in rule.consequent)
        ]
        assert car_degrees and brand_degrees
        assert min(car_degrees) < min(brand_degrees)

    def test_no_cross_level_rules(self):
        """No rule may relate product and product@1 clusters."""
        relation, taxonomy = self.make_product_relation()
        result = MixedDARMiner().mine_mixed(relation, taxonomies={"product": taxonomy})
        for rule in result.rules:
            bases = [
                c.partition.name.split("@")[0]
                for c in rule.antecedent + rule.consequent
            ]
            assert len(bases) == len(set(bases))

    def test_taxonomy_for_unknown_attribute_rejected(self):
        from repro.classic.taxonomy import Taxonomy

        relation, taxonomy = self.make_product_relation()
        with pytest.raises(ValueError, match="not a mined"):
            MixedDARMiner().mine_mixed(
                relation, taxonomies={"missing": taxonomy}
            )

    def test_no_taxonomy_unchanged(self):
        relation, _ = self.make_product_relation()
        result = MixedDARMiner().mine_mixed(relation)
        assert "product@1" not in result.clusters


class TestMixedSupportCounting:
    def test_counts_populated_and_sane(self):
        relation = make_mixed_relation(n_per_mode=100)
        config = MixedDARConfig(base=DARConfig(count_rule_support=True))
        result = MixedDARMiner(config).mine_mixed(relation)
        assert result.rules
        for rule in result.rules:
            assert rule.support_count is not None
            assert 0 <= rule.support_count <= len(relation)

    def test_strong_mixed_rule_support_matches_mode(self):
        """salary~90K => job=mgr should be supported by ~the whole mode."""
        relation = make_mixed_relation(n_per_mode=100)
        config = MixedDARConfig(base=DARConfig(count_rule_support=True))
        result = MixedDARMiner(config).mine_mixed(relation)
        hits = [
            rule
            for rule in result.rules
            if len(rule.antecedent) == 1
            and rule.antecedent[0].partition.name == "salary"
            and abs(float(rule.antecedent[0].centroid[0]) - 90_000) < 5_000
            and any(c.is_nominal and c.value == "mgr" for c in rule.consequent)
        ]
        assert hits
        assert max(rule.support_count or 0 for rule in hits) >= 80

    @pytest.mark.parametrize("fraction", [0.2, 0.5])
    def test_rule_support_fraction_applies_the_bar(self, fraction):
        """The bar counts support on its own and keeps exactly the counted
        rules at or above ``ceil(fraction * n)``; no mode here covers half
        of the relation, so 0.5 keeps none."""
        relation = make_mixed_relation()
        bar = math.ceil(fraction * len(relation))
        counted = MixedDARMiner(
            MixedDARConfig(base=DARConfig(count_rule_support=True))
        ).mine_mixed(relation)
        result = MixedDARMiner(
            MixedDARConfig(base=DARConfig(rule_support_fraction=fraction))
        ).mine_mixed(relation)
        for rule in result.rules:
            assert rule.support_count is not None
            assert rule.support_count >= bar
        expected = [
            (str(rule), rule.support_count)
            for rule in counted.rules
            if rule.support_count >= bar
        ]
        assert [(str(r), r.support_count) for r in result.rules] == expected
        assert len(result.rules) < len(counted.rules)


class TestMixedClusterIntervalKind:
    def test_interval_bounding_box_from_moments(self):
        from repro.birch.features import CF

        cf = CF.of_points(np.array([[1.0], [3.0]]))
        cluster = MixedCluster(
            uid=1,
            partition=AttributePartition("x", ("x",)),
            images={"x": cf},
        )
        lo, hi = cluster.bounding_box()
        assert lo[0] < 2.0 < hi[0]  # centroid +- rms radius brackets the mean
        assert not cluster.is_nominal
        assert "x~[2]" in str(cluster)

    def test_image_diameter_dispatch(self):
        from repro.birch.features import CF

        cluster = MixedCluster(
            uid=2,
            partition=AttributePartition("x", ("x",)),
            images={
                "x": CF.of_points(np.array([[0.0], [4.0]])),
                "label": NominalFeature.of_values(["a", "b"]),
            },
        )
        assert cluster.image_diameter("x") == pytest.approx(4.0)
        assert cluster.image_diameter("label") == pytest.approx(1.0)

    def test_unknown_image_raises(self):
        cluster = MixedCluster(
            uid=3,
            partition=AttributePartition("j", ("j",), metric="discrete"),
            images={"j": NominalFeature.of_value("a")},
            value="a",
        )
        with pytest.raises(KeyError, match="available"):
            cluster.image("nope")
