"""Tests for DARConfig threshold resolution, constructors and retired spellings."""

import pytest

from repro.birch.birch import BirchOptions
from repro.core.config import DARConfig


class TestValidation:
    def test_defaults_valid(self):
        DARConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frequency_fraction": 0.0},
            {"frequency_fraction": 1.5},
            {"density_fraction": 0.0},
            {"degree_factor": 0.0},
            {"phase2_leniency": 0.5},
            {"metric": "d3"},
            {"rule_support_fraction": 1.5},
            {"max_antecedent": 0},
            {"max_consequent": 0},
            {"max_antecedent_candidates": 0},
            {"pruning_diameter_factor": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DARConfig(**kwargs)


class TestThresholdResolution:
    def test_density_explicit_wins(self):
        config = DARConfig(density_thresholds={"x": 7.0})
        assert config.density_threshold("x", derived=1.0) == 7.0

    def test_density_falls_back_to_derived(self):
        config = DARConfig()
        assert config.density_threshold("x", derived=1.5) == 1.5

    def test_degree_default_scales_density(self):
        config = DARConfig(degree_factor=3.0)
        assert config.degree_threshold("y", density=2.0) == 6.0

    def test_degree_explicit_wins(self):
        config = DARConfig(degree_thresholds={"y": 0.25})
        assert config.degree_threshold("y", density=100.0) == 0.25

    def test_with_birch_replaces_only_phase1(self):
        config = DARConfig(degree_factor=5.0)
        new_birch = BirchOptions(initial_threshold=9.0)
        updated = config.with_birch(new_birch)
        assert updated.birch.initial_threshold == 9.0
        assert updated.degree_factor == 5.0


class TestFromMapping:
    def test_round_trips_plain_fields(self):
        config = DARConfig.from_mapping(
            {"frequency_fraction": 0.05, "metric": "d1", "max_consequent": 1}
        )
        assert config.frequency_fraction == 0.05
        assert config.metric == "d1"
        assert config.max_consequent == 1

    def test_nested_birch_mapping(self):
        config = DARConfig.from_mapping(
            {"birch": {"branching": 4, "leaf_capacity": 16}}
        )
        assert config.birch.branching == 4
        assert config.birch.leaf_capacity == 16

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ValueError, match="densty_fraction"):
            DARConfig.from_mapping({"densty_fraction": 0.1})

    def test_unknown_birch_key_named_in_error(self):
        with pytest.raises(ValueError, match="branchin"):
            DARConfig.from_mapping({"birch": {"branchin": 4}})

    def test_invalid_value_still_validated(self):
        with pytest.raises(ValueError, match="frequency_fraction"):
            DARConfig.from_mapping({"frequency_fraction": 2.0})

    def test_cluster_metric_key_is_unknown(self):
        with pytest.raises(ValueError, match="unknown DARConfig key.*cluster_metric"):
            DARConfig.from_mapping({"cluster_metric": "d1"})

    @pytest.mark.parametrize("engine", ["auto", "vector", "scalar"])
    def test_phase2_engine_key_is_unknown(self, engine):
        # Phase II has one engine; the retired choice fails loudly.
        with pytest.raises(ValueError, match="unknown DARConfig key.*phase2_engine"):
            DARConfig.from_mapping({"phase2_engine": engine})
        with pytest.raises(TypeError, match="phase2_engine"):
            DARConfig(phase2_engine=engine)

    def test_alias_conflict_rejected(self):
        with pytest.raises(ValueError, match="cluster_metric"):
            DARConfig.from_mapping({"cluster_metric": "d1", "metric": "d2"})


class TestWithThresholds:
    def test_sets_density_and_degree(self):
        config = DARConfig().with_thresholds(
            density={"x": 2.0}, degree={"y": 0.5}
        )
        assert config.density_thresholds == {"x": 2.0}
        assert config.degree_thresholds == {"y": 0.5}

    def test_merges_over_existing(self):
        config = DARConfig(density_thresholds={"x": 1.0, "y": 2.0})
        updated = config.with_thresholds(density={"y": 9.0})
        assert updated.density_thresholds == {"x": 1.0, "y": 9.0}

    def test_original_unchanged(self):
        config = DARConfig()
        config.with_thresholds(density={"x": 1.0})
        assert config.density_thresholds == {}

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_nonpositive_or_nonfinite_rejected_naming_partition(self, bad):
        with pytest.raises(ValueError, match="'salary'"):
            DARConfig().with_thresholds(density={"salary": bad})

    def test_no_arguments_rejected(self):
        with pytest.raises(ValueError, match="with_thresholds"):
            DARConfig().with_thresholds()

    def test_non_string_key_rejected(self):
        with pytest.raises(ValueError, match="partition names"):
            DARConfig().with_thresholds(degree={3: 1.0})


class TestClusterMetricShim:
    """The retired ``cluster_metric`` spelling fails loudly everywhere."""

    def test_constructor_alias_raises_type_error(self):
        with pytest.raises(TypeError, match="cluster_metric"):
            DARConfig(cluster_metric="d1")

    def test_property_alias_is_gone(self):
        assert not hasattr(DARConfig(metric="d1"), "cluster_metric")

    def test_both_spellings_rejected(self):
        with pytest.raises(TypeError, match="cluster_metric"):
            DARConfig(metric="d2", cluster_metric="d1")
