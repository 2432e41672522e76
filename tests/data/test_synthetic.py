"""Tests for the synthetic generators, including the §7.2 scaling protocol."""

import numpy as np
import pytest

from repro.data.synthetic import (
    make_clustered_relation,
    make_planted_rule_relation,
    scale_relation,
)


class TestClusteredRelation:
    def test_size_and_schema(self):
        relation, truth = make_clustered_relation(
            n_modes=3, points_per_mode=50, n_attributes=4, outlier_fraction=0.0, seed=1
        )
        assert len(relation) == 150
        assert relation.arity == 4
        assert truth.n_modes == 3

    def test_outlier_fraction_respected(self):
        relation, truth = make_clustered_relation(
            n_modes=2, points_per_mode=100, outlier_fraction=0.2, seed=2
        )
        n_outliers = int(np.count_nonzero(truth.labels == -1))
        assert n_outliers / len(relation) == pytest.approx(0.2, abs=0.02)

    def test_deterministic_in_seed(self):
        a, _ = make_clustered_relation(seed=9)
        b, _ = make_clustered_relation(seed=9)
        assert np.array_equal(a.column("a0"), b.column("a0"))

    def test_different_seeds_differ(self):
        a, _ = make_clustered_relation(seed=1)
        b, _ = make_clustered_relation(seed=2)
        assert not np.array_equal(a.column("a0"), b.column("a0"))

    def test_modes_are_separated(self):
        """Points of a mode are far closer to their center than to others."""
        relation, truth = make_clustered_relation(
            n_modes=3, points_per_mode=80, n_attributes=2,
            spread=0.5, separation=30.0, outlier_fraction=0.0, seed=3,
        )
        data = relation.matrix(relation.schema.names)
        for mode in range(truth.n_modes):
            members = data[truth.mode_indices(mode)]
            own = np.linalg.norm(members - truth.centers[mode], axis=1)
            assert own.max() < 5.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_clustered_relation(n_modes=0)
        with pytest.raises(ValueError):
            make_clustered_relation(outlier_fraction=1.0)


class TestPlantedRuleRelation:
    def test_shape(self):
        relation, truth = make_planted_rule_relation(seed=0)
        assert relation.schema.names == ("age", "dependents", "claims")
        assert len(relation) == 3 * 150
        assert truth.centers.shape == (3, 3)

    def test_modes_have_expected_claims(self):
        relation, truth = make_planted_rule_relation(seed=1)
        claims = relation.column("claims")
        mid_mode = truth.mode_indices(0)
        assert np.abs(claims[mid_mode].mean() - 12_000) < 500


class TestScaleRelation:
    @pytest.fixture
    def base(self):
        relation, _ = make_clustered_relation(
            n_modes=3, points_per_mode=60, n_attributes=2,
            outlier_fraction=0.0, seed=4,
        )
        return relation

    def test_target_size_exact(self, base):
        scaled = scale_relation(base, target_size=1234, seed=0)
        assert len(scaled) == 1234

    def test_cluster_structure_preserved(self, base):
        """Scaling must not move the modes: per-column means stay put."""
        scaled = scale_relation(base, target_size=3000, outlier_fraction=0.0, seed=1)
        for name in base.schema.names:
            assert scaled.column(name).mean() == pytest.approx(
                base.column(name).mean(), abs=2.0
            )

    def test_outliers_expand_range(self, base):
        scaled = scale_relation(base, target_size=3000, outlier_fraction=0.3, seed=2)
        column = base.schema.names[0]
        assert scaled.column(column).max() > base.column(column).max()
        assert scaled.column(column).min() < base.column(column).min()

    def test_no_outliers_keeps_range_tight(self, base):
        scaled = scale_relation(
            base, target_size=2000, outlier_fraction=0.0,
            jitter_fraction=0.001, seed=3,
        )
        column = base.schema.names[0]
        spread = base.column(column).std()
        assert scaled.column(column).max() < base.column(column).max() + spread

    def test_deterministic(self, base):
        a = scale_relation(base, 500, seed=5)
        b = scale_relation(base, 500, seed=5)
        assert np.array_equal(a.column(a.schema.names[0]), b.column(b.schema.names[0]))

    def test_rejects_empty_base(self):
        from repro.data.relation import Relation, Schema

        empty = Relation.empty(Schema.of(a="interval"))
        with pytest.raises(ValueError):
            scale_relation(empty, 10)

    def test_rejects_bad_sizes(self, base):
        with pytest.raises(ValueError):
            scale_relation(base, 0)
        with pytest.raises(ValueError):
            scale_relation(base, 100, outlier_fraction=1.0)


def reference_scale_relation(base, target_size, outlier_fraction=0.05,
                             jitter_fraction=0.01, seed=0):
    """``scale_relation`` as it was written with full-size temporaries
    (jitter, gathered base rows, their sum, the outlier stack and the
    permuted copy): the values the in-place version must reproduce."""
    names = base.schema.interval_names()
    matrix = base.matrix(names)
    rng = np.random.default_rng(seed)
    n_outliers = int(round(target_size * outlier_fraction))
    n_clustered = target_size - n_outliers
    indices = rng.integers(0, matrix.shape[0], size=n_clustered)
    spread = matrix.std(axis=0)
    spread[spread == 0] = 1.0
    jitter = rng.normal(size=(n_clustered, matrix.shape[1])) * (
        spread * jitter_fraction
    )
    data = matrix[indices] + jitter
    if n_outliers:
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
        pad = (hi - lo) * 0.5 + spread
        data = np.vstack([
            data,
            rng.uniform(lo - pad, hi + pad, size=(n_outliers, matrix.shape[1])),
        ])
    data = data[rng.permutation(data.shape[0])]
    return {name: data[:, i] for i, name in enumerate(names)}


class TestScaleRelationReference:
    @pytest.mark.parametrize("seed", [0, 7, 43])
    @pytest.mark.parametrize("size", [1, 999, 8_192, 8_193, 30_001])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.05, 0.3])
    def test_byte_identical_to_reference(self, seed, size, outlier_fraction):
        from repro.data.wbcd import make_wbcd_like

        base = make_wbcd_like(seed=seed)
        scaled = scale_relation(
            base, size, outlier_fraction=outlier_fraction, seed=seed
        )
        want = reference_scale_relation(
            base, size, outlier_fraction=outlier_fraction, seed=seed
        )
        for name, column in want.items():
            assert scaled.column(name).dtype == column.dtype
            assert scaled.column(name).tobytes() == column.tobytes()
