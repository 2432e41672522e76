"""Tests for the DistanceRule type and Dfn 5.3 validity checks."""

import functools

import numpy as np
import pytest

from repro.birch.features import ACF
from repro.core.cluster import Cluster
from repro.core.phase2 import count_support
from repro.core.rules import DistanceRule, validate_rule_partitions
from repro.data.relation import AttributePartition


def cluster(uid, partition_name):
    acf = ACF.of_points(np.array([[0.0], [1.0]]), {})
    partition = AttributePartition(partition_name, (partition_name,))
    return Cluster(uid=uid, partition=partition, acf=acf)


class TestValidation:
    def test_disjoint_partitions_accepted(self):
        validate_rule_partitions((cluster(1, "a"),), (cluster(2, "b"),))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_rule_partitions((), (cluster(1, "a"),))

    def test_repeated_partition_across_sides_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            validate_rule_partitions((cluster(1, "a"),), (cluster(2, "a"),))

    def test_repeated_partition_within_side_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            validate_rule_partitions(
                (cluster(1, "a"), cluster(2, "a")), (cluster(3, "b"),)
            )


class TestDistanceRule:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            DistanceRule((cluster(1, "a"),), (cluster(2, "b"),), degree=-0.1)

    def test_arity(self):
        rule = DistanceRule(
            (cluster(1, "a"), cluster(2, "b")), (cluster(3, "c"),), degree=0.5
        )
        assert rule.arity == (2, 1)
        assert not rule.is_one_to_one

    def test_identity_by_cluster_uids(self):
        a = DistanceRule((cluster(1, "a"),), (cluster(2, "b"),), degree=0.5)
        b = DistanceRule((cluster(1, "a"),), (cluster(2, "b"),), degree=0.9)
        assert a == b  # same clusters, degrees irrelevant to identity
        assert hash(a) == hash(b)

    def test_direction_matters(self):
        forward = DistanceRule((cluster(1, "a"),), (cluster(2, "b"),), degree=0.5)
        backward = DistanceRule((cluster(2, "b"),), (cluster(1, "a"),), degree=0.5)
        assert forward != backward

    def test_str_includes_degree_and_support(self):
        rule = DistanceRule(
            (cluster(1, "a"),), (cluster(2, "b"),), degree=0.25, support_count=7
        )
        text = str(rule)
        assert "degree=0.25" in text
        assert "support=7" in text


class TestLabels:
    """Labels render on first ``str()`` into a plain instance attribute."""

    @pytest.mark.parametrize("cls", [Cluster, DistanceRule])
    def test_no_cached_property(self, cls):
        # functools.cached_property takes a lock on every first access.
        for klass in cls.__mro__:
            for value in vars(klass).values():
                assert not isinstance(value, functools.cached_property), klass

    def test_cluster_renders_its_bounding_box(self):
        acf = ACF.of_points(np.array([[0.5], [2.0], [1.25]]), {})
        c = Cluster(uid=4, partition=AttributePartition("age", ("age",)), acf=acf)
        assert str(c) == "C4(age:[0.5, 2]; n=3)"
        assert str(c) is str(c)

    def test_rule_recounted_by_postscan_renders_its_support(self):
        left, right = cluster(1, "a"), cluster(2, "b")
        formed = DistanceRule.formed(
            (left,), (right,), 0.25, {2: 0.25}, str(left), str(right)
        )
        assert "support=" not in str(formed)
        masks = {1: np.array([True, True, False]), 2: np.array([True, False, False])}
        (counted,) = count_support([formed], masks)
        assert str(counted) == str(formed)[:-1] + ", support=1)"
