"""Tests for threshold-escalation rebuilds and outlier splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.rebuild import rebuild_tree, split_off_outlier_entries
from repro.birch.tree import ACFTree


def filled_tree(values, threshold=0.2, cross=False):
    cross_dims = {"y": 1} if cross else {}
    tree = ACFTree(
        dimension=1, threshold=threshold, branching=3, leaf_capacity=3,
        cross_dimensions=cross_dims,
    )
    for value in values:
        cross_values = {"y": np.array([[value * 2.0]])} if cross else {}
        tree.insert_points(np.array([[float(value)]]), cross_values)
    return tree


class TestRebuild:
    def test_rebuild_requires_larger_threshold(self):
        tree = filled_tree([0.0, 1.0], threshold=0.5)
        with pytest.raises(ValueError, match="exceed"):
            rebuild_tree(tree, 0.5)

    def test_rebuild_preserves_point_count(self):
        tree = filled_tree(np.linspace(0, 100, 80))
        rebuilt = rebuild_tree(tree, 5.0)
        assert rebuilt.n_points == tree.n_points

    def test_rebuild_preserves_global_moments(self):
        values = np.linspace(0, 50, 60)
        tree = filled_tree(values)
        rebuilt = rebuild_tree(tree, 10.0)
        ls = sum(entry.cf.ls[0] for entry in rebuilt.entries())
        assert ls == pytest.approx(values.sum())

    def test_rebuild_shrinks_entry_count(self):
        tree = filled_tree(np.linspace(0, 100, 100), threshold=0.0)
        assert tree.entry_count() == 100
        rebuilt = rebuild_tree(tree, 5.0)
        assert rebuilt.entry_count() < 100

    def test_rebuild_preserves_cross_moments(self):
        tree = filled_tree(np.linspace(0, 20, 30), cross=True)
        rebuilt = rebuild_tree(tree, 8.0)
        total = sum(entry.cross["y"].ls[0] for entry in rebuilt.entries())
        expected = sum(entry.cross["y"].ls[0] for entry in tree.entries())
        assert total == pytest.approx(expected)

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=2, max_size=60,
        ),
        new_threshold=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_rebuild_never_grows_tree(self, values, new_threshold):
        tree = filled_tree(values, threshold=0.5)
        if new_threshold <= tree.threshold:
            return
        rebuilt = rebuild_tree(tree, new_threshold)
        assert rebuilt.entry_count() <= tree.entry_count()
        assert rebuilt.n_points == tree.n_points


class TestOutlierSplit:
    def test_small_entries_split_off(self):
        # 30 copies of 0.0 (one big entry) and one stray point far away.
        tree = filled_tree([0.0] * 30 + [999.0], threshold=0.5)
        kept, outliers = split_off_outlier_entries(tree, min_count=5)
        assert len(outliers) == 1
        assert outliers[0].n == 1
        assert kept.n_points == 30

    def test_nothing_split_when_all_large(self):
        tree = filled_tree([0.0] * 10 + [50.0] * 10, threshold=0.5)
        kept, outliers = split_off_outlier_entries(tree, min_count=5)
        assert outliers == []
        assert kept.n_points == 20

    def test_all_outliers_leaves_tree_untouched(self):
        """If every entry is small, nothing is paged (don't lose the scan)."""
        tree = filled_tree([0.0, 50.0, 100.0], threshold=0.5)
        kept, outliers = split_off_outlier_entries(tree, min_count=10)
        assert outliers == []
        assert kept is tree
