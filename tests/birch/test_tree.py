"""Tests for the ACF-tree: insertion, thresholds, splits, search, counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF
from repro.birch.tree import ACFTree

from tests.birch.reference_scan import closest_entry


def make_tree(threshold=0.5, branching=3, leaf_capacity=3, dim=1, cross=None):
    return ACFTree(
        dimension=dim,
        threshold=threshold,
        branching=branching,
        leaf_capacity=leaf_capacity,
        cross_dimensions=cross or {},
    )


class TestConstruction:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            make_tree(dim=0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            make_tree(threshold=-1.0)

    def test_empty_tree_counts(self):
        tree = make_tree()
        assert tree.n_points == 0
        assert tree.entry_count() == 0
        assert tree.height == 1


class TestInsertion:
    def test_single_point(self):
        tree = make_tree()
        tree.insert_points(np.array([[1.0]]))
        assert tree.n_points == 1
        assert tree.entry_count() == 1

    def test_close_points_merge_into_one_entry(self):
        tree = make_tree(threshold=1.0)
        for value in (0.0, 0.1, 0.2, 0.05):
            tree.insert_points(np.array([[value]]))
        assert tree.n_points == 4
        assert tree.entry_count() == 1

    def test_distant_points_form_separate_entries(self):
        tree = make_tree(threshold=0.5)
        for value in (0.0, 100.0, 200.0):
            tree.insert_points(np.array([[value]]))
        assert tree.entry_count() == 3

    def test_zero_threshold_keeps_distinct_values_apart(self):
        """T=0: only exactly repeated values share an entry (Thm 5.1 regime)."""
        tree = make_tree(threshold=0.0)
        for value in (1.0, 1.0, 2.0, 2.0, 2.0, 3.0):
            tree.insert_points(np.array([[value]]))
        assert tree.entry_count() == 3
        counts = sorted(entry.n for entry in tree.entries())
        assert counts == [1, 2, 3]

    def test_wrong_dimension_rejected(self):
        tree = make_tree(dim=2)
        with pytest.raises(ValueError, match="shape"):
            tree.insert_points(np.array([[1.0]]))

    def test_cross_values_required_when_declared(self):
        tree = make_tree(cross={"y": 1})
        with pytest.raises(ValueError, match="cross"):
            tree.insert_points(np.array([[1.0]]))

    def test_cross_values_accumulated(self):
        tree = make_tree(threshold=10.0, cross={"y": 1})
        tree.insert_points(np.array([[1.0]]), {"y": np.array([[100.0]])})
        tree.insert_points(np.array([[1.1]]), {"y": np.array([[200.0]])})
        (entry,) = list(tree.entries())
        assert entry.cross["y"].n == 2
        assert entry.cross["y"].ls[0] == 300.0


class TestSplitsAndStructure:
    def test_tree_grows_in_height(self):
        tree = make_tree(threshold=0.0, branching=3, leaf_capacity=3)
        for value in range(50):
            tree.insert_points(np.array([[float(value)]]))
        assert tree.height > 1
        assert tree.n_splits > 0
        assert tree.entry_count() == 50

    def test_leaf_chain_covers_all_entries(self):
        tree = make_tree(threshold=0.0, branching=3, leaf_capacity=3)
        values = [float(v) for v in range(40)]
        for value in values:
            tree.insert_points(np.array([[value]]))
        chained = sorted(entry.centroid[0] for entry in tree.entries())
        assert chained == values

    def test_total_count_preserved_under_splits(self):
        rng = np.random.default_rng(3)
        tree = make_tree(threshold=0.1, branching=4, leaf_capacity=4, dim=2)
        points = rng.normal(size=(300, 2)) * 10
        for point in points:
            tree.insert_points(point[None, :])
        assert tree.n_points == 300
        assert sum(entry.n for entry in tree.entries()) == 300

    def test_global_moments_preserved(self):
        """The union of leaf entries summarizes exactly the inserted data."""
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 2))
        tree = make_tree(threshold=0.5, branching=4, leaf_capacity=4, dim=2)
        for point in points:
            tree.insert_points(point[None, :])
        ls = sum(entry.cf.ls for entry in tree.entries())
        ss = sum(entry.cf.ss for entry in tree.entries())
        assert np.allclose(ls, points.sum(axis=0))
        assert np.allclose(ss, (points**2).sum(axis=0))

    def test_split_with_coincident_centroids_is_balanced(self):
        """Regression: when every entry centroid coincides there is no
        farthest pair, and the seed code split one-entry-vs-rest; the split
        must fall back to an even partition instead."""
        tree = make_tree(threshold=0.0, branching=3, leaf_capacity=3)
        for _ in range(4):
            # Distinct entries (positive diameter, never absorbed at T=0)
            # that all share the centroid 0.
            tree.insert_entries([ACF.of_points(np.array([[-1.0], [1.0]]), {})])
        sizes = sorted(leaf.entry_count() for leaf in tree.leaves())
        assert sizes == [2, 2]
        assert tree.n_points == 8

    def test_split_assignment_even_partition_on_coincident_centroids(self):
        """With no farthest pair the halves must differ by at most one row."""
        from repro.birch.tree import _split_assignment

        for size in (3, 4, 5, 8):
            go_left = _split_assignment(np.zeros((size, 2)))
            left = int(go_left.sum())
            assert abs(left - (size - left)) <= 1
            assert 0 < left < size

    def test_coincident_centroid_splits_respect_capacities(self):
        """Repeated degenerate splits must never overflow a node."""
        tree = make_tree(threshold=0.0, branching=3, leaf_capacity=2)
        for _ in range(12):
            tree.insert_entries([ACF.of_points(np.array([[-1.0], [1.0]]), {})])
        assert tree.entry_count() == 12
        stack = [tree._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.entry_count() <= tree.leaf_capacity
            else:
                assert 1 <= node.entry_count() <= tree.branching
                stack.extend(node.children)

    def test_node_count_and_summary_counts_agree(self):
        tree = make_tree(threshold=0.0, branching=3, leaf_capacity=3)
        for value in range(60):
            tree.insert_points(np.array([[float(value)]]))
        n_entries, n_leaves, n_internal = tree.summary_counts()
        assert n_entries == 60
        assert n_leaves + n_internal == tree.node_count()

    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1, max_size=120,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_arbitrary_streams(self, values):
        tree = make_tree(threshold=5.0, branching=3, leaf_capacity=3)
        for value in values:
            tree.insert_points(np.array([[value]]))
        assert tree.n_points == len(values)
        assert sum(entry.n for entry in tree.entries()) == len(values)
        # Every multi-point entry respects the diameter threshold.
        for entry in tree.entries():
            assert entry.rms_diameter <= 5.0 + 1e-9


class TestEntryInsertion:
    def test_insert_entry_counts_all_tuples(self):
        tree = make_tree(threshold=1.0)
        entry = ACF.of_points(np.array([[0.0], [0.5]]), {})
        tree.insert_entries([entry])
        assert tree.n_points == 2
        assert tree.entry_count() == 1

    def test_insert_entry_merges_within_threshold(self):
        tree = make_tree(threshold=2.0)
        tree.insert_entries([ACF.of_points(np.array([[0.0]]), {})])
        tree.insert_entries([ACF.of_points(np.array([[0.5]]), {})])
        assert tree.entry_count() == 1

    def test_insert_entry_dimension_mismatch(self):
        tree = make_tree(dim=2)
        with pytest.raises(ValueError):
            tree.insert_entries([ACF.of_points(np.array([[1.0]]), {})])


class TestSearch:
    def test_closest_entry_empty_tree(self):
        assert closest_entry(make_tree(), np.array([1.0])) is None

    def test_closest_entry_finds_nearest_cluster(self):
        tree = make_tree(threshold=1.0)
        for value in (0.0, 0.2, 10.0, 10.3, 50.0):
            tree.insert_points(np.array([[value]]))
        hit = closest_entry(tree, np.array([10.1]))
        assert hit is not None
        assert abs(hit.centroid[0] - 10.15) < 0.5
