"""Tests for the memory model and the adaptive threshold schedule."""

import numpy as np
import pytest

from repro.birch.memory import MemoryModel, ThresholdSchedule
from repro.birch.tree import ACFTree


def model(dim=1, cross=None, branching=4, leaf_capacity=4):
    return MemoryModel(
        dimension=dim,
        cross_dimensions=cross or {},
        branching=branching,
        leaf_capacity=leaf_capacity,
    )


class TestMemoryModel:
    def test_leaf_entry_bytes_positive(self):
        assert model().bytes_per_leaf_entry() > 0

    def test_cross_moments_increase_entry_size(self):
        plain = model().bytes_per_leaf_entry()
        with_cross = model(cross={"y": 3}).bytes_per_leaf_entry()
        assert with_cross > plain

    def test_entry_size_monotone_in_dimension(self):
        assert model(dim=5).bytes_per_leaf_entry() > model(dim=1).bytes_per_leaf_entry()

    def test_tree_bytes_monotone_in_entries(self):
        m = model()
        assert m.tree_bytes(100, 10, 3) > m.tree_bytes(50, 10, 3)

    def test_max_entries_within_budget_roundtrip(self):
        m = model()
        budget = 10_000
        entries = m.max_entries_within(budget)
        assert entries >= 1
        # The estimate should not wildly exceed the budget when realized.
        assert m.tree_bytes(entries, entries // m.leaf_capacity + 1, 1) < 3 * budget

    def test_actual_tree_accounting(self):
        tree = ACFTree(dimension=1, threshold=0.0, branching=4, leaf_capacity=4)
        for value in range(30):
            tree.insert_points(np.array([[float(value)]]))
        m = model()
        n_entries, n_leaves, n_internal = tree.summary_counts()
        total = m.tree_bytes(n_entries, n_leaves, n_internal)
        assert total >= 30 * m.bytes_per_leaf_entry()


class TestThresholdSchedule:
    def test_growth_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(growth_factor=1.0)

    def test_zero_threshold_gets_initial_step(self):
        tree = ACFTree(dimension=1, threshold=0.0)
        tree.insert_points(np.array([[0.0]]))
        schedule = ThresholdSchedule(initial_step=0.01)
        assert schedule.next_threshold(tree) >= 0.01

    def test_next_threshold_strictly_increases(self):
        tree = ACFTree(dimension=1, threshold=1.0)
        for value in (0.0, 10.0, 20.0):
            tree.insert_points(np.array([[value]]))
        schedule = ThresholdSchedule()
        assert schedule.next_threshold(tree) > tree.threshold

    def test_next_threshold_reaches_closest_pair(self):
        """With co-leaf entries 5 apart, the next threshold must allow a merge."""
        tree = ACFTree(dimension=1, threshold=0.1, leaf_capacity=8)
        tree.insert_points(np.array([[0.0]]))
        tree.insert_points(np.array([[5.0]]))
        schedule = ThresholdSchedule(growth_factor=1.5)
        assert schedule.next_threshold(tree) >= 5.0

    def test_multiplicative_bump_when_leaves_are_singletons(self):
        tree = ACFTree(dimension=1, threshold=2.0, leaf_capacity=2, branching=2)
        tree.insert_points(np.array([[0.0]]))
        schedule = ThresholdSchedule(growth_factor=3.0)
        assert schedule.next_threshold(tree) == pytest.approx(6.0)
