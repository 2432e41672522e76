"""Stateful property testing of the ACF-tree.

A hypothesis rule-based machine drives an :class:`ACFTree` with arbitrary
interleavings of point insertions, entry insertions and rebuilds, checking
the structural invariants after every step:

* total point count equals everything ever inserted;
* global moments (sum, sum of squares) are conserved exactly;
* every multi-point leaf entry respects the current diameter threshold;
* the leaf chain enumerates the same entries as a root-down traversal;
* no node exceeds its capacity.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.birch.features import ACF
from repro.birch.rebuild import rebuild_tree
from repro.birch.tree import ACFTree

values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TreeMachine(RuleBasedStateMachine):
    @initialize(
        threshold=st.floats(min_value=0.0, max_value=50.0),
        branching=st.integers(2, 5),
        leaf_capacity=st.integers(2, 5),
    )
    def setup(self, threshold, branching, leaf_capacity):
        self.tree = ACFTree(
            dimension=1,
            threshold=threshold,
            branching=branching,
            leaf_capacity=leaf_capacity,
        )
        self.total_points = 0
        self.total_sum = 0.0
        self.total_square_sum = 0.0
        # Entries inserted wholesale may already exceed the threshold; the
        # tree cannot split summaries (raw points are gone), so they stay.
        self.max_inserted_diameter = 0.0

    @rule(value=values)
    def insert_point(self, value):
        self.tree.insert_points(np.array([[value]]))
        self.total_points += 1
        self.total_sum += value
        self.total_square_sum += value * value

    @rule(values_chunk=st.lists(values, min_size=1, max_size=5))
    def insert_entry(self, values_chunk):
        points = np.asarray(values_chunk, dtype=float).reshape(-1, 1)
        entry = ACF.of_points(points, {})
        self.max_inserted_diameter = max(
            self.max_inserted_diameter, entry.rms_diameter
        )
        self.tree.insert_entries([entry])
        self.total_points += len(values_chunk)
        self.total_sum += float(points.sum())
        self.total_square_sum += float((points**2).sum())

    @rule(bump=st.floats(min_value=1.1, max_value=4.0))
    def rebuild(self, bump):
        if self.total_points == 0:
            return
        new_threshold = max(self.tree.threshold * bump, 1e-3)
        if new_threshold <= self.tree.threshold:
            return
        self.tree = rebuild_tree(self.tree, new_threshold)

    @invariant()
    def count_conserved(self):
        assert self.tree.n_points == self.total_points
        assert sum(entry.n for entry in self.tree.entries()) == self.total_points

    @invariant()
    def moments_conserved(self):
        ls = sum((entry.cf.ls[0] for entry in self.tree.entries()), 0.0)
        ss = sum((entry.cf.ss[0] for entry in self.tree.entries()), 0.0)
        assert np.isclose(ls, self.total_sum, rtol=1e-9, atol=1e-6)
        assert np.isclose(ss, self.total_square_sum, rtol=1e-9, atol=1e-6)

    @invariant()
    def entries_respect_threshold(self):
        bound = max(self.tree.threshold, self.max_inserted_diameter)
        for entry in self.tree.entries():
            assert entry.rms_diameter <= bound + 1e-7 * (1 + bound)

    @invariant()
    def leaf_chain_matches_traversal(self):
        chained = [id(entry) for entry in self.tree.entries()]
        traversed = []
        stack = [self.tree._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                traversed.extend(id(entry) for entry in node.entries)
            else:
                stack.extend(node.children)
        assert sorted(chained) == sorted(traversed)

    @invariant()
    def capacities_respected(self):
        stack = [self.tree._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.entry_count() <= self.tree.leaf_capacity
            else:
                assert node.entry_count() <= self.tree.branching
                stack.extend(node.children)


TestTreeMachine = TreeMachine.TestCase
TestTreeMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
