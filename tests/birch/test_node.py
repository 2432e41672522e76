"""Degenerate-slot routing of the batch engine's node mirrors.

The mirrors of :mod:`repro.birch.batch` are the only routing in the
program: scalar mirrors for 1-D trees and numpy-row mirrors otherwise, so
every case runs against both kinds.
"""

import numpy as np
import pytest

from repro.birch.batch import _ArrayMirror, _mirror, _ScalarMirror
from repro.birch.features import ACF, CF
from repro.birch.node import InternalNode, LeafNode

KINDS = {1: _ScalarMirror, 2: _ArrayMirror}


def at(dim, value):
    return np.full(dim, float(value))


def mirror_of(node, dim):
    mirror = _mirror(node, dim)
    assert type(mirror) is KINDS[dim]
    return mirror


class TestLeafClosestEntry:
    def test_empty_leaf_raises(self):
        for dim in KINDS:
            leaf = LeafNode(capacity=4, dimension=dim)
            with pytest.raises(ValueError, match="only empty entries"):
                mirror_of(leaf, dim).closest(at(dim, 0.0))

    def test_skips_empty_entries(self):
        """An n == 0 entry must never win routing (NaN centroid distance).

        Regression: the seed code initialized ``best_index = 0`` and never
        updated it when the first entry's distance was NaN, so an empty
        entry at position 0 captured every point.
        """
        for dim in KINDS:
            leaf = LeafNode(capacity=4, dimension=dim)
            leaf.add_entry(ACF(CF.zero(dim)))
            leaf.add_entry(ACF.of_point(at(dim, 2.0), {}))
            assert mirror_of(leaf, dim).closest(at(dim, 2.0)) == 1

    def test_all_entries_empty_raises(self):
        for dim in KINDS:
            leaf = LeafNode(capacity=4, dimension=dim)
            leaf.add_entry(ACF(CF.zero(dim)))
            leaf.add_entry(ACF(CF.zero(dim)))
            with pytest.raises(ValueError, match="only empty entries"):
                mirror_of(leaf, dim).closest(at(dim, 0.0))

    def test_distances_are_finite_with_empty_entry_present(self):
        for dim in KINDS:
            leaf = LeafNode(capacity=4, dimension=dim)
            leaf.add_entry(ACF.of_point(at(dim, 0.0), {}))
            leaf.add_entry(ACF(CF.zero(dim)))
            leaf.add_entry(ACF.of_point(at(dim, 3.0), {}))
            assert mirror_of(leaf, dim).closest(at(dim, 2.9)) == 2
            assert mirror_of(leaf, dim).closest(at(dim, 0.1)) == 0


class TestInternalClosestChild:
    def test_skips_empty_children(self):
        for dim in KINDS:
            node = InternalNode(branching=3, dimension=dim)
            empty = LeafNode(capacity=2, dimension=dim)
            full = LeafNode(capacity=2, dimension=dim)
            full.add_entry(ACF.of_point(at(dim, 1.0), {}))
            node.add_child(empty)
            node.add_child(full)
            assert mirror_of(node, dim).route(at(dim, 0.0)) == 1

    def test_all_children_empty_falls_back_to_first(self):
        for dim in KINDS:
            node = InternalNode(branching=3, dimension=dim)
            node.add_child(LeafNode(capacity=2, dimension=dim))
            node.add_child(LeafNode(capacity=2, dimension=dim))
            assert mirror_of(node, dim).route(at(dim, 1.0)) == 0
