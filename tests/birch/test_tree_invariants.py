"""Property-based structural invariants of the ACF-tree.

For arbitrary insertion streams (sequential, batched, or mixed) the tree
must maintain:

* every internal node's aggregate CF equals the sum of its children's;
  every leaf's aggregate CF equals the sum of its entries' CFs;
* the prev/next leaf chain visits each leaf reachable from the root
  exactly once (splits may reorder siblings, so the chain is a set
  invariant, not an ordering one);
* ``n_points`` equals the total count over the leaf entries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import CF
from repro.birch.tree import ACFTree


def reachable_leaves(node):
    if node.is_leaf:
        return [node]
    leaves = []
    for child in node.children:
        leaves.extend(reachable_leaves(child))
    return leaves


def chained_leaves(tree):
    leaf = tree._root
    while not leaf.is_leaf:
        leaf = leaf.children[0]
    while leaf.prev_leaf is not None:  # rewind to the true head
        leaf = leaf.prev_leaf
    chain = []
    while leaf is not None:
        chain.append(leaf)
        leaf = leaf.next_leaf
    return chain


def assert_invariants(tree):
    # Aggregate CFs: every node summarizes exactly its subtree.
    stack = [tree._root]
    while stack:
        node = stack.pop()
        expected = CF.zero(tree.dimension)
        if node.is_leaf:
            for entry in node.entries:
                expected.merge(entry.cf)
        else:
            assert node.children, "internal node with no children"
            for child in node.children:
                assert child.parent is node
                expected.merge(child.cf)
                stack.append(child)
        assert node.cf.n == expected.n
        np.testing.assert_allclose(node.cf.ls, expected.ls, atol=1e-9, rtol=1e-9)
        np.testing.assert_allclose(node.cf.ss, expected.ss, atol=1e-9, rtol=1e-9)

    # Leaf chain visits exactly the reachable leaves, each once, and the
    # prev/next pointers are mutually consistent.
    chain = chained_leaves(tree)
    assert len(chain) == len(set(map(id, chain)))
    assert set(map(id, chain)) == set(map(id, reachable_leaves(tree._root)))
    for left, right in zip(chain, chain[1:]):
        assert left.next_leaf is right
        assert right.prev_leaf is left

    # Total point count == sum over leaf entries.
    assert tree.n_points == sum(entry.n for entry in tree.entries())


points_1d = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=150,
)


@given(values=points_1d, threshold=st.sampled_from([0.0, 0.5, 10.0]))
@settings(max_examples=30, deadline=None)
def test_invariants_sequential(values, threshold):
    tree = ACFTree(1, threshold, branching=3, leaf_capacity=3)
    for value in values:
        tree.insert_points(np.array([[value]]))
    assert_invariants(tree)


@given(values=points_1d, threshold=st.sampled_from([0.0, 0.5, 10.0]))
@settings(max_examples=30, deadline=None)
def test_invariants_batch(values, threshold):
    tree = ACFTree(1, threshold, branching=3, leaf_capacity=3)
    tree.insert_points(np.asarray(values, dtype=np.float64).reshape(-1, 1))
    assert_invariants(tree)


@given(
    values=points_1d,
    split_at=st.integers(min_value=0, max_value=150),
    threshold=st.sampled_from([0.0, 1.0]),
)
@settings(max_examples=20, deadline=None)
def test_invariants_mixed_sequential_and_batch(values, split_at, threshold):
    """Batches interleaved with single-point batches keep the tree sound."""
    points = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    split_at = min(split_at, len(values))
    tree = ACFTree(1, threshold, branching=3, leaf_capacity=3)
    tree.insert_points(points[:split_at])
    for i in range(split_at, len(values)):
        tree.insert_points(points[i : i + 1])
    assert_invariants(tree)


@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=20, deadline=None)
def test_invariants_2d_batch_with_cross(rows):
    points = np.asarray(rows, dtype=np.float64)
    tree = ACFTree(2, 1.0, branching=3, leaf_capacity=3, cross_dimensions={"y": 1})
    tree.insert_points(points, {"y": points[:, :1] * 2.0})
    assert_invariants(tree)
    # Cross moments cover exactly the same tuples as the main CFs.
    for entry in tree.entries():
        assert entry.cross["y"].n == entry.cf.n
