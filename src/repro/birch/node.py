"""Nodes of the ACF-tree.

Per Section 6.1 of the paper: "An ACF-tree is a CF-tree with the leaf nodes
modified to be ACFs.  The internal nodes remain CF nodes."  Leaf nodes hold
lists of ACF entries (one per subcluster); internal nodes hold children and
maintain an aggregate CF summary, updated incrementally along the insertion
path, used to steer each new point toward the closest subtree.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.birch.features import ACF, CF

__all__ = ["Node", "LeafNode", "InternalNode"]


class Node:
    """Common interface for ACF-tree nodes."""

    __slots__ = ("parent", "_cf")

    def __init__(self, dimension: int) -> None:
        self.parent: Optional["InternalNode"] = None
        self._cf = CF.zero(dimension)

    @property
    def cf(self) -> CF:
        """Aggregate CF of every tuple below this node."""
        return self._cf

    def note_point(self, point: np.ndarray) -> None:
        """Record that one tuple was inserted somewhere below this node."""
        self._cf.add_point(point)

    def note_cf(self, cf: CF) -> None:
        """Record that a whole subcluster was inserted below this node."""
        self._cf.merge(cf)

    @property
    def is_leaf(self) -> bool:  # pragma: no cover - abstract
        """Whether this node holds entries rather than children."""
        raise NotImplementedError

    def entry_count(self) -> int:  # pragma: no cover - abstract
        """Number of entries (leaf) or children (internal)."""
        raise NotImplementedError

    def recompute_cf(self) -> None:  # pragma: no cover - abstract
        """Rebuild the aggregate CF from scratch (after splits)."""
        raise NotImplementedError


class LeafNode(Node):
    """A leaf holding up to ``capacity`` ACF subcluster entries.

    Leaves are chained (``prev_leaf``/``next_leaf``) like a B+-tree so the
    final cluster set can be read off in one scan without descending.
    """

    __slots__ = ("entries", "capacity", "prev_leaf", "next_leaf")

    def __init__(self, capacity: int, dimension: int):
        super().__init__(dimension)
        if capacity < 2:
            raise ValueError("leaf capacity must be at least 2 to allow splits")
        self.entries: List[ACF] = []
        self.capacity = capacity
        self.prev_leaf: Optional["LeafNode"] = None
        self.next_leaf: Optional["LeafNode"] = None

    @property
    def is_leaf(self) -> bool:
        """Always ``True``."""
        return True

    def entry_count(self) -> int:
        """Number of ACF entries stored."""
        return len(self.entries)

    def recompute_cf(self) -> None:
        """Re-aggregate the node CF from its entries."""
        cf = CF.zero(self._cf.dimension)
        for entry in self.entries:
            cf.merge(entry.cf)
        self._cf = cf

    def closest_entry(self, point: np.ndarray) -> Tuple[int, float]:
        """Index of and centroid distance to the entry closest to ``point``.

        Raises ``ValueError`` on an empty leaf.  Hot path: compares squared
        distances entry by entry instead of stacking centroids.  A squared
        distance is the plain sum of squared deltas, the arithmetic the
        batch engine's row-wise scores use (a BLAS dot may fuse or reorder
        the adds, and a last-bit difference can flip a near tie).
        """
        if not self.entries:
            raise ValueError("closest_entry on an empty leaf")
        point = np.asarray(point, dtype=np.float64)
        best_index = -1
        best_squared = np.inf
        for index, entry in enumerate(self.entries):
            cf = entry.cf
            if cf.n == 0:
                # An n == 0 entry (possible transiently during rebuild
                # replay) has no centroid; dividing through would produce
                # NaN distances and nondeterministic routing.
                continue
            delta = cf.ls / cf.n - point
            squared = float((delta * delta).sum())
            if squared < best_squared:
                best_index = index
                best_squared = squared
        if best_index < 0:
            raise ValueError("closest_entry on a leaf with only empty entries")
        return best_index, float(np.sqrt(best_squared))

    def add_entry(self, entry: ACF) -> None:
        """Append ``entry`` and fold it into the node CF."""
        self.entries.append(entry)
        self._cf.merge(entry.cf)


class InternalNode(Node):
    """An internal node holding child subtrees and their aggregate CF."""

    __slots__ = ("children", "branching")

    def __init__(self, branching: int, dimension: int):
        super().__init__(dimension)
        if branching < 2:
            raise ValueError("branching factor must be at least 2")
        self.children: List[Node] = []
        self.branching = branching

    @property
    def is_leaf(self) -> bool:
        """Always ``False``."""
        return False

    def entry_count(self) -> int:
        """Number of child subtrees."""
        return len(self.children)

    def recompute_cf(self) -> None:
        """Re-aggregate the node CF from its children."""
        cf = CF.zero(self._cf.dimension)
        for child in self.children:
            cf.merge(child.cf)
        self._cf = cf

    def add_child(self, child: Node) -> None:
        """Attach ``child`` and take ownership (sets its parent)."""
        self.children.append(child)
        child.parent = self

    def closest_child(self, point: np.ndarray) -> Node:
        """The child whose aggregate centroid is closest to ``point``.

        Hot path: one squared distance per child, summed as in
        :meth:`LeafNode.closest_entry`.
        """
        if not self.children:
            raise ValueError("closest_child on an empty internal node")
        point = np.asarray(point, dtype=np.float64)
        best: Optional[Node] = None
        best_squared = np.inf
        for child in self.children:
            cf = child.cf
            if cf.n == 0:
                continue
            delta = cf.ls / cf.n - point
            squared = float((delta * delta).sum())
            if squared < best_squared:
                best = child
                best_squared = squared
        if best is None:
            # All children empty (possible transiently during a rebuild):
            # descend anywhere.
            return self.children[0]
        return best
