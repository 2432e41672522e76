"""Nodes of the ACF-tree.

Per Section 6.1 of the paper: "An ACF-tree is a CF-tree with the leaf nodes
modified to be ACFs.  The internal nodes remain CF nodes."  Leaf nodes hold
lists of ACF entries (one per subcluster); internal nodes hold children and
maintain an aggregate CF summary, used to steer each new point toward the
closest subtree (the batch engine of :mod:`repro.birch.batch` routes and
updates them).
"""

from __future__ import annotations

from typing import List, Optional

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
