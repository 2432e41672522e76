"""The ACF-tree: a height-balanced tree of cluster summaries.

This is the Phase I data structure of the paper (Sections 3, 4.3.1 and 6.1):
a CF-tree in the style of BIRCH [ZRL96] whose leaf entries are ACFs.  Each
point descends to the leaf whose subtree centroid is closest, is absorbed
into the closest leaf entry if doing so keeps the entry's (RMS) diameter
under the current *diameter threshold*, and otherwise starts a new entry.
Full nodes split exactly as in a B+-tree, with the farthest pair of entries
seeding the two halves.  Every insertion, of points or of whole
subclusters, runs through the batch engine of :mod:`repro.birch.batch`.

The tree knows how many bytes its summaries occupy (see
:mod:`repro.birch.memory`), which is what drives the adaptive behaviour:
when the budget is exceeded the owner raises the threshold and rebuilds the
tree from its own leaf entries (:mod:`repro.birch.rebuild`) — no rescan of
the data.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.birch.batch import BatchInserter, ScanStats, _Batch
from repro.birch.features import ACF, CF
from repro.birch.memory import _BudgetProbe
from repro.birch.node import InternalNode, LeafNode, Node

__all__ = ["ACFTree"]


def _farthest_pair(centroids: np.ndarray) -> Optional[Tuple[int, int]]:
    """Indices of the two mutually farthest rows (used to seed a split).

    Returns ``None`` when every centroid coincides: argmax over an all-zero
    distance matrix would return the diagonal pair ``(0, 0)``, and seeding a
    split with identical seeds degenerates into a one-vs-rest partition.
    Callers fall back to an even partition in that case.
    """
    deltas = centroids[:, None, :] - centroids[None, :, :]
    distances = np.linalg.norm(deltas, axis=-1)
    flat = int(np.argmax(distances))
    seed_a, seed_b = flat // distances.shape[0], flat % distances.shape[0]
    if seed_a == seed_b:
        return None
    return seed_a, seed_b


def _split_assignment(centroids: np.ndarray) -> np.ndarray:
    """Boolean mask sending each row to the left (True) or right half.

    Seeds the two halves with the farthest pair and assigns every row to the
    closer seed; when all centroids coincide there is no farthest pair, so
    the rows are divided evenly and deterministically instead (the seed-based
    rule would send one row left and everything else right, producing a
    maximally lopsided split that can immediately re-overflow).
    """
    pair = _farthest_pair(centroids)
    if pair is None:
        go_left = np.zeros(len(centroids), dtype=bool)
        go_left[: (len(centroids) + 1) // 2] = True
        return go_left
    seed_a, seed_b = pair
    distances_a = np.linalg.norm(centroids - centroids[seed_a], axis=1)
    distances_b = np.linalg.norm(centroids - centroids[seed_b], axis=1)
    go_left = distances_a <= distances_b
    go_left[seed_a] = True
    go_left[seed_b] = False
    return go_left


class ACFTree:
    """Height-balanced tree of ACF subcluster summaries.

    Parameters
    ----------
    dimension:
        Arity of the clustering partition ``X``.
    threshold:
        Diameter threshold ``T``: a point joins an existing subcluster only
        if the merged RMS diameter stays at or below ``T``.
    branching:
        Maximum children of an internal node (``B`` in BIRCH).
    leaf_capacity:
        Maximum ACF entries per leaf (``L`` in BIRCH).
    cross_dimensions:
        Mapping of other-partition name to arity, fixing the cross-moment
        layout every ACF entry must carry (Eq. 7).
    """

    def __init__(
        self,
        dimension: int,
        threshold: float,
        branching: int = 8,
        leaf_capacity: int = 8,
        cross_dimensions: Optional[Mapping[str, int]] = None,
    ):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.dimension = dimension
        self.threshold = float(threshold)
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.cross_dimensions: Dict[str, int] = dict(cross_dimensions or {})
        self._root: Node = LeafNode(leaf_capacity, dimension)
        self._first_leaf: LeafNode = self._root  # head of the leaf chain
        self._n_points = 0
        self._n_splits = 0
        # Shape counts for the memory model, kept as the tree grows so a
        # budget probe never walks the tree.
        self._n_entries = 0
        self._n_leaves = 1
        self._n_internal = 0
        # Lazily-created batch engine; its mirror caches survive across
        # batches and are dropped with it by state_dict.
        self._batch_engine: Optional[BatchInserter] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of tuples summarized by the tree."""
        return self._n_points

    @property
    def n_splits(self) -> int:
        """Number of node splits performed so far."""
        return self._n_splits

    @property
    def height(self) -> int:
        """Levels from root to leaf (a lone root counts as 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
            height += 1
        return height

    def leaves(self) -> Iterator[LeafNode]:
        """Iterate leaves left-to-right along the leaf chain."""
        leaf: Optional[LeafNode] = self._first_leaf
        while leaf is not None:
            yield leaf
            leaf = leaf.next_leaf

    def entries(self) -> Iterator[ACF]:
        """All subcluster summaries, in leaf-chain order."""
        for leaf in self.leaves():
            yield from leaf.entries

    def entry_count(self) -> int:
        """Total ACF entries across all leaves."""
        return self._n_entries

    def node_count(self) -> int:
        """Total nodes (leaves plus internal) in the tree."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[attr-defined]
        return count

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert_points(
        self,
        points: np.ndarray,
        cross_values: Optional[Mapping[str, np.ndarray]] = None,
        stats: Optional[ScanStats] = None,
    ) -> ScanStats:
        """Insert a batch of tuples through the vectorized scan engine.

        ``points`` is ``(n, dimension)``; ``cross_values`` maps each
        declared cross partition to its ``(n, arity)`` matrix of the same
        tuples.  Routing and absorption decisions are made one point at a
        time, in row order, against incrementally updated centroid caches,
        and the deferred moment bookkeeping adds every point in scan order
        (see :mod:`repro.birch.batch`), so the resulting tree is byte for
        byte the same wherever the caller cuts its batches.

        Pass an existing :class:`ScanStats` to accumulate instrumentation
        across batches; one is created (and returned) otherwise.
        """
        return self._insert_points(points, cross_values, stats, None)

    def _insert_points(
        self,
        points: np.ndarray,
        cross_values: Optional[Mapping[str, np.ndarray]],
        stats: Optional[ScanStats],
        probe: Optional[_BudgetProbe],
    ) -> ScanStats:
        """:meth:`insert_points` for the budgeted scan driver: with a
        ``probe``, ingestion ends early at the first probe row after a new
        entry or split first takes the tree over the probe's budget; the
        rows taken are ``stats.points`` minus its value before the call."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"points have shape {points.shape}, tree dimension is {self.dimension}"
            )
        cross_values = {
            name: np.atleast_2d(np.asarray(matrix, dtype=np.float64))
            for name, matrix in (cross_values or {}).items()
        }
        if set(cross_values) != set(self.cross_dimensions):
            raise ValueError(
                f"cross values for {sorted(cross_values)} do not match the "
                f"tree's cross partitions {sorted(self.cross_dimensions)}"
            )
        for name, matrix in cross_values.items():
            if matrix.shape != (points.shape[0], self.cross_dimensions[name]):
                raise ValueError(
                    f"cross matrix {name!r} has shape {matrix.shape}, expected "
                    f"{(points.shape[0], self.cross_dimensions[name])}"
                )
        stats = stats if stats is not None else ScanStats()
        if points.shape[0] == 0:
            return stats
        self._engine().run(lambda: _Batch.of_points(points, cross_values), stats, probe)
        return stats

    def insert_entries(
        self, entries: Sequence[ACF], stats: Optional[ScanStats] = None
    ) -> ScanStats:
        """Insert a batch of subcluster summaries through the batch engine.

        Each entry is routed by its centroid and merges into the closest
        leaf entry when the merged diameter stays within the threshold, or
        else starts an entry of its own.  Rebuilds re-insert a tree's leaf
        entries this way.  The engine copies any entry it keeps as a new
        leaf entry, so callers retain ownership of ``entries``.
        """
        stats = stats if stats is not None else ScanStats()
        self._insert_entries(entries, stats)
        return stats

    def _insert_entries(
        self, entries: Sequence[ACF], stats: ScanStats, min_count: int = 0
    ) -> List[int]:
        """:meth:`insert_entries` for outlier replay: an entry that no
        existing entry absorbs and that has fewer than ``min_count`` tuples
        is left out of the tree (no entry, no ancestor aggregate, no
        ``n_points``).  Returns the indices of the entries left out."""
        entries = list(entries)
        if not entries:
            return []
        layout = set(self.cross_dimensions)
        for entry in entries:
            if entry.cf.dimension != self.dimension:
                raise ValueError("entry dimension does not match tree dimension")
            if set(entry.cross) != layout:
                raise ValueError(
                    f"entry cross partitions {sorted(entry.cross)} do not match "
                    f"the tree's {sorted(layout)}"
                )
        batch = self._engine().run(lambda: _Batch.of_entries(entries, min_count), stats)
        return batch.dropped

    def _engine(self) -> BatchInserter:
        if self._batch_engine is None:
            self._batch_engine = BatchInserter(self)
        return self._batch_engine

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------

    def _split_leaf(self, leaf: LeafNode) -> None:
        """Split an over-full leaf around its farthest pair of entries."""
        entries = leaf.entries
        centroids = np.stack([entry.centroid for entry in entries])
        go_left = _split_assignment(centroids)

        left = LeafNode(self.leaf_capacity, self.dimension)
        right = LeafNode(self.leaf_capacity, self.dimension)
        for entry, is_left in zip(entries, go_left):
            (left if is_left else right).add_entry(entry)

        # Splice both halves into the leaf chain in place of ``leaf``.
        left.prev_leaf = leaf.prev_leaf
        left.next_leaf = right
        right.prev_leaf = left
        right.next_leaf = leaf.next_leaf
        if leaf.prev_leaf is not None:
            leaf.prev_leaf.next_leaf = left
        else:
            self._first_leaf = left
        if leaf.next_leaf is not None:
            leaf.next_leaf.prev_leaf = right

        self._replace_child(leaf, left, right)
        self._n_splits += 1
        self._n_leaves += 1

    def _replace_child(self, old: Node, left: Node, right: Node) -> None:
        """Swap ``old`` for ``left``+``right`` in the parent, splitting upward."""
        parent = old.parent
        if parent is None:
            new_root = InternalNode(self.branching, self.dimension)
            new_root.add_child(left)
            new_root.add_child(right)
            new_root.recompute_cf()
            self._root = new_root
            self._n_internal += 1
            return
        index = parent.children.index(old)
        parent.children[index] = left
        left.parent = parent
        parent.add_child(right)
        if parent.entry_count() > self.branching:
            self._split_internal(parent)

    def _split_internal(self, node: InternalNode) -> None:
        """Split an over-full internal node around its farthest child pair."""
        children = node.children
        centroids = np.stack(
            [
                child.cf.centroid if child.cf.n else np.zeros(self.dimension)
                for child in children
            ]
        )
        go_left = _split_assignment(centroids)

        left = InternalNode(self.branching, self.dimension)
        right = InternalNode(self.branching, self.dimension)
        for child, is_left in zip(children, go_left):
            (left if is_left else right).add_child(child)
        left.recompute_cf()
        right.recompute_cf()
        self._replace_child(node, left, right)
        self._n_splits += 1
        self._n_internal += 1

    # ------------------------------------------------------------------
    # Memory accounting (see repro.birch.memory for the byte model)
    # ------------------------------------------------------------------

    def summary_counts(self) -> Tuple[int, int, int]:
        """(leaf entries, leaf nodes, internal nodes) for the memory model."""
        return self._n_entries, self._n_leaves, self._n_internal

    # ------------------------------------------------------------------
    # Checkpoint state (repro.resilience.checkpoint)
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The complete tree as plain built-in types.

        Serializes the *structure*, not just the leaf entries: every node's
        aggregate CF, the child order of internal nodes, the entry order of
        leaves, and the leaf chain.  A tree restored by :meth:`from_state`
        therefore makes bit-identical routing and absorption decisions on
        all subsequent insertions — which is what makes resume-then-finish
        equivalent to an uninterrupted run.

        Calling this quiesces the lazy batch engine (its mirror caches are
        rebuilt from node state on the next batch), so a checkpointed run
        and a resumed run see identical engine state from here on.
        """
        self._batch_engine = None
        leaf_ids = {id(leaf): index for index, leaf in enumerate(self.leaves())}

        def encode(node: Node) -> Dict[str, object]:
            state: Dict[str, object] = {"cf": node.cf.state_dict()}
            if node.is_leaf:
                leaf: LeafNode = node  # type: ignore[assignment]
                if id(leaf) not in leaf_ids:
                    raise RuntimeError(
                        "ACF-tree leaf is not on the leaf chain; tree is corrupt"
                    )
                state["leaf"] = leaf_ids[id(leaf)]
                state["entries"] = [entry.state_dict() for entry in leaf.entries]
            else:
                state["children"] = [
                    encode(child)
                    for child in node.children  # type: ignore[attr-defined]
                ]
            return state

        root = encode(self._root)
        n_leaves = sum(1 for _ in self.leaves())
        if n_leaves != len(leaf_ids):  # pragma: no cover - defensive
            raise RuntimeError("leaf chain does not cover the tree")
        return {
            "dimension": self.dimension,
            "threshold": self.threshold,
            "branching": self.branching,
            "leaf_capacity": self.leaf_capacity,
            "cross_dimensions": dict(self.cross_dimensions),
            "n_points": self._n_points,
            "n_splits": self._n_splits,
            "n_leaves": n_leaves,
            "root": root,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "ACFTree":
        """Rebuild the exact tree serialized by :meth:`state_dict`."""
        tree = cls(
            dimension=int(state["dimension"]),  # type: ignore[arg-type]
            threshold=float(state["threshold"]),  # type: ignore[arg-type]
            branching=int(state["branching"]),  # type: ignore[arg-type]
            leaf_capacity=int(state["leaf_capacity"]),  # type: ignore[arg-type]
            cross_dimensions={
                name: int(dim)
                for name, dim in state["cross_dimensions"].items()  # type: ignore[attr-defined]
            },
        )
        n_leaves = int(state["n_leaves"])  # type: ignore[arg-type]
        leaves: List[Optional[LeafNode]] = [None] * n_leaves

        def decode(node_state: Mapping[str, object]) -> Node:
            if "children" in node_state:
                node: Node = InternalNode(tree.branching, tree.dimension)
                for child_state in node_state["children"]:  # type: ignore[attr-defined]
                    node.add_child(decode(child_state))  # type: ignore[attr-defined]
            else:
                leaf = LeafNode(tree.leaf_capacity, tree.dimension)
                leaf.entries = [
                    ACF.from_state(entry_state)
                    for entry_state in node_state["entries"]  # type: ignore[attr-defined]
                ]
                tree._n_entries += len(leaf.entries)
                index = int(node_state["leaf"])  # type: ignore[arg-type]
                if not 0 <= index < n_leaves or leaves[index] is not None:
                    raise ValueError(f"invalid or duplicate leaf id {index} in state")
                leaves[index] = leaf
                node = leaf
            # Restore the aggregate exactly as serialized — recomputing it
            # would re-associate the float sums and perturb routing.
            node._cf = CF.from_state(node_state["cf"])  # type: ignore[assignment]
            return node

        tree._root = decode(state["root"])  # type: ignore[arg-type]
        tree._n_leaves = n_leaves
        tree._n_internal = tree.node_count() - n_leaves
        missing = [index for index, leaf in enumerate(leaves) if leaf is None]
        if missing:
            raise ValueError(f"leaf ids {missing} missing from serialized tree")
        for index in range(n_leaves - 1):
            leaves[index].next_leaf = leaves[index + 1]  # type: ignore[union-attr]
            leaves[index + 1].prev_leaf = leaves[index]  # type: ignore[union-attr]
        tree._first_leaf = leaves[0]  # type: ignore[assignment]
        tree._n_points = int(state["n_points"])  # type: ignore[arg-type]
        tree._n_splits = int(state["n_splits"])  # type: ignore[arg-type]
        return tree
