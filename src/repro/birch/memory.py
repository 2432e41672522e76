"""Memory accounting and the adaptive threshold controller.

Section 3 of the paper frames the whole approach around an operating
constraint: *given a limited amount of memory, find rules at the finest
level possible*.  The mechanism (inherited from BIRCH) is a byte budget on
the summary tree; when the budget is exceeded, the diameter threshold is
raised and the tree rebuilt from its own leaf entries, coarsening the
summaries without rescanning the data.

The byte model below charges each ACF leaf entry for its count, linear sum,
square sum, bounding box, and all cross moments, and charges nodes a fixed
overhead plus per-slot pointers.  The absolute constants matter less than
being *monotone in what the paper says matters* (entries x dimensions): the
adaptive loop only compares model output against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["MemoryModel", "ThresholdSchedule"]

_FLOAT_BYTES = 8
_POINTER_BYTES = 8
_NODE_OVERHEAD_BYTES = 64
#: A budgeted scan checks its budget after every this many rows.
_MEMORY_CHECK_INTERVAL = 256


@dataclass(frozen=True)
class MemoryModel:
    """Byte-size model for an ACF-tree over a given partition layout."""

    dimension: int
    cross_dimensions: Mapping[str, int]
    branching: int
    leaf_capacity: int

    def bytes_per_leaf_entry(self) -> int:
        """One ACF: N + LS + SS + lo + hi over X, plus (N, LS, SS) per Y."""
        own = _FLOAT_BYTES * (1 + 4 * self.dimension)
        cross = sum(
            _FLOAT_BYTES * (1 + 2 * dim) for dim in self.cross_dimensions.values()
        )
        return own + cross

    def bytes_per_leaf_node(self) -> int:
        """Fixed cost of a leaf node, excluding its entries."""
        return _NODE_OVERHEAD_BYTES + _POINTER_BYTES * (self.leaf_capacity + 2)

    def bytes_per_internal_node(self) -> int:
        # Each child slot holds a pointer plus the child's aggregate CF.
        """Fixed cost of an internal node and its child slots."""
        per_slot = _POINTER_BYTES + _FLOAT_BYTES * (1 + 2 * self.dimension)
        return _NODE_OVERHEAD_BYTES + per_slot * self.branching

    def tree_bytes(self, n_entries: int, n_leaves: int, n_internal: int) -> int:
        """Estimated bytes for a tree of the given shape."""
        return (
            n_entries * self.bytes_per_leaf_entry()
            + n_leaves * self.bytes_per_leaf_node()
            + n_internal * self.bytes_per_internal_node()
        )

    def max_entries_within(self, budget_bytes: int) -> int:
        """Rough entry capacity of a budget (ignores interior-node share)."""
        per_entry = self.bytes_per_leaf_entry() + self.bytes_per_leaf_node() / max(
            self.leaf_capacity, 1
        )
        return max(int(budget_bytes / per_entry), 1)


@dataclass(frozen=True)
class _BudgetProbe:
    """The budget checks of a scan (after every ``_MEMORY_CHECK_INTERVAL``-th
    row), as seen by a batch that ``scanned`` rows of the scan precede."""

    model: MemoryModel
    limit_bytes: int
    scanned: int

    def over(self, tree) -> bool:
        """Whether ``tree`` (an :class:`~repro.birch.tree.ACFTree`) is over budget."""
        return self.model.tree_bytes(*tree.summary_counts()) > self.limit_bytes

    def stop_after(self, row: int) -> int:
        """Batch rows up to the first check after batch row ``row`` is inserted."""
        interval = _MEMORY_CHECK_INTERVAL
        return ((self.scanned + row) // interval + 1) * interval - self.scanned


class ThresholdSchedule:
    """Chooses the next diameter threshold when the tree outgrows memory.

    BIRCH's heuristic: the new threshold should be large enough that some
    existing subclusters merge.  We take the maximum of a multiplicative
    bump and the smallest centroid distance between any two entries sharing
    a leaf (the cheapest merge the rebuild could perform), so every rebuild
    is guaranteed to shrink the tree by at least one entry in the worst
    case.
    """

    def __init__(self, growth_factor: float = 2.0, initial_step: float = 1e-3):
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1 for progress")
        self.growth_factor = growth_factor
        self.initial_step = initial_step

    def state_dict(self) -> dict:
        """Plain-builtin form for checkpoints."""
        return {"growth_factor": self.growth_factor, "initial_step": self.initial_step}

    @classmethod
    def from_state(cls, state: dict) -> "ThresholdSchedule":
        """Rebuild from :meth:`state_dict` output."""
        return cls(
            growth_factor=float(state["growth_factor"]),
            initial_step=float(state["initial_step"]),
        )

    def next_threshold(self, tree) -> float:
        """Next threshold for ``tree`` (an :class:`~repro.birch.tree.ACFTree`)."""
        current = tree.threshold
        bumped = current * self.growth_factor if current > 0 else self.initial_step
        closest = self._closest_intra_leaf_distance(tree)
        if closest is not None:
            bumped = max(bumped, closest)
        return bumped

    @staticmethod
    def _closest_intra_leaf_distance(tree) -> float:
        best = None
        for leaf in tree.leaves():
            if len(leaf.entries) < 2:
                continue
            centroids = np.stack([entry.centroid for entry in leaf.entries])
            deltas = centroids[:, None, :] - centroids[None, :, :]
            distances = np.linalg.norm(deltas, axis=-1)
            np.fill_diagonal(distances, np.inf)
            leaf_best = float(distances.min())
            if best is None or leaf_best < best:
                best = leaf_best
        return best
