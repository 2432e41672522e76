"""Outlier store: paging low-support subclusters out of the tree.

Section 4.3.1: "As the CF-tree is being built, small clusters (outliers) may
be paged out to disk.  We define outliers to be the clusters that are
significantly smaller than the frequency threshold.  Since this is done
before all data has been scanned, clusters may be wrongly categorized as
outliers.  Hence, outliers need to be re-inserted into the complete tree to
ensure that they are indeed outliers."

This module provides the in-memory analogue of that disk page: a FIFO store
of ACF entries with byte accounting, plus the replay step that re-inserts
them after the scan and reports which ones were absorbed into real clusters
versus confirmed as outliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.birch.batch import ScanStats
from repro.birch.features import ACF
from repro.birch.memory import MemoryModel
from repro.birch.tree import ACFTree

__all__ = ["OutlierStore", "ReplayReport"]


@dataclass
class ReplayReport:
    """Outcome of re-inserting paged-out entries into the finished tree."""

    absorbed: int = 0
    confirmed_outliers: List[ACF] = field(default_factory=list)

    @property
    def confirmed_count(self) -> int:
        """Number of confirmed outlier subclusters."""
        return len(self.confirmed_outliers)

    @property
    def outlier_tuples(self) -> int:
        """Total tuples across confirmed outlier subclusters."""
        return sum(entry.n for entry in self.confirmed_outliers)


class OutlierStore:
    """Holds subclusters paged out of the ACF-tree during the scan."""

    def __init__(self, memory_model: MemoryModel):
        self._memory_model = memory_model
        self._entries: List[ACF] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[ACF, ...]:
        """The stored subclusters, as an immutable snapshot."""
        return tuple(self._entries)

    @property
    def tuple_count(self) -> int:
        """Total tuples across all stored subclusters."""
        return sum(entry.n for entry in self._entries)

    def bytes_used(self) -> int:
        """Memory charged to the store under the tree's cost model."""
        return len(self._entries) * self._memory_model.bytes_per_leaf_entry()

    def page_out(self, entries: List[ACF]) -> None:
        """Take ownership of entries evicted from the tree."""
        self._entries.extend(entries)

    def replay_into(
        self, tree: ACFTree, min_count: int, stats: Optional[ScanStats] = None
    ) -> ReplayReport:
        """Re-insert stored entries that belong; confirm the rest as outliers.

        One batch-engine pass over the stored entries, in store order.  A
        stored entry is *absorbed* (re-inserted) when it merges into an
        existing subcluster within the tree's diameter threshold, or when
        it grew past ``min_count`` while paged out (it may have merged with
        other strays before paging) and is therefore a real cluster in its
        own right.  Everything else is a confirmed outlier: it is never
        inserted, matching the paper's reading that outliers are excluded
        from Phase II.  The store is drained either way.  ``stats`` (when
        given) accumulates the pass's scan instrumentation.
        """
        stats = stats if stats is not None else ScanStats()
        dropped = tree._insert_entries(self._entries, stats, min_count)
        report = ReplayReport(
            absorbed=len(self._entries) - len(dropped),
            confirmed_outliers=[self._entries[i] for i in dropped],
        )
        self._entries.clear()
        return report
