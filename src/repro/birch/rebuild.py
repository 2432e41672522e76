"""Tree rebuilding: coarsen the summary without rescanning the data.

Section 4.3.1: "If the memory is full, the tree is reduced by increasing the
diameter threshold and rebuilding the tree.  The rebuilding is done by
re-inserting leaf CF nodes into the tree.  Hence, the data ... does not need
to be rescanned."  Because ACFs are additive, re-inserting the existing leaf
entries under a larger threshold merges nearby subclusters and shrinks the
summary while preserving every moment exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.birch.batch import ScanStats
from repro.birch.features import ACF
from repro.birch.tree import ACFTree
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

__all__ = ["rebuild_tree", "split_off_outlier_entries"]


def rebuild_tree(
    tree: ACFTree, new_threshold: float, stats: Optional[ScanStats] = None
) -> ACFTree:
    """Re-insert ``tree``'s leaf entries into a fresh tree at ``new_threshold``.

    The result summarizes exactly the same tuples (same total count, same
    global moments); only the granularity changes.  Raises ``ValueError``
    if the threshold does not increase, since a rebuild at the same or a
    smaller threshold cannot shrink the tree.  ``stats`` (when given)
    accumulates the replay's scan instrumentation and rebuild count.
    """
    if new_threshold <= tree.threshold and tree.threshold > 0:
        raise ValueError(
            f"rebuild threshold {new_threshold} must exceed current {tree.threshold}"
        )
    with span(
        "phase1.rebuild",
        old_threshold=tree.threshold,
        new_threshold=new_threshold,
    ) as rebuild_span:
        rebuilt = ACFTree(
            dimension=tree.dimension,
            threshold=new_threshold,
            branching=tree.branching,
            leaf_capacity=tree.leaf_capacity,
            cross_dimensions=tree.cross_dimensions,
        )
        # The engine copies the entries it keeps: the input is not mutated.
        rebuilt.insert_entries(tree.entries(), stats=stats)
        if stats is not None:
            stats.rebuilds += 1
        rebuild_span.set("entries", rebuilt.summary_counts()[0])
        obs_metrics.inc(
            "repro_threshold_escalations_total",
            help="Diameter-threshold escalations (memory-pressure rebuilds)",
        )
        return rebuilt


def split_off_outlier_entries(
    tree: ACFTree, min_count: int, stats: Optional[ScanStats] = None
) -> Tuple[ACFTree, List[ACF]]:
    """Rebuild ``tree`` keeping only entries with at least ``min_count`` tuples.

    The removed (outlier) entries are returned so the caller can page them
    out and replay them once the scan completes (Section 4.3.1 outlier
    handling).  If *every* entry is an outlier the tree is left as-is and
    nothing is paged out, since discarding the whole summary would lose the
    scan.
    """
    keep: List[ACF] = []
    outliers: List[ACF] = []
    for entry in tree.entries():
        (keep if entry.n >= min_count else outliers).append(entry)
    if not keep:
        return tree, []
    rebuilt = ACFTree(
        dimension=tree.dimension,
        threshold=tree.threshold,
        branching=tree.branching,
        leaf_capacity=tree.leaf_capacity,
        cross_dimensions=tree.cross_dimensions,
    )
    rebuilt.insert_entries(keep, stats=stats)
    return rebuilt, outliers
