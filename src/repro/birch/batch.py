"""Batch ingestion: the one code path that changes an ACF-tree.

Phase I has one operation (Section 4.3.1): insert into the ACF-tree.  A
raw point descends to the leaf whose subtree centroid is closest, joins
the closest leaf entry if the merged RMS diameter stays within the
threshold, and otherwise starts a new entry, splitting full nodes on the
way back up.  Rebuilds and outlier replay insert whole subclusters the
same way, each routed by its centroid.  :class:`BatchInserter` makes
every one of those decisions, one item at a time, with three ideas that
keep the per-item cost low:

1. **Mirror caches.**  Every node visited during a batch gets a *mirror*
   of its children's (or entries') counts, linear sums and centroids:
   plain Python floats in one dimension, preallocated numpy rows
   otherwise.  Descent and closest-entry selection read the mirror
   instead of walking node objects.  Mirrors are updated incrementally
   (one slot per insertion) and dropped when a split restructures the
   node.

2. **Deferred bulk accumulation.**  Absorption decisions only need the main
   moments ``(n, LS, SS)``, which the mirrors carry.  Everything else —
   cross moments, bounding boxes, leaf aggregates, ancestor aggregates — is
   buffered per destination leaf and applied at *flush* time: cross
   moments by unbuffered ``np.add.at`` scatters (which add in index
   order), node aggregates by running sums down the items in scan order.

3. **Verified bulk windows (1-D points).**  A window of points is routed
   against the centroids it starts from, the state each point would
   really meet is rebuilt with cumulative sums, and every decision is
   recomputed from it; the prefix that agrees is committed in one step
   (:meth:`BatchInserter._speculate`).

**Batch invariance.**  Every item is decided against mirror state that
was updated after the item before it, with one fixed arithmetic (same
linear-sum accumulation order, same division, ``argmin``'s first-minimum
tie-break), and every deferred value adds its items one at a time in scan
order.  So the tree is byte for byte the same wherever a scan cuts its
batches, down to one item per batch.

**Budget probes.**  Modelled bytes grow only when a point starts an entry
or splits a node, and never fall within a batch.  So after each such step
the engine asks the scan's budget probe whether the tree is over budget,
and at the first yes ends the batch at the next probe row: exactly where
a probe every 256 rows would first fire.

:class:`ScanStats` instruments the scan (throughput, absorb rate, splits,
rebuilds, per-stage wall time) and is threaded through the Phase I driver
(:mod:`repro.birch.birch`), the streaming miner and the CLI ``--stats``
flag.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from math import inf, sqrt
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.birch.features import ACF, CF
from repro.birch.memory import _BudgetProbe
from repro.birch.node import LeafNode, Node
from repro.metrics.cluster import rms_diameter_from_moments
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.birch.tree import ACFTree

__all__ = ["ScanStats", "BatchInserter"]

#: Speculative windows of the 1-D scan (:meth:`BatchInserter._speculate`)
#: double while whole windows verify and restart from twice the verified
#: prefix after a failure.  Their rows are capped so that each dense
#: ``(rows + 1) x k`` block a window builds stays near 0.5 MB.
_WINDOW_ROWS_MIN = 32
_WINDOW_CELLS = 65_536
#: A node visit of a window costs about as much as this many points of
#: the per-point loop.  A window examines a node only while its still
#: verifiable rows pay for the visit, and one that ends up paying less (a
#: split storm) hands ``_STRETCH_PER_VISIT`` points per node it visited,
#: times a back-off factor that doubles with each poor window in a row (up
#: to ``_BACKOFF_MAX``), to the per-point loop before the next window.
#: These constants only trade speed: every decision is the per-point one.
_VERIFIED_PER_VISIT = 32
_STRETCH_PER_VISIT = 512
_BACKOFF_MAX = 64


@dataclass
class ScanStats:
    """Instrumentation of one or more batch-ingestion scans.

    One object can be threaded through many calls (chunked scans, rebuild
    replays): every counter accumulates.  The timers sum span durations:
    ``seconds_total`` of ``phase1.insert_batch``, ``seconds_flush`` of the
    end-of-batch ``phase1.flush`` (deferred bulk moment application) and
    ``seconds_split`` of ``phase1.split`` (node splits, including the
    forced flushes they require).  ``seconds_scan``, routing and
    absorption decisions, is what the total leaves over.
    """

    points: int = 0
    """Raw points ingested through the batch path."""
    entries: int = 0
    """Whole subcluster summaries ingested (rebuild / replay batches)."""
    absorbed: int = 0
    """Items merged into an existing leaf entry."""
    new_entries: int = 0
    """Items that started a new leaf entry."""
    verified: int = 0
    """Absorbed points decided in bulk by the 1-D scan's verified windows
    (the rest of the items took the per-point loop)."""
    splits: int = 0
    """Node splits triggered while ingesting."""
    rebuilds: int = 0
    """Tree rebuilds the owning scan performed (set by the driver)."""
    batches: int = 0
    """Number of ``insert_points`` / ``insert_entries`` calls."""
    flushes: int = 0
    """Deferred-buffer flushes (at least one per batch, plus one per split)."""
    seconds_total: float = 0.0
    seconds_scan: float = 0.0
    seconds_flush: float = 0.0
    seconds_split: float = 0.0

    @property
    def items(self) -> int:
        """Points plus entries ingested."""
        return self.points + self.entries

    @property
    def absorb_rate(self) -> float:
        """Fraction of ingested items absorbed into existing entries."""
        total = self.items
        return self.absorbed / total if total else 0.0

    @property
    def points_per_second(self) -> float:
        """Ingestion throughput over the accumulated wall time."""
        return self.items / self.seconds_total if self.seconds_total > 0 else 0.0

    def merge(self, other: "ScanStats") -> None:
        """Accumulate another scan's counters into this one."""
        self.points += other.points
        self.entries += other.entries
        self.absorbed += other.absorbed
        self.new_entries += other.new_entries
        self.verified += other.verified
        self.splits += other.splits
        self.rebuilds += other.rebuilds
        self.batches += other.batches
        self.flushes += other.flushes
        self.seconds_total += other.seconds_total
        self.seconds_scan += other.seconds_scan
        self.seconds_flush += other.seconds_flush
        self.seconds_split += other.seconds_split

    def to_dict(self) -> dict:
        """Plain-builtin counters for checkpoints and reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, state: dict) -> "ScanStats":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{name: value for name, value in state.items() if name in names})

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI ``--stats``)."""
        return (
            f"{self.items} items in {self.seconds_total:.3f}s "
            f"({self.points_per_second:,.0f}/s), "
            f"absorb {100.0 * self.absorb_rate:.1f}%, "
            f"{self.new_entries} new entries, {self.verified} verified, "
            f"{self.splits} splits, "
            f"{self.rebuilds} rebuilds "
            f"[scan {self.seconds_scan:.3f}s flush {self.seconds_flush:.3f}s "
            f"split {self.seconds_split:.3f}s]"
        )

    def publish(self, partition: str, since: Optional[dict] = None) -> None:
        """Emit this scan's counters into the process metrics registry.

        The per-run/per-partition ``ScanStats`` object stays the
        authoritative record (it is what ``--stats`` prints and what
        checkpoints serialize); this bridge re-emits the same numbers as
        ``repro_phase1_*`` metrics labeled by ``partition``, so registry
        totals always match the stats views.  ``since`` (a prior
        :meth:`to_dict` snapshot) restricts emission to the delta
        accumulated after the snapshot — drivers that reuse one stats
        object across many updates (the streaming miner) use it to avoid
        double-counting.  No-op while metrics are disabled.
        """
        if not obs_metrics.metrics_enabled():
            return
        base = since or {}

        def delta(name: str) -> float:
            return getattr(self, name) - base.get(name, 0)

        for field_name, metric, help_text in _SCAN_METRICS:
            obs_metrics.inc(
                metric, delta(field_name), help=help_text, partition=partition
            )


#: ``ScanStats`` field → (metric name, help) for :meth:`ScanStats.publish`.
_SCAN_METRICS = (
    ("points", "repro_phase1_points_total",
     "Raw points ingested through the batch scan path"),
    ("entries", "repro_phase1_entries_total",
     "Subcluster summaries re-ingested by rebuilds and replays"),
    ("absorbed", "repro_phase1_absorbed_total",
     "Items merged into an existing leaf entry"),
    ("new_entries", "repro_phase1_new_entries_total",
     "Items that started a new leaf entry"),
    ("verified", "repro_phase1_verified_total",
     "Points absorbed by verified bulk windows of the 1-D scan"),
    ("splits", "repro_phase1_splits_total",
     "Leaf/internal node splits triggered while ingesting"),
    ("rebuilds", "repro_phase1_rebuilds_total",
     "Threshold-escalation tree rebuilds"),
    ("batches", "repro_phase1_batches_total",
     "insert_points / insert_entries calls"),
    ("flushes", "repro_phase1_flushes_total",
     "Deferred-buffer flushes"),
    ("seconds_total", "repro_phase1_seconds_total",
     "Wall seconds spent in batch ingestion"),
    ("seconds_scan", "repro_phase1_scan_seconds_total",
     "Wall seconds spent routing and absorbing"),
    ("seconds_flush", "repro_phase1_flush_seconds_total",
     "Wall seconds spent applying deferred bulk updates"),
    ("seconds_split", "repro_phase1_split_seconds_total",
     "Wall seconds spent splitting nodes"),
)


class _Mirror:
    """Per-slot ``(n, LS, SS, centroid)`` of one node: one slot per child of
    an internal node (``ss`` is ``None``), one per entry of a leaf.

    Routing picks the closest non-empty slot, keeping the first of equal
    minima; empty slots never win, and an internal node whose children
    are all empty routes to its first child.
    """

    __slots__ = ("count", "n", "ls", "ss", "cent", "n_empty")

    def closest(self, point):
        """Index of the closest non-empty entry of a leaf."""
        if self.n_empty == self.count:
            raise ValueError("closest entry of a leaf with only empty entries")
        return self.route(point)

    def absorb(self, index: int, dn: int, dls, dss) -> None:
        """Merge ``dn`` tuples with linear sum ``dls`` and squares ``dss``
        into entry ``index``."""
        self.note(index, dn, dls)
        self.ss[index] += dss


class _ArrayMirror(_Mirror):
    """Numpy rows, for nodes of a tree of two or more dimensions."""

    __slots__ = ()

    def __init__(self, node: Node, dimension: int):
        leaf = node.is_leaf
        cfs = _slot_cfs(node)
        capacity = (node.capacity if leaf else node.branching) + 1  # type: ignore[attr-defined]
        self.count = len(cfs)
        self.n = np.zeros(capacity, dtype=np.int64)
        self.ls = np.zeros((capacity, dimension), dtype=np.float64)
        self.ss = np.zeros((capacity, dimension), dtype=np.float64) if leaf else None
        self.cent = np.zeros((capacity, dimension), dtype=np.float64)
        self.n_empty = 0
        for index, cf in enumerate(cfs):
            self.n[index] = cf.n
            self.ls[index] = cf.ls
            if leaf:
                self.ss[index] = cf.ss
            if cf.n:
                self.cent[index] = cf.ls / cf.n
            else:
                self.n_empty += 1

    def route(self, point: np.ndarray) -> int:
        # Squared distances are plain sums of squared deltas: a BLAS dot
        # may fuse or reorder the adds, and a last-bit difference can flip
        # a near tie.
        k = self.count
        delta = self.cent[:k] - point
        scores = (delta * delta).sum(axis=1)
        if self.n_empty:
            if self.n_empty == k:
                return 0
            scores[self.n[:k] == 0] = np.inf
        return int(np.argmin(scores))

    def note(self, index: int, dn: int, dls: np.ndarray) -> None:
        """Record ``dn`` tuples with linear sum ``dls`` below slot ``index``."""
        if self.n[index] == 0:
            self.n_empty -= 1
        n = self.n[index] + dn
        self.n[index] = n
        ls = self.ls[index]
        ls += dls
        self.cent[index] = ls / n

    def append(self, dn: int, ls: np.ndarray, ss: np.ndarray) -> None:
        index = self.count
        self.n[index] = dn
        self.ls[index] = ls
        self.ss[index] = ss
        if dn:
            self.cent[index] = ls / dn
        else:
            self.n_empty += 1
        self.count += 1

    def merged_diameter(self, index: int, dn: int, dls: np.ndarray, total: float) -> float:
        """RMS diameter of entry ``index`` merged with ``dn`` tuples of linear
        sum ``dls`` and scalar square sum ``total``."""
        n = int(self.n[index]) + dn
        if n < 2:
            return 0.0
        ls = self.ls[index] + dls
        ss = float(self.ss[index].sum()) + total
        return rms_diameter_from_moments(n, ls, ss)


class _ScalarMirror(_Mirror):
    """Python floats, for nodes of a one-dimensional tree.

    Every step is a single IEEE-754 scalar operation, the one numpy would
    perform elementwise on length-1 rows, without numpy's per-call
    dispatch cost.
    """

    __slots__ = ()

    def __init__(self, node: Node):
        cfs = _slot_cfs(node)
        self.count = len(cfs)
        self.n: List[int] = [cf.n for cf in cfs]
        self.ls: List[float] = [float(cf.ls[0]) for cf in cfs]
        self.ss = [float(cf.ss[0]) for cf in cfs] if node.is_leaf else None
        self.cent = [ls / n if n else 0.0 for n, ls in zip(self.n, self.ls)]
        self.n_empty = self.n.count(0)

    def route(self, point: float) -> int:
        best = -1
        best_squared = inf
        counts = self.n
        cent = self.cent
        for index in range(self.count):
            if counts[index] == 0:
                continue
            delta = cent[index] - point
            squared = delta * delta
            if squared < best_squared:
                best = index
                best_squared = squared
        return 0 if best < 0 else best

    def note(self, index: int, dn: int, dls: float) -> None:
        n = self.n[index]
        if n == 0:
            self.n_empty -= 1
        n += dn
        self.n[index] = n
        ls = self.ls[index] + dls
        self.ls[index] = ls
        self.cent[index] = ls / n

    def append(self, dn: int, ls: float, ss: float) -> None:
        self.n.append(dn)
        self.ls.append(ls)
        self.ss.append(ss)
        if dn:
            self.cent.append(ls / dn)
        else:
            self.cent.append(0.0)
            self.n_empty += 1
        self.count += 1

    def merged_diameter(self, index: int, dn: int, dls: float, total: float) -> float:
        n = self.n[index] + dn
        if n < 2:
            return 0.0
        ls = self.ls[index] + dls
        squared = (2.0 * n * (self.ss[index] + total) - 2.0 * ls * ls) / (n * (n - 1))
        return sqrt(squared) if squared > 0.0 else 0.0


def _slot_cfs(node: Node) -> List[CF]:
    if node.is_leaf:
        return [entry.cf for entry in node.entries]  # type: ignore[attr-defined]
    return [child.cf for child in node.children]  # type: ignore[attr-defined]


def _mirror(node: Node, dimension: int) -> _Mirror:
    """A fresh mirror of ``node``'s slots, of the kind its tree uses."""
    if dimension == 1:
        return _ScalarMirror(node)
    return _ArrayMirror(node, dimension)


class _LeafBuffer:
    """Deferred updates destined for one leaf (flushed in bulk).

    The per-point loop lists its items one by one; a verified window adds
    its ``(entry, item)`` index arrays to ``windows`` whole.
    """

    __slots__ = ("absorbed_entry", "absorbed_item", "new_items", "windows")

    def __init__(self) -> None:
        self.absorbed_entry: List[int] = []
        self.absorbed_item: List[int] = []
        self.new_items: List[int] = []
        self.windows: List[Tuple[np.ndarray, np.ndarray]] = []

    def absorbed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Entry and item indices of the absorbed items, in scan order."""
        entry_idx = np.concatenate(
            [np.asarray(self.absorbed_entry, dtype=np.intp), *(e for e, _ in self.windows)]
        )
        item_idx = np.concatenate(
            [np.asarray(self.absorbed_item, dtype=np.intp), *(i for _, i in self.windows)]
        )
        if len(self.windows) + bool(self.absorbed_item) > 1:
            order = np.argsort(item_idx, kind="stable")
            entry_idx, item_idx = entry_idx[order], item_idx[order]
        return entry_idx, item_idx


class _Batch:
    """Precomputed column-stacked views of one batch of points or entries.

    The per-item loop reads ``xs`` (linear sums), ``qs`` (squares),
    ``totals`` (scalar square sums) and ``ns`` (counts): Python floats in
    one dimension, numpy rows otherwise.  A scalar square sum is taken as
    ``point @ point`` for a point and as :attr:`CF.ss_total` for an entry,
    the forms every merged diameter has always used.
    """

    __slots__ = (
        "size", "n", "ls", "ss", "lo", "hi", "cross", "entries",
        "ns", "xs", "qs", "totals", "min_count", "dropped",
    )

    def __init__(
        self,
        n: np.ndarray,
        ls: np.ndarray,
        ss: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        cross: Dict[str, Dict[str, np.ndarray]],
        entries: Optional[Sequence[ACF]],
        min_count: int = 0,
    ):
        self.size = ls.shape[0]
        self.n = n          # (B,) int — 1 for raw points
        self.ls = ls        # (B, dim) — the points themselves in point mode
        self.ss = ss        # (B, dim) — elementwise squares / entry SS rows
        self.lo = lo        # (B, dim) bounding-box contribution
        self.hi = hi
        self.cross = cross  # name -> {"n": (B,), "ls": (B, dy), "ss": (B, dy)}
        self.entries = entries  # entry mode only: the source ACFs
        self.ns: List[int] = n.tolist()
        if ls.shape[1] == 1:
            self.xs = ls[:, 0].tolist()
            self.qs = ss[:, 0].tolist()
            self.totals = self.qs
        else:
            self.xs, self.qs = ls, ss
            self.totals = (
                [float(x @ x) for x in ls]
                if entries is None
                else [entry.cf.ss_total for entry in entries]
            )
        # An entry no existing entry absorbs and with fewer than
        # ``min_count`` tuples is left out of the tree and listed here.
        self.min_count = min_count
        self.dropped: List[int] = []

    @classmethod
    def of_points(
        cls, points: np.ndarray, cross_values: Mapping[str, np.ndarray]
    ) -> "_Batch":
        cross = {
            name: {"n": None, "ls": matrix, "ss": matrix * matrix}
            for name, matrix in cross_values.items()
        }
        return cls(
            n=np.ones(points.shape[0], dtype=np.int64),
            ls=points,
            ss=points * points,
            lo=points,
            hi=points,
            cross=cross,
            entries=None,
        )

    @classmethod
    def of_entries(cls, entries: Sequence[ACF], min_count: int = 0) -> "_Batch":
        n = np.array([entry.n for entry in entries], dtype=np.int64)
        ls = np.stack([entry.cf.ls for entry in entries])
        ss = np.stack([entry.cf.ss for entry in entries])
        lo = np.stack([entry.lo for entry in entries])
        hi = np.stack([entry.hi for entry in entries])
        cross: Dict[str, Dict[str, np.ndarray]] = {}
        for name in entries[0].cross:
            cross[name] = {
                "n": np.array([entry.cross[name].n for entry in entries], dtype=np.int64),
                "ls": np.stack([entry.cross[name].ls for entry in entries]),
                "ss": np.stack([entry.cross[name].ss for entry in entries]),
            }
        return cls(
            n=n, ls=ls, ss=ss, lo=lo, hi=hi, cross=cross, entries=entries,
            min_count=min_count,
        )


class BatchInserter:
    """Reusable batch-ingestion engine bound to one :class:`ACFTree`.

    Owned by the tree (created lazily by ``insert_points`` /
    ``insert_entries``, dropped by ``state_dict``).  All buffered updates
    are flushed before every split and before control returns to the
    caller, so the tree object graph is always consistent between calls.
    """

    def __init__(self, tree: "ACFTree"):
        self.tree = tree
        # 1-D trees (the paper's single-attribute partitions) use scalar
        # mirrors and, for points, verified bulk windows.
        self._scalar = tree.dimension == 1
        self._mirrors: Dict[Node, _Mirror] = {}
        self._buffers: Dict[LeafNode, _LeafBuffer] = {}
        self._batch: Optional[_Batch] = None
        # Rows of the current batch to ingest, cut short by a budget probe.
        self._stop = 0
        self._probe: Optional[_BudgetProbe] = None
        # Speculation state of the 1-D point scan, carried across batches.
        self._window = _WINDOW_ROWS_MIN
        self._window_max = max(
            _WINDOW_ROWS_MIN,
            _WINDOW_CELLS // (max(tree.branching, tree.leaf_capacity) + 1),
        )
        self._visits = 1
        self._stretch_left = 0
        self._backoff = 1

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def run(
        self,
        prepare: Callable[[], _Batch],
        stats: ScanStats,
        probe: Optional[_BudgetProbe] = None,
    ) -> _Batch:
        """Prepare one batch and ingest it, updating ``stats`` and the tree.

        ``prepare`` builds the batch inside the ``phase1.insert_batch``
        span, so the batch's squares count toward the scan.  With a
        ``probe`` (point batches), ingestion ends at the first probe row
        after growth first takes the tree over budget; ``stats.points``
        grows by the rows actually taken.  Returns the ingested batch.
        """
        split_seconds_before = stats.seconds_split
        with span("phase1.insert_batch") as batch_span:
            batch = prepare()
            point_mode = batch.entries is None
            batch_span.set("size", batch.size)
            batch_span.set("mode", "points" if point_mode else "entries")
            tree = self.tree
            splits_before = tree.n_splits
            absorbed_before = stats.absorbed
            self._batch = batch
            self._stop = batch.size
            self._probe = probe if point_mode else None

            if self._scalar and point_mode:
                self._scan_windows(batch, stats)
            else:
                self._scan_range(batch, stats, 0, batch.size)

            with span("phase1.flush") as flush_span:
                self.flush(stats)

            if point_mode:
                stats.points += self._stop
                tree._n_points += self._stop
            else:
                stats.entries += batch.size - len(batch.dropped)
                tree._n_points += sum(batch.ns) - sum(batch.ns[i] for i in batch.dropped)
            stats.splits += tree.n_splits - splits_before
            stats.batches += 1
            self._batch = None
            self._probe = None
            batch_span.set("absorbed", stats.absorbed - absorbed_before)
            batch_span.set("splits", tree.n_splits - splits_before)
        stats.seconds_total += batch_span.seconds
        stats.seconds_flush += flush_span.seconds
        stats.seconds_scan += (
            batch_span.seconds
            - flush_span.seconds
            - (stats.seconds_split - split_seconds_before)
        )
        return batch

    def _scan_windows(self, batch: _Batch, stats: ScanStats) -> None:
        """Scan a batch of points into a 1-dimensional tree.

        Speculative windows, decided in bulk by :meth:`_speculate`,
        alternate with the per-item loop of :meth:`_scan_range`, which
        takes every point a window could not verify (a new entry, a split,
        a routing guess that drifted) and whole stretches of points while
        windows verify too few points per node visited.
        """
        position = 0
        # ``self._stop`` may shrink under a budget probe, but only inside
        # the per-point loop, which alone creates entries and splits nodes.
        while position < self._stop:
            # Rows that pay for the descents a window is expected to make.
            need = _VERIFIED_PER_VISIT * max(self.tree.height, self._visits)
            stop = position + self._stretch_left
            if not self._stretch_left and self._stop - position < need:
                stop = self._stop
            if stop > position:
                reached = self._scan_range(batch, stats, position, min(stop, self._stop))
                self._stretch_left = max(0, self._stretch_left - (reached - position))
                position = reached
                continue
            rows = min(max(self._window, need), self._window_max, self._stop - position)
            verified, visits, failed, starved = self._speculate(
                batch, position, rows, stats
            )
            position += verified
            if failed:
                # The first unverified point takes the per-point step,
                # which may create an entry or split a node.
                position = self._scan_range(batch, stats, position, position + 1)
                self._window = max(_WINDOW_ROWS_MIN, 2 * verified)
            else:
                self._window = min(2 * rows, self._window_max)
            poor = verified < _VERIFIED_PER_VISIT * visits
            if starved:
                # Too short for the nodes its points need: count the one it
                # could not pay for, so the next window is longer (or a
                # batch's last rows take the per-point loop).
                self._visits = visits + 1
                poor = poor and rows == self._window_max
            else:
                self._visits = visits
            if poor:
                # Back off for longer each time in a row.
                self._stretch_left = _STRETCH_PER_VISIT * visits * self._backoff
                self._backoff = min(2 * self._backoff, _BACKOFF_MAX)
            elif not starved:
                self._backoff = 1

    def _speculate(
        self, batch: _Batch, start: int, rows: int, stats: ScanStats
    ) -> Tuple[int, int, bool, bool]:
        """Decide a window of points in bulk.

        Every point of ``batch[start:start + rows]`` is first routed
        against the centroids the window starts from (the *guess*).  Then,
        for each visited node, the state every point would really see is
        rebuilt from the guesses by one cumulative sum down a *trajectory*
        matrix: row 0 holds the node's slots' ``(LS | SS | n)``, row
        ``r + 1`` holds point ``r``'s value, square and 1 in its guessed
        slot and ``-0.0`` (the IEEE additive identity) everywhere else, so
        every running sum adds exactly what the per-point loop adds, in
        exactly its order.  Each point's argmin (first minimum, empty slots
        skipped) and merged diameter are recomputed from that state with
        the per-point loop's arithmetic.  The prefix before the first point
        whose guess, at any level, or threshold test disagrees is
        committed by :meth:`_commit`.

        Nodes are examined in the order the window's points first need
        them.  When the rows still verifiable could not pay for the next
        node (``_VERIFIED_PER_VISIT``), the window is cut before the first
        point that needs it instead.

        Returns ``(verified, visits, failed, starved)``: the length of the
        committed prefix, the number of nodes examined, whether the prefix
        ends at a point that failed verification, and whether it ends at a
        cut made before any point failed (the window was too short for the
        nodes its points need, rather than the points too hard).
        """
        threshold = self.tree.threshold
        mirrors = self._mirrors
        x = batch.ls[start : start + rows, 0]
        q = batch.ss[start : start + rows, 0]
        limit = rows  # the first point known to fail
        failed = starved = False
        plans: List[tuple] = []
        # Nodes still to examine, the one the earliest point needs first.
        pending = [(0, self.tree._root, np.arange(rows), x)]
        while pending:
            first, node, idx, xv = heappop(pending)
            if first >= limit:
                continue
            if _VERIFIED_PER_VISIT * (len(plans) + 1) > limit:
                # The rows left cannot pay for this node: keep the prefix
                # whose nodes were all examined.
                starved = limit == rows
                failed = False
                limit = first
                break
            if idx[-1] >= limit:
                cut = int(np.searchsorted(idx, limit))
                idx, xv = idx[:cut], xv[:cut]
            is_leaf = node.is_leaf
            mirror = mirrors.get(node)
            created = mirror is None
            if created:
                mirror = _mirror(node, 1)
            k = mirror.count
            if not k:  # an empty leaf: its first point starts an entry
                limit = first
                failed = True
                continue
            m = idx.shape[0]
            scores = np.array(mirror.cent) - xv[:, None]
            scores *= scores
            empty = None
            if mirror.n_empty:
                empty = np.array(mirror.n) == 0
                scores[:, empty] = inf
            guess = scores.argmin(axis=1)

            # Trajectory columns: [LS | n] for internal nodes, [LS | SS | n]
            # for leaves.  Counts stay exact as float64 (below 2**53).
            n_col = 2 * k if is_leaf else k
            width = n_col + k
            trajectory = np.full((m + 1, width), -0.0)
            trajectory[0, :k] = mirror.ls
            trajectory[0, n_col:] = mirror.n
            placed = guess + np.arange(width, (m + 1) * width, width)
            flat = trajectory.reshape(-1)
            flat[placed] = xv
            flat[placed + n_col] = 1.0
            if is_leaf:
                qv = q[idx]
                trajectory[0, k:n_col] = mirror.ss
                flat[placed + k] = qv
            trajectory = trajectory.cumsum(axis=0)

            seen_ls = trajectory[:m, :k]
            seen_n = trajectory[:m, n_col:]
            if empty is None:
                cent = seen_ls / seen_n
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    cent = seen_ls / seen_n
            cent -= xv[:, None]
            cent *= cent
            if empty is not None:
                cent[:, empty] = inf
            ok = cent.argmin(axis=1) == guess
            ok &= np.isfinite(cent.reshape(-1)[guess + np.arange(0, m * k, k)])

            if is_leaf:
                seen = trajectory.reshape(-1)
                chosen = placed - width
                merged_n = seen[chosen + n_col] + 1.0
                merged_ls = seen[chosen] + xv
                merged_ss = seen[chosen + k] + qv
                squared = (2.0 * merged_n * merged_ss - 2.0 * merged_ls * merged_ls) / (
                    merged_n * (merged_n - 1.0)
                )
                ok &= np.sqrt(np.maximum(squared, 0.0)) <= threshold

            if not ok.all():
                limit = min(limit, int(idx[np.argmin(ok)]))
                failed = True
            plans.append((node, mirror, created, idx, guess, trajectory))
            if not is_leaf:
                cut = int(np.searchsorted(idx, limit))
                head = guess[:cut]
                for child_index in np.flatnonzero(np.bincount(head, minlength=k)).tolist():
                    chosen = idx[:cut][head == child_index]
                    # Pending nodes never share a point, so ``first`` alone
                    # orders them and the nodes themselves are never compared.
                    heappush(pending, (
                        int(chosen[0]),
                        node.children[child_index],  # type: ignore[attr-defined]
                        chosen,
                        xv[:cut][head == child_index],
                    ))

        self._commit(start, limit, plans)
        stats.absorbed += limit
        stats.verified += limit
        return limit, len(plans), failed, starved

    def _commit(self, start: int, accepted: int, plans: List[tuple]) -> None:
        """Leave mirrors and leaf buffers as the per-point loop would have
        after the first ``accepted`` points of a window.

        Each node's slots take the trajectory row past its last accepted
        point; a mirror built for the window is kept only if an accepted
        point visited its node (the per-point loop builds mirrors on first
        visit).  Each leaf's accepted points join its buffer as one window.
        """
        if not accepted:
            return
        mirrors = self._mirrors
        for node, mirror, created, idx, guess, trajectory in plans:
            taken = int(np.searchsorted(idx, accepted))
            if not taken:
                continue
            if created:
                mirrors[node] = mirror
            k = mirror.count
            row = trajectory[taken]
            ls = row[:k]
            n = row[-k:]
            mirror.ls = ls.tolist()
            mirror.n = n.astype(np.int64).tolist()
            if mirror.n_empty:
                mirror.cent = np.divide(ls, n, out=np.zeros(k), where=n > 0).tolist()
            else:
                mirror.cent = (ls / n).tolist()
            if node.is_leaf:
                mirror.ss = row[k : 2 * k].tolist()
                self._buffer(node).windows.append(  # type: ignore[arg-type]
                    (guess[:taken], idx[:taken] + start)
                )

    def _scan_range(self, batch: _Batch, stats: ScanStats, start: int, stop: int) -> int:
        """The per-item loop over ``[start, stop)``: every item's own descent,
        absorb-or-start decision and split.

        A point is routed by itself and an entry by its centroid
        ``ls / n``.  Returns the row it stopped at: ``stop``, or earlier
        where a budget probe cut the batch.
        """
        tree = self.tree
        dimension = tree.dimension
        threshold = tree.threshold
        leaf_capacity = tree.leaf_capacity
        point_mode = batch.entries is None
        mirrors = self._mirrors
        buffers = self._buffers
        xs, qs, totals, ns = batch.xs, batch.qs, batch.totals, batch.ns
        min_count = batch.min_count
        absorbed_count = 0
        new_count = 0
        reached = stop

        for i in range(start, stop):
            if i == reached:
                break
            dls = xs[i]
            if point_mode:
                dn = 1
                point = dls
            else:
                dn = ns[i]
                point = dls / dn

            path: List[tuple] = []
            node = tree._root
            while not node.is_leaf:
                mirror = mirrors.get(node)
                if mirror is None:
                    mirror = mirrors[node] = _mirror(node, dimension)
                child_index = mirror.route(point)
                path.append((node, mirror, child_index))
                node = node.children[child_index]  # type: ignore[attr-defined]
            leaf: LeafNode = node  # type: ignore[assignment]
            leaf_mirror = mirrors.get(leaf)
            if leaf_mirror is None:
                leaf_mirror = mirrors[leaf] = _mirror(leaf, dimension)

            absorbed = False
            if leaf_mirror.count:
                entry_index = leaf_mirror.closest(point)
                if leaf_mirror.merged_diameter(entry_index, dn, dls, totals[i]) <= threshold:
                    leaf_mirror.absorb(entry_index, dn, dls, qs[i])
                    buffer = buffers.get(leaf)
                    if buffer is None:
                        buffer = buffers[leaf] = _LeafBuffer()
                    buffer.absorbed_entry.append(entry_index)
                    buffer.absorbed_item.append(i)
                    absorbed = True
            if not absorbed:
                if dn < min_count:
                    batch.dropped.append(i)
                    continue
                self._new_entry(leaf, batch, i)
                leaf_mirror.append(dn, dls, qs[i])
                buffer = buffers.get(leaf)
                if buffer is None:
                    buffer = buffers[leaf] = _LeafBuffer()
                buffer.new_items.append(i)

            for _, mirror, child_index in path:
                mirror.note(child_index, dn, dls)

            if absorbed:
                absorbed_count += 1
            else:
                new_count += 1
                if leaf.entry_count() > leaf_capacity:
                    self._split(leaf, path, stats)
                if self._probe is not None:
                    self._note_growth(i)
                    reached = min(stop, self._stop)

        stats.absorbed += absorbed_count
        stats.new_entries += new_count
        return min(stop, self._stop)

    def _split(self, leaf: LeafNode, path: List[tuple], stats: ScanStats) -> None:
        """Flush, split an over-full ``leaf``, and drop the stale mirrors."""
        with span("phase1.split") as split_span:
            self.flush(stats)
            self.tree._split_leaf(leaf)
            # The split restructured the whole root-to-leaf chain; drop
            # exactly those caches (fresh nodes have none).
            for path_node, _, _ in path:
                self._mirrors.pop(path_node, None)
            self._mirrors.pop(leaf, None)
        stats.seconds_split += split_span.seconds

    def _note_growth(self, i: int) -> None:
        """After item ``i`` grew the tree: end the batch at the next probe
        row if the tree is now over budget.

        Bytes never fall within a scan between probes, so the first
        crossing fixes the cut and the probe is done for this batch.
        """
        probe = self._probe
        if probe is not None and probe.over(self.tree):
            self._stop = min(self._stop, probe.stop_after(i))
            self._probe = None

    def _buffer(self, leaf: LeafNode) -> _LeafBuffer:
        buffer = self._buffers.get(leaf)
        if buffer is None:
            buffer = _LeafBuffer()
            self._buffers[leaf] = buffer
        return buffer

    def _new_entry(self, leaf: LeafNode, batch: _Batch, i: int) -> None:
        """Start a leaf entry from item ``i``; the leaf's aggregate takes
        the item at flush, in scan order with the rest."""
        if batch.entries is not None:
            # The engine takes a copy: absorptions may later merge other
            # batch items into this object, and callers (rebuilds) still
            # hold references to the originals.
            entry = batch.entries[i].copy()
        else:
            cross_values = {name: cols["ls"][i] for name, cols in batch.cross.items()}
            entry = ACF.of_point(batch.ls[i], cross_values)
        leaf.entries.append(entry)
        self.tree._n_entries += 1

    # ------------------------------------------------------------------
    # Flush: deferred bulk application of buffered updates
    # ------------------------------------------------------------------

    def flush(self, stats: Optional[ScanStats] = None) -> None:
        """Apply every buffered update to the tree's object graph.

        Every stored value takes its items one at a time in scan order:
        main leaf-entry moments are copied from the mirrors, which accumulated
        them that way; cross moments are gathered, scattered with
        ``np.add.at`` (unbuffered, in index order) and written back; each
        node aggregate takes a running sum over every item that passed
        through the node, new entries included.
        """
        if not self._buffers:
            return
        batch = self._batch
        assert batch is not None
        passed: Dict[Node, List[np.ndarray]] = {}
        for leaf, buffer in self._buffers.items():
            items = self._flush_leaf(leaf, buffer, batch)
            ancestor = leaf.parent
            while ancestor is not None:
                passed.setdefault(ancestor, []).append(items)
                ancestor = ancestor.parent
        for node, groups in passed.items():
            items = groups[0] if len(groups) == 1 else np.sort(np.concatenate(groups))
            _accumulate(node.cf, batch, items)
        self._buffers.clear()
        if stats is not None:
            stats.flushes += 1

    def _flush_leaf(
        self, leaf: LeafNode, buffer: _LeafBuffer, batch: _Batch
    ) -> np.ndarray:
        """Apply one leaf's buffered items; return their indices in scan order."""
        entry_idx, item_idx = buffer.absorbed()
        if item_idx.size:
            touched, slot = np.unique(entry_idx, return_inverse=True)
            entries = [leaf.entries[j] for j in touched.tolist()]

            # Main moments: authoritative values live in the mirror, which
            # accumulated them item by item.
            mirror = self._mirrors[leaf]
            for j, entry in zip(touched.tolist(), entries):
                cf = entry.cf
                cf.n = int(mirror.n[j])
                cf.ls[...] = mirror.ls[j]
                cf.ss[...] = mirror.ss[j]

            # Bounding boxes: min/max do not depend on order.
            lo = np.stack([entry.lo for entry in entries])
            hi = np.stack([entry.hi for entry in entries])
            _scatter(np.minimum, lo, slot, batch.lo[item_idx])
            _scatter(np.maximum, hi, slot, batch.hi[item_idx])

            # Cross moments: gather, add each item in turn, write back.
            counts = np.bincount(slot, minlength=len(entries))
            for name, cols in batch.cross.items():
                crosses = [entry.cross[name] for entry in entries]
                cross_ls = np.stack([cross.ls for cross in crosses])
                cross_ss = np.stack([cross.ss for cross in crosses])
                _scatter(np.add, cross_ls, slot, cols["ls"][item_idx])
                _scatter(np.add, cross_ss, slot, cols["ss"][item_idx])
                if cols["n"] is None:
                    cross_n = counts
                else:
                    cross_n = np.zeros(len(entries), dtype=np.int64)
                    np.add.at(cross_n, slot, cols["n"][item_idx])
                for row, cross in enumerate(crosses):
                    cross.n += int(cross_n[row])
                    cross.ls[...] = cross_ls[row]
                    cross.ss[...] = cross_ss[row]
            for row, entry in enumerate(entries):
                entry.lo[...] = lo[row]
                entry.hi[...] = hi[row]

        items = item_idx
        if buffer.new_items:
            items = np.concatenate([item_idx, np.asarray(buffer.new_items, dtype=np.intp)])
            items.sort()
        _accumulate(leaf.cf, batch, items)
        return items


def _scatter(ufunc, stored: np.ndarray, slot: np.ndarray, values: np.ndarray) -> None:
    """``ufunc.at(stored, slot, values)`` on rows, through the flat (fast)
    path: each element still takes its items unbuffered, in order."""
    width = stored.shape[1]
    index = slot if width == 1 else (slot[:, None] * width + np.arange(width)).reshape(-1)
    ufunc.at(stored.reshape(-1), index, values.reshape(-1))


def _accumulate(cf: CF, batch: _Batch, items: np.ndarray) -> None:
    """Add ``batch`` items ``items`` to ``cf`` one at a time, in that order.

    ``np.cumsum`` (``np.add.accumulate``) adds row after row, unlike a
    reduction, which may sum pairwise.
    """
    cf.n += int(batch.n[items].sum())
    for total, column in ((cf.ls, batch.ls), (cf.ss, batch.ss)):
        running = np.concatenate([total[None, :], column[items]])
        total[...] = np.cumsum(running, axis=0)[-1]
