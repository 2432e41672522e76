"""Phase I scans leave byte-identical trees, however they are batched.

:meth:`BatchInserter._speculate` decides windows of points with numpy and
commits only what it has checked against the per-point arithmetic, so the
whole tree state — every node aggregate, every entry's moments, boxes and
cross moments, the entry and child order, the leaf chain — must be
byte-identical to :class:`~tests.birch.reference_scan.ReferenceTree`'s.
The inputs are chosen to land on the edges of that check: rounded values
(ties, points exactly between two centroids), duplicates and signed
zeros, thresholds equal to exact merged diameters, small nodes that split
mid-window, and batch cuts anywhere.

The flush adds every deferred value in scan order, so the tree is also the
one the sequential oracle :func:`~tests.birch.reference_scan.insert_point`
builds point by point, at any batch cut, over arbitrary finite floats, in
one dimension or several.  And a budgeted
scan probes its budget exactly where a probe every
``_MEMORY_CHECK_INTERVAL`` rows would find it exceeded, so it takes the
fixed-cadence scan's rebuilds and pages
(:class:`~tests.birch.reference_scan.CadenceClusterer`).
"""

from __future__ import annotations

import math
import pickle
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch import batch as batch_module
from repro.birch.batch import ScanStats
from repro.birch.birch import BirchClusterer, BirchOptions
from repro.birch.features import ACF, CF
from repro.birch.node import InternalNode, LeafNode
from repro.birch.tree import ACFTree
from repro.data.columnar import ChunkIterator
from repro.data.relation import AttributePartition

from tests.birch.reference_scan import (
    CadenceClusterer,
    ReferenceTree,
    closest_child,
    closest_in_leaf,
    insert_point,
    walk_counts,
)


def fill(tree_class, points, cross, threshold, branching, leaf_capacity, batch_rows):
    tree = tree_class(
        dimension=1,
        threshold=threshold,
        branching=branching,
        leaf_capacity=leaf_capacity,
        cross_dimensions={name: matrix.shape[1] for name, matrix in cross.items()},
    )
    stats = ScanStats()
    for start in range(0, points.shape[0], batch_rows):
        stop = start + batch_rows
        tree.insert_points(
            points[start:stop],
            {name: matrix[start:stop] for name, matrix in cross.items()},
            stats=stats,
        )
    return tree, stats


def merged_diameter(values):
    """The RMS diameter of ``values`` with the scan's own arithmetic."""
    n = len(values)
    ls = math.fsum(values)
    ss = math.fsum(v * v for v in values)
    squared = (2.0 * n * ss - 2.0 * ls * ls) / (n * (n - 1))
    return math.sqrt(squared) if squared > 0.0 else 0.0


VALUES = {
    "integers": st.integers(-6, 6).map(float),
    "halves": st.integers(-12, 12).map(lambda v: v / 2.0),
    "signed_zeros": st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0]),
    "reals": st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
}


@st.composite
def scans(draw):
    kind = draw(st.sampled_from(sorted(VALUES) + ["gaussian"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    if kind == "gaussian":
        # Full mantissas: float sums taken in another order round differently.
        values = rng.normal(size=draw(st.integers(1, 300), label="size")) * 8.0
    else:
        values = draw(st.lists(VALUES[kind], min_size=1, max_size=300), label="values")
    scale = draw(st.sampled_from([1.0, 20.0, 50.0]), label="scale")
    # Repeating the values in a drawn order gives long, duplicate-rich scans
    # whose later windows mostly absorb.
    repeats = draw(st.integers(1, 12), label="repeats")
    values = np.resize(np.asarray(values, dtype=np.float64), len(values) * repeats)
    points = rng.permutation(values).reshape(-1, 1) * scale
    if len(points) >= 2 and draw(st.booleans(), label="exact_threshold"):
        # A threshold equal to the merged diameter of the first few values:
        # the absorb test then meets ``diameter <= threshold`` with equality.
        count = draw(st.integers(2, min(4, len(points))), label="count")
        threshold = merged_diameter(points[:count, 0].tolist())
    else:
        threshold = draw(
            st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 3.0, 8.0]), label="threshold"
        ) * scale
    cross = {}
    if draw(st.booleans(), label="with_cross"):
        cross = {"y": rng.normal(size=(len(points), 2)), "z": rng.normal(size=(len(points), 1))}
    return {
        "points": points,
        "cross": cross,
        "threshold": threshold,
        "branching": draw(st.integers(2, 4), label="branching"),
        "leaf_capacity": draw(st.integers(2, 4), label="leaf_capacity"),
        "batch_rows": draw(st.integers(1, 300), label="batch_rows"),
    }


def assert_same_state(case):
    want, want_stats = fill(ReferenceTree, **case)
    got, got_stats = fill(ACFTree, **case)
    assert pickle.dumps(got.state_dict()) == pickle.dumps(want.state_dict())
    for name in ("points", "absorbed", "new_entries", "splits", "flushes"):
        assert getattr(got_stats, name) == getattr(want_stats, name), name
    assert want_stats.verified == 0
    assert 0 <= got_stats.verified <= got_stats.absorbed
    return got_stats


@contextmanager
def eager_windows():
    """Speculate on every window, however few rows pay for it.

    The window and back-off constants only trade speed, so shrinking them
    must not change a byte; it makes short scans go through the verifier.
    """
    with mock.patch.multiple(
        batch_module,
        _VERIFIED_PER_VISIT=1,
        _STRETCH_PER_VISIT=1,
        _WINDOW_ROWS_MIN=64,
    ):
        yield


@settings(max_examples=200, deadline=None)
@given(scans(), st.booleans())
def test_bulk_scan_state_is_byte_identical(case, eager):
    with eager_windows() if eager else nullcontext():
        assert_same_state(case)


@st.composite
def revisits(draw):
    """Scans that keep revisiting the entries of a many-leaf tree.

    Full-mantissa values, repeated: after the first pass every point is
    absorbed, so windows span many leaves and start several leaf buffers at
    once, whose items :meth:`BatchInserter.flush` must add to each
    ancestor's aggregate in scan order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    distinct = rng.normal(size=draw(st.integers(4, 120), label="distinct")) * 8.0
    repeats = draw(st.integers(2, 12), label="repeats")
    points = rng.permutation(np.resize(distinct, distinct.size * repeats))
    return {
        "points": points.reshape(-1, 1),
        "cross": {},
        "threshold": draw(st.sampled_from([0.0, 0.25, 1.0]), label="threshold"),
        "branching": draw(st.integers(2, 4), label="branching"),
        "leaf_capacity": draw(st.integers(2, 4), label="leaf_capacity"),
        "batch_rows": draw(st.integers(32, 300), label="batch_rows"),
    }


@settings(max_examples=60, deadline=None)
@given(revisits(), st.booleans())
def test_windows_across_leaves_are_byte_identical(case, eager):
    with eager_windows() if eager else nullcontext():
        assert_same_state(case)


def test_long_scans_take_the_bulk_path():
    """Absorbing scans are decided in bulk, and stay byte-identical."""
    rng = np.random.default_rng(3)
    centers = np.array([-30.0, -10.0, 0.0, 10.0, 25.0, 40.0, 60.0, 80.0, 95.0])
    points = (centers[rng.integers(0, centers.size, 30_000)] + rng.normal(size=30_000))
    cross = {"y": rng.normal(size=(30_000, 2))}
    for leaf_capacity, batch_rows in ((8, 30_000), (4, 256), (2, 1_000)):
        stats = assert_same_state({
            "points": np.round(points, 1).reshape(-1, 1),
            "cross": cross,
            "threshold": 4.0,
            "branching": 3,
            "leaf_capacity": leaf_capacity,
            "batch_rows": batch_rows,
        })
        assert stats.verified > 0.75 * stats.points, (leaf_capacity, stats)


def test_split_storm_is_byte_identical():
    rng = np.random.default_rng(13)
    for threshold, scale in ((0.0, 50.0), (1.0, 20.0)):
        points = np.round(rng.normal(size=(3_000, 1)) * scale)
        assert_same_state({
            "points": points,
            "cross": {},
            "threshold": threshold,
            "branching": 3,
            "leaf_capacity": 3,
            "batch_rows": 3_000,
        })


FINITE = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@st.composite
def cut_scans(draw):
    """Points drawn (with repeats) from a pool of arbitrary finite floats,
    full-mantissa cross values at an arbitrary scale, and batch cuts."""
    # numpy sums 8 or more squared deltas pairwise, not one after another.
    dim = draw(st.sampled_from([1, 2, 3, 9]), label="dim")
    pool = draw(
        st.lists(st.lists(FINITE, min_size=dim, max_size=dim), min_size=1, max_size=24),
        label="pool",
    )
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=150), label="picks"
    )
    points = np.array([pool[i] for i in picks], dtype=np.float64)
    n = len(picks)
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    scale = draw(st.floats(1e-100, 1e100), label="cross_scale")
    cross = {
        f"c{j}": rng.normal(size=(n, arity)) * scale
        for j, arity in enumerate(draw(st.lists(st.integers(1, 2), max_size=2), label="cross"))
    }
    kind = draw(st.sampled_from(["zero", "arbitrary", "pair"]), label="threshold_kind")
    if kind == "zero":
        threshold = 0.0
    elif kind == "arbitrary":
        threshold = draw(st.floats(0.0, 1e100), label="threshold")
    else:  # the diameter of two pool points: absorption on the edge
        a, b = draw(st.integers(0, len(pool) - 1)), draw(st.integers(0, len(pool) - 1))
        threshold = CF.of_points(np.array([pool[a], pool[b]])).rms_diameter
    return {
        "points": points,
        "cross": cross,
        "threshold": threshold,
        "branching": draw(st.integers(2, 4), label="branching"),
        "leaf_capacity": draw(st.integers(2, 4), label="leaf_capacity"),
        "cuts": sorted(draw(st.lists(st.integers(0, n), max_size=8), label="cuts")),
    }


def empty_tree(case):
    return ACFTree(
        dimension=case["points"].shape[1],
        threshold=case["threshold"],
        branching=case["branching"],
        leaf_capacity=case["leaf_capacity"],
        cross_dimensions={name: m.shape[1] for name, m in case["cross"].items()},
    )


def point_by_point(case):
    tree = empty_tree(case)
    for i, point in enumerate(case["points"]):
        insert_point(tree, point, {name: m[i] for name, m in case["cross"].items()})
    return tree


def cut_at(case):
    tree = empty_tree(case)
    stats = ScanStats()
    bounds = [0, *case["cuts"], case["points"].shape[0]]
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            tree.insert_points(
                case["points"][start:stop],
                {name: m[start:stop] for name, m in case["cross"].items()},
                stats=stats,
            )
    return tree


@settings(max_examples=200, deadline=None)
@given(cut_scans(), st.booleans())
def test_any_batch_cut_builds_the_insert_point_tree(case, eager):
    want = point_by_point(case)
    with eager_windows() if eager else nullcontext():
        got = cut_at(case)
    assert pickle.dumps(got.state_dict()) == pickle.dumps(want.state_dict())
    assert got.summary_counts() == want.summary_counts() == walk_counts(got)


def test_full_mantissa_scans_do_not_depend_on_cuts():
    """Many distinct full-mantissa values, where any re-association shows;
    at 9 dimensions numpy sums each squared distance pairwise."""
    rng = np.random.default_rng(21)
    for dim, threshold in ((1, 0.4), (3, 1.2), (9, 9.0)):
        case = {
            "points": rng.normal(size=(2_000, dim)) * 3.0,
            "cross": {"y": rng.normal(size=(2_000, 2)) * 1e3},
            "threshold": threshold,
            "branching": 3,
            "leaf_capacity": 4,
        }
        want = pickle.dumps(point_by_point({**case, "cuts": []}).state_dict())
        for cuts in ([], [1, 2, 3, 700], list(range(0, 2_000, 257)), [1_999]):
            assert pickle.dumps(cut_at({**case, "cuts": cuts}).state_dict()) == want


@pytest.mark.parametrize("dim", [2, 3, 9, 17])
def test_routing_ties_break_alike(dim):
    """Centroids that permute one vector's coordinates are equally far from
    any point on the diagonal, so rounding alone picks the closest: the
    oracle's routing and the engine's mirrors must sum the squared deltas
    alike (numpy sums 8 or more of them pairwise)."""
    rng = np.random.default_rng(dim)
    for _ in range(300):
        base = rng.normal(size=dim) * 3.0
        leaf = LeafNode(capacity=8, dimension=dim)
        node = InternalNode(branching=8, dimension=dim)
        for _ in range(8):
            leaf.add_entry(ACF.of_point(rng.permutation(base), {}))
            child = LeafNode(capacity=2, dimension=dim)
            child.add_entry(ACF.of_point(rng.permutation(base), {}))
            node.add_child(child)
        point = np.full(dim, rng.normal())
        mirror = batch_module._mirror(leaf, dim)
        assert mirror.closest(point) == closest_in_leaf(leaf, point)
        slots = batch_module._mirror(node, dim)
        assert node.children[slots.route(point)] is closest_child(node, point)


# ---------------------------------------------------------------------------
# Budget probes: exactly where a fixed 256-row cadence would enforce.

PROBE_CASES = {
    # name: (dim, budget bytes, max rebuilds per overflow)
    "1d": (1, 6_000, 32),
    "1d_stays_over": (1, 2_500, 1),
    "2d": (2, 9_000, 32),
}


def probe_scan(dim, rows=6_000, seed=5):
    rng = np.random.default_rng(seed)
    # A drifting mixture: new territory keeps appearing, so the budget
    # binds again and again over the scan.
    drift = np.linspace(0.0, 400.0, rows)[:, None]
    points = rng.normal(size=(rows, dim)) * 6.0 + drift
    cross = {"y": rng.normal(size=(rows, 2)), "z": rng.normal(size=(rows, 1)) * 1e3}
    return points, cross


@pytest.mark.parametrize("source", ["in_memory", 1, 100, 5_000])
@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_budget_probes_match_the_cadence_scan(case, source):
    dim, budget, max_rebuilds = PROBE_CASES[case]
    points, cross = probe_scan(dim)
    partition = AttributePartition("x", tuple(f"x{i}" for i in range(dim)))
    others = [AttributePartition("y", ("y0", "y1")), AttributePartition("z", ("z0",))]
    options = BirchOptions(
        memory_limit_bytes=budget, max_rebuilds_per_overflow=max_rebuilds
    )
    want = CadenceClusterer(partition, others, options).fit_arrays(points, cross)
    clusterer = BirchClusterer(partition, others, options)
    if source == "in_memory":
        got = clusterer.fit_arrays(points, cross)
    else:
        got = clusterer.fit_chunks(ChunkIterator({"x": points, **cross}, source))

    assert want.stats.rebuilds >= 5, "the budget must bind many times"
    for name in ("rebuilds", "threshold_history", "pages_out", "paged_entries",
                 "points_inserted"):
        assert getattr(got.stats, name) == getattr(want.stats, name), name
    assert pickle.dumps(got.tree.state_dict()) == pickle.dumps(want.tree.state_dict())
    if source in ("in_memory", 5_000):
        # Probes cut batches short instead of pinning them to 256 rows.
        assert got.stats.scan.batches < want.stats.scan.batches


def test_probe_cases_page_outliers():
    """At least one case exercises paging, not only rebuilds."""
    paged = 0
    for dim, budget, max_rebuilds in PROBE_CASES.values():
        points, cross = probe_scan(dim)
        partition = AttributePartition("x", tuple(f"x{i}" for i in range(dim)))
        others = [AttributePartition("y", ("y0", "y1")), AttributePartition("z", ("z0",))]
        options = BirchOptions(
            memory_limit_bytes=budget, max_rebuilds_per_overflow=max_rebuilds
        )
        paged += BirchClusterer(partition, others, options).fit_arrays(
            points, cross
        ).stats.paged_entries
    assert paged > 0
