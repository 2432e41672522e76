"""The verified bulk 1-D scan leaves the tree the per-point loop leaves.

:meth:`BatchInserter._speculate` decides windows of points with numpy and
commits only what it has checked against the per-point arithmetic, so the
whole tree state — every node aggregate, every entry's moments, boxes and
cross moments, the entry and child order, the leaf chain — must be
byte-identical to :class:`~tests.birch.reference_scan.ReferenceTree`'s.
The inputs are chosen to land on the edges of that check: rounded values
(ties, points exactly between two centroids), duplicates and signed
zeros, thresholds equal to exact merged diameters, small nodes that split
mid-window, and batch cuts anywhere.
"""

from __future__ import annotations

import math
import pickle
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch import batch as batch_module
from repro.birch.batch import ScanStats
from repro.birch.tree import ACFTree

from tests.birch.reference_scan import ReferenceTree


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
    once — whose creation order decides how :meth:`BatchInserter.flush`
    sums the ancestors' aggregates.
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
