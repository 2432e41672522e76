"""Tests for the outlier store and the end-of-scan replay."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.birch.features import ACF
from repro.birch.memory import MemoryModel
from repro.birch.outliers import OutlierStore
from repro.birch.tree import ACFTree

from tests.birch.reference_scan import replay_into as reference_replay


def make_store():
    return OutlierStore(
        MemoryModel(dimension=1, cross_dimensions={}, branching=4, leaf_capacity=4)
    )


def entry_at(value, count=1):
    points = np.full((count, 1), float(value))
    return ACF.of_points(points, {})


class TestStoreBasics:
    def test_empty_store(self):
        store = make_store()
        assert len(store) == 0
        assert store.tuple_count == 0
        assert store.bytes_used() == 0

    def test_page_out_accumulates(self):
        store = make_store()
        store.page_out([entry_at(1.0), entry_at(2.0, count=3)])
        assert len(store) == 2
        assert store.tuple_count == 4
        assert store.bytes_used() > 0


class TestReplay:
    def test_absorbed_outlier_joins_existing_cluster(self):
        """A paged-out entry near a real cluster is absorbed on replay."""
        tree = ACFTree(dimension=1, threshold=2.0)
        for _ in range(20):
            tree.insert_points(np.array([[10.0]]))
        store = make_store()
        store.page_out([entry_at(10.4)])
        report = store.replay_into(tree, min_count=5)
        assert report.absorbed == 1
        assert report.confirmed_count == 0
        assert tree.n_points == 21

    def test_confirmed_outlier_removed_from_tree(self):
        """A far-away small entry is confirmed and stripped from the tree."""
        tree = ACFTree(dimension=1, threshold=2.0)
        for _ in range(20):
            tree.insert_points(np.array([[10.0]]))
        store = make_store()
        store.page_out([entry_at(500.0)])
        report = store.replay_into(tree, min_count=5)
        assert report.confirmed_count == 1
        assert report.outlier_tuples == 1
        # The stray entry must not survive as a cluster.
        assert all(entry.n >= 5 for entry in tree.entries())

    def test_grown_outlier_counts_as_absorbed(self):
        """An entry that grew past the bar while paged is a real cluster."""
        tree = ACFTree(dimension=1, threshold=2.0)
        for _ in range(20):
            tree.insert_points(np.array([[10.0]]))
        store = make_store()
        store.page_out([entry_at(500.0, count=8)])
        report = store.replay_into(tree, min_count=5)
        assert report.absorbed == 1
        assert report.confirmed_count == 0
        assert any(abs(entry.centroid[0] - 500.0) < 1 for entry in tree.entries())

    def test_store_drained_after_replay(self):
        tree = ACFTree(dimension=1, threshold=2.0)
        tree.insert_points(np.array([[0.0]]))
        store = make_store()
        store.page_out([entry_at(100.0)])
        store.replay_into(tree, min_count=1)
        assert len(store) == 0


# ---------------------------------------------------------------------------
# Engine replay against the sequential oracle


@st.composite
def replays(draw):
    """A tree (possibly empty), stored entries near it and far from it,
    and a replay bar."""
    dim = draw(st.sampled_from([1, 2]), label="dim")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    size = draw(st.sampled_from([0, 1, 40, 300]), label="tree_rows")
    # Rounded values: exact ties and zero-diameter merges.
    points = np.round(rng.normal(size=(size, dim)) * 6.0)
    cross = {"y": rng.normal(size=(size, 2))}
    min_count = draw(st.integers(2, 6), label="min_count")
    entries = []
    for _ in range(draw(st.integers(1, 30), label="entries")):
        kind = draw(st.sampled_from(["near", "grown", "stray"]))
        count = min_count + 2 if kind == "grown" else draw(st.integers(1, min_count - 1))
        if kind == "near" and size:
            center = points[rng.integers(size)]
        else:
            center = rng.normal(size=dim) * 200.0
        block = center + np.round(rng.normal(size=(count, dim)))
        entries.append(ACF.of_points(block, {"y": rng.normal(size=(count, 2))}))
    return {
        "dim": dim,
        "points": points,
        "cross": cross,
        "threshold": draw(st.sampled_from([0.0, 1.0, 3.0]), label="threshold"),
        "branching": draw(st.integers(2, 4), label="branching"),
        "leaf_capacity": draw(st.integers(2, 4), label="leaf_capacity"),
        "entries": entries,
        "min_count": min_count,
    }


def replay_both(case):
    """(engine tree, engine report, oracle tree, oracle report)."""
    base = ACFTree(
        dimension=case["dim"],
        threshold=case["threshold"],
        branching=case["branching"],
        leaf_capacity=case["leaf_capacity"],
        cross_dimensions={"y": 2},
    )
    if len(case["points"]):
        base.insert_points(case["points"], case["cross"])
    state = base.state_dict()
    results = []
    for replay in (OutlierStore.replay_into, reference_replay):
        tree = ACFTree.from_state(state)
        store = make_store()
        store.page_out([entry.copy() for entry in case["entries"]])
        if replay is reference_replay:
            report = reference_replay(store, tree, case["min_count"])
        else:
            report = store.replay_into(tree, case["min_count"])
        assert len(store) == 0
        results += [tree, report]
    return results


def assert_same_replay(case):
    got_tree, got, want_tree, want = replay_both(case)
    assert pickle.dumps(got_tree.state_dict()) == pickle.dumps(want_tree.state_dict())
    assert got.absorbed == want.absorbed
    assert [entry.state_dict() for entry in got.confirmed_outliers] == [
        entry.state_dict() for entry in want.confirmed_outliers
    ]
    assert got_tree.n_points == want_tree.n_points
    return got


@settings(max_examples=150, deadline=None)
@given(replays())
def test_engine_replay_matches_the_sequential_oracle(case):
    assert_same_replay(case)


@pytest.mark.parametrize("dim", [1, 2])
def test_replay_covers_every_outcome(dim):
    """Absorbed, grown past the bar and confirmed, into a full tree and
    into a tree whose only leaf is empty."""
    rng = np.random.default_rng(dim)
    points = np.round(rng.normal(size=(200, dim)) * 6.0)

    def entry(center, count):
        return ACF.of_points(
            np.broadcast_to(center, (count, dim)), {"y": rng.normal(size=(count, 2))}
        )

    entries = [entry(points[0], 1), entry(900.0, 7), entry(-900.0, 1), entry(-900.0, 2)]
    case = {
        "dim": dim, "points": points, "cross": {"y": rng.normal(size=(200, 2))},
        "threshold": 1.0, "branching": 3, "leaf_capacity": 3,
        "entries": entries, "min_count": 5,
    }
    report = assert_same_replay(case)
    # The first merges and the grown one starts an entry.  The strays are
    # confirmed: the first never joins the tree, so the second cannot
    # merge with it.
    assert report.absorbed == 2
    assert [e.n for e in report.confirmed_outliers] == [1, 2]

    report = assert_same_replay({**case, "points": np.empty((0, dim))})
    assert report.absorbed == 1
    assert [e.n for e in report.confirmed_outliers] == [1, 1, 2]
