"""Batch ingestion must reproduce sequential insertion exactly.

The contract of :meth:`ACFTree.insert_points` / :meth:`insert_entries`
(see :mod:`repro.birch.batch`) is decision equivalence: same routing, same
absorb-vs-new choices, same splits as the sequential oracle of
:mod:`tests.birch.reference_scan`.  The checks here
compare entry multisets within a tolerance; byte identity of the whole
tree at any batch cut is ``test_scan_exactness.py``'s.
"""

import numpy as np
import pytest

from repro.birch.batch import ScanStats
from repro.birch.features import ACF
from repro.birch.rebuild import rebuild_tree
from repro.birch.tree import ACFTree

from tests.birch.reference_scan import insert_entry, insert_point


def make_tree(dim=1, threshold=0.5, branching=3, leaf_capacity=3, cross=None):
    return ACFTree(
        dimension=dim,
        threshold=threshold,
        branching=branching,
        leaf_capacity=leaf_capacity,
        cross_dimensions=cross or {},
    )


def sequential_fill(tree, points, cross):
    names = list(cross)
    for i in range(points.shape[0]):
        insert_point(tree, points[i], {name: cross[name][i] for name in names})
    return tree


def entry_key(entry):
    return (entry.cf.n, tuple(entry.cf.ls), tuple(entry.cf.ss))


def assert_trees_equivalent(expected, actual, atol=1e-9):
    """Same point count, same entry multiset (main moments, boxes, crosses).

    1-D main moments must match exactly: the 1-D scan accumulates them in
    the per-point order, whether a point is decided alone or in bulk.
    """
    assert actual.n_points == expected.n_points
    assert actual.entry_count() == expected.entry_count()
    assert actual.n_splits == expected.n_splits
    want = sorted(expected.entries(), key=entry_key)
    got = sorted(actual.entries(), key=entry_key)
    for a, b in zip(want, got):
        assert a.cf.n == b.cf.n
        if expected.dimension == 1:
            np.testing.assert_array_equal(b.cf.ls, a.cf.ls)
            np.testing.assert_array_equal(b.cf.ss, a.cf.ss)
        else:
            np.testing.assert_allclose(b.cf.ls, a.cf.ls, atol=atol, rtol=0)
            np.testing.assert_allclose(b.cf.ss, a.cf.ss, atol=atol, rtol=0)
        np.testing.assert_allclose(b.lo, a.lo, atol=atol, rtol=0)
        np.testing.assert_allclose(b.hi, a.hi, atol=atol, rtol=0)
        assert set(a.cross) == set(b.cross)
        for name in a.cross:
            assert a.cross[name].n == b.cross[name].n
            np.testing.assert_allclose(
                b.cross[name].ls, a.cross[name].ls, atol=atol, rtol=0
            )
            np.testing.assert_allclose(
                b.cross[name].ss, a.cross[name].ss, atol=atol, rtol=0
            )


class TestPointEquivalence:
    def test_1d_scalar_path_with_crosses_and_splits(self):
        rng = np.random.default_rng(11)
        points = np.round(rng.normal(size=(2000, 1)) * 20)
        cross = {"y": rng.normal(size=(2000, 2)), "z": rng.normal(size=(2000, 1))}
        dims = {"y": 2, "z": 1}
        seq = sequential_fill(
            make_tree(threshold=1.0, cross=dims), points, cross
        )
        bat = make_tree(threshold=1.0, cross=dims)
        bat.insert_points(points, cross)
        assert seq.n_splits > 0  # the workload must actually exercise splits
        assert_trees_equivalent(seq, bat)

    def test_multidim_generic_path(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(1200, 3)) * 4
        cross = {"y": rng.normal(size=(1200, 2))}
        seq = sequential_fill(
            make_tree(dim=3, threshold=1.5, branching=4, leaf_capacity=4,
                      cross={"y": 2}),
            points, cross,
        )
        bat = make_tree(dim=3, threshold=1.5, branching=4, leaf_capacity=4,
                        cross={"y": 2})
        bat.insert_points(points, cross)
        assert seq.n_splits > 0
        assert_trees_equivalent(seq, bat)

    def test_zero_threshold_split_storm(self):
        rng = np.random.default_rng(13)
        points = np.round(rng.normal(size=(1500, 1)) * 50)
        seq = sequential_fill(make_tree(threshold=0.0), points, {})
        bat = make_tree(threshold=0.0)
        bat.insert_points(points)
        assert_trees_equivalent(seq, bat)

    def test_chunked_batches_match_single_batch(self):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(901, 2)) * 3
        cross = {"y": rng.normal(size=(901, 1))}
        one = make_tree(dim=2, threshold=0.8, cross={"y": 1})
        one.insert_points(points, cross)
        chunked = make_tree(dim=2, threshold=0.8, cross={"y": 1})
        stats = ScanStats()
        for start in range(0, 901, 128):
            chunked.insert_points(
                points[start : start + 128],
                {"y": cross["y"][start : start + 128]},
                stats=stats,
            )
        assert_trees_equivalent(one, chunked)
        assert stats.points == 901
        assert stats.batches == 8

    def test_interleaved_point_inserts_invalidate_engine(self):
        """Oracle inserts between batches must not leave stale mirror caches."""
        rng = np.random.default_rng(15)
        points = rng.normal(size=(600, 1)) * 10
        seq = sequential_fill(make_tree(threshold=0.3), points, {})
        mixed = make_tree(threshold=0.3)
        mixed.insert_points(points[:200])
        for i in range(200, 400):
            insert_point(mixed, points[i])
        mixed.insert_points(points[400:])
        assert_trees_equivalent(seq, mixed)

    def test_empty_batch_is_noop(self):
        tree = make_tree(cross={"y": 1})
        stats = tree.insert_points(np.empty((0, 1)), {"y": np.empty((0, 1))})
        assert tree.n_points == 0
        assert tree.entry_count() == 0
        assert stats.items == 0


class TestEntryEquivalence:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_insert_entries_matches_entry_loop(self, dim):
        rng = np.random.default_rng(16)
        entries = [
            ACF.of_points(
                rng.normal(size=(rng.integers(1, 5), dim)) + rng.normal() * 8,
                {},
            )
            for _ in range(300)
        ]
        seq = make_tree(dim=dim, threshold=2.0)
        for entry in entries:
            insert_entry(seq, entry.copy())
        bat = make_tree(dim=dim, threshold=2.0)
        bat.insert_entries([entry.copy() for entry in entries])
        assert_trees_equivalent(seq, bat)

    def test_insert_entries_does_not_mutate_input(self):
        entries = [ACF.of_points(np.array([[0.0], [0.4]]), {}) for _ in range(3)]
        tree = make_tree(threshold=5.0)
        tree.insert_entries(entries)
        assert tree.entry_count() == 1  # everything merged...
        for entry in entries:
            assert entry.n == 2  # ...but the caller's objects are untouched

    def test_rebuild_matches_sequential_replay(self):
        rng = np.random.default_rng(17)
        points = np.round(rng.normal(size=(800, 1)) * 30)
        tree = make_tree(threshold=0.0)
        tree.insert_points(points)

        replay = make_tree(threshold=4.0)
        for entry in tree.entries():
            insert_entry(replay, entry.copy())

        stats = ScanStats()
        rebuilt = rebuild_tree(tree, 4.0, stats=stats)
        assert_trees_equivalent(replay, rebuilt)
        assert stats.rebuilds == 1
        assert stats.entries == tree.entry_count()


class TestValidation:
    def test_wrong_point_dimension(self):
        with pytest.raises(ValueError, match="shape"):
            make_tree(dim=2).insert_points(np.zeros((4, 1)))

    def test_missing_cross_partition(self):
        with pytest.raises(ValueError, match="cross"):
            make_tree(cross={"y": 1}).insert_points(np.zeros((4, 1)))

    def test_unexpected_cross_partition(self):
        with pytest.raises(ValueError, match="cross"):
            make_tree().insert_points(np.zeros((4, 1)), {"y": np.zeros((4, 1))})

    def test_misshaped_cross_matrix(self):
        with pytest.raises(ValueError, match="shape"):
            make_tree(cross={"y": 2}).insert_points(
                np.zeros((4, 1)), {"y": np.zeros((4, 1))}
            )

    def test_entry_dimension_mismatch(self):
        entry = ACF.of_points(np.array([[1.0, 2.0]]), {})
        with pytest.raises(ValueError, match="dimension"):
            make_tree(dim=1).insert_entries([entry])

    def test_entry_cross_layout_mismatch(self):
        entry = ACF.of_points(np.array([[1.0]]), {"z": np.array([[2.0]])})
        with pytest.raises(ValueError, match="cross"):
            make_tree(cross={"y": 1}).insert_entries([entry])


class TestScanStats:
    def test_counters_are_consistent(self):
        rng = np.random.default_rng(18)
        points = np.round(rng.normal(size=(1000, 1)) * 15)
        tree = make_tree(threshold=0.5)
        stats = tree.insert_points(points)
        assert stats.points == 1000
        assert stats.entries == 0
        assert stats.items == 1000
        assert stats.absorbed + stats.new_entries == 1000
        assert stats.new_entries == tree.entry_count()
        assert stats.splits == tree.n_splits
        assert stats.batches == 1
        assert stats.flushes >= 1
        assert stats.seconds_total > 0
        assert 0.0 <= stats.absorb_rate <= 1.0
        assert stats.points_per_second > 0

    def test_stats_accumulate_across_batches(self):
        rng = np.random.default_rng(19)
        points = rng.normal(size=(400, 1))
        tree = make_tree(threshold=1.0)
        stats = ScanStats()
        tree.insert_points(points[:200], stats=stats)
        tree.insert_points(points[200:], stats=stats)
        assert stats.points == 400
        assert stats.batches == 2

    def test_merge_sums_counters(self):
        a = ScanStats(points=5, absorbed=3, new_entries=2, seconds_total=1.0)
        b = ScanStats(entries=4, splits=1, rebuilds=2, seconds_total=0.5)
        a.merge(b)
        assert a.items == 9
        assert a.splits == 1
        assert a.rebuilds == 2
        assert a.seconds_total == 1.5

    def test_describe_mentions_the_key_numbers(self):
        stats = ScanStats(
            points=42, absorbed=40, new_entries=2, verified=37, seconds_total=0.1
        )
        text = stats.describe()
        assert "42 items" in text
        assert "2 new entries" in text
        assert "37 verified" in text

    def test_verified_counts_bulk_decisions(self):
        rng = np.random.default_rng(20)
        points = np.round(rng.normal(size=(5000, 1)) * 3)
        stats = make_tree(threshold=2.0, branching=4, leaf_capacity=4).insert_points(points)
        assert 0 < stats.verified <= stats.absorbed
        merged = ScanStats()
        merged.merge(stats)
        assert merged.verified == stats.verified

    def test_checkpoints_without_verified_still_load(self):
        state = ScanStats(points=10, absorbed=9, new_entries=1).to_dict()
        del state["verified"]
        restored = ScanStats.from_dict(state)
        assert restored.verified == 0
        assert restored.absorbed == 9
