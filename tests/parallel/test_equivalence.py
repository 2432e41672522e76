"""Serial-vs-parallel equivalence (repro/parallel/).

The parallel coordinator's headline claim is *bit-identity*, not
tolerance-equality: the parallel unit of Phase I is a whole attribute
partition (same scan bytes, same insertion decisions, same ACF moments)
and Phase II runs in process on the same clusters, so every float in the
result must match the serial engine to the last bit.  These tests pin
that on the synthetic workloads, on random relations via Hypothesis, at
the pool level (ordering, error propagation), and at the pool's boundary
(no worker is alive once Phase II starts).
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import Relation, Schema
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation
from repro.obs import trace as obs_trace
from repro.parallel import ParallelDARMiner, ProcessPoolBackend


def rule_signature(result):
    """Every decision a rule carries, degrees included, bit-for-bit."""
    return [
        (
            tuple(sorted(c.uid for c in rule.antecedent)),
            tuple(sorted(c.uid for c in rule.consequent)),
            rule.degree,
            tuple(sorted(rule.degrees.items())),
        )
        for rule in result.rules_sorted()
    ]


def leaf_moments(result):
    """Per-partition ACF state dicts in uid order (floats, not arrays)."""
    return {
        name: [
            (cluster.uid, cluster.acf.state_dict())
            for cluster in sorted(clusters, key=lambda c: c.uid)
        ]
        for name, clusters in result.all_clusters.items()
    }


def counters_only(scan_dict):
    """Scan stats minus wall-clock fields (those legitimately differ)."""
    return {
        key: value
        for key, value in scan_dict.items()
        if not key.startswith("seconds")
    }


def assert_bit_identical(serial, parallel):
    assert rule_signature(parallel) == rule_signature(serial)
    assert leaf_moments(parallel) == leaf_moments(serial)
    assert parallel.density_thresholds == serial.density_thresholds
    assert parallel.degree_thresholds == serial.degree_thresholds
    assert parallel.frequency_count == serial.frequency_count
    assert sorted(parallel.cliques) == sorted(serial.cliques)


class TestMinerEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_planted_relation_bit_identical(self, workers):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig()
        serial = DARMiner(config).mine(relation)
        parallel = ParallelDARMiner(config, workers=workers).mine(relation)
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("metric", ["d1", "d2"])
    def test_clustered_relation_both_metrics(self, metric):
        relation, _ = make_clustered_relation(
            n_modes=3, points_per_mode=80, n_attributes=3, seed=11
        )
        config = DARConfig(metric=metric)
        serial = DARMiner(config).mine(relation)
        parallel = ParallelDARMiner(config, workers=2).mine(relation)
        assert_bit_identical(serial, parallel)

    def test_scan_stats_reconcile(self):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig()
        serial = DARMiner(config).mine(relation)
        parallel = ParallelDARMiner(config, workers=2).mine(relation)
        assert set(parallel.phase1) == set(serial.phase1)
        for name, stats in serial.phase1.items():
            merged = parallel.phase1[name]
            assert (merged.replay is None) == (stats.replay is None)
            if stats.replay is not None:
                assert merged.replay.absorbed == stats.replay.absorbed
                assert [
                    acf.state_dict() for acf in merged.replay.confirmed_outliers
                ] == [acf.state_dict() for acf in stats.replay.confirmed_outliers]
            if stats.scan is None:
                assert merged.scan is None
            else:
                assert merged.scan is not None
                assert counters_only(merged.scan.to_dict()) == counters_only(
                    stats.scan.to_dict()
                )
        serial_summary = serial.scan_summary()
        parallel_summary = parallel.scan_summary()
        assert (serial_summary is None) == (parallel_summary is None)
        if serial_summary is not None:
            assert counters_only(parallel_summary.to_dict()) == counters_only(
                serial_summary.to_dict()
            )

    def test_targets_honored(self):
        relation, _ = make_planted_rule_relation(seed=7)
        config = DARConfig()
        serial = DARMiner(config).mine(relation, targets=["dependents"])
        parallel = ParallelDARMiner(config, workers=2).mine(
            relation, targets=["dependents"]
        )
        assert_bit_identical(serial, parallel)
        assert all(
            c.partition.name == "dependents"
            for rule in parallel.rules
            for c in rule.consequent
        )

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelDARMiner(DARConfig(), workers=-1)

    def test_workers_zero_resolves_automatically(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        miner = ParallelDARMiner(DARConfig(), workers=0)
        assert miner.workers == (os.cpu_count() or 1)
        default = ParallelDARMiner(DARConfig())
        assert default.workers == (os.cpu_count() or 1)

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ParallelDARMiner(DARConfig(), workers=0).workers == 3
        # An explicit positive request beats the environment.
        assert ParallelDARMiner(DARConfig(), workers=2).workers == 2

    def test_workers_env_malformed(self, monkeypatch):
        from repro.parallel.executor import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        n_attributes=st.integers(2, 4),
        rows=st.integers(20, 60),
        workers=st.integers(2, 3),
    )
    def test_property_random_relations(self, seed, n_attributes, rows, workers):
        rng = np.random.default_rng(seed)
        names = [f"a{i}" for i in range(n_attributes)]
        schema = Schema.of(**{name: "interval" for name in names})
        base = rng.integers(-5, 6, size=rows).astype(float)
        columns = {
            name: base * (i + 1) + rng.integers(0, 3, size=rows).astype(float)
            for i, name in enumerate(names)
        }
        relation = Relation(schema, columns)
        config = DARConfig()
        serial = DARMiner(config).mine(relation)
        parallel = ParallelDARMiner(config, workers=workers).mine(relation)
        assert_bit_identical(serial, parallel)


class TestBackends:
    def test_pool_backend_preserves_order(self):
        with ProcessPoolBackend(workers=2) as backend:
            assert backend.map_tasks(abs, [-3, 1, -2, 5]) == [3, 1, 2, 5]
            assert backend.n_workers == 2

    def test_pool_backend_requires_two_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBackend(workers=1)

    def test_pool_backend_propagates_data_errors(self):
        from repro.resilience.errors import ValidationError

        with ProcessPoolBackend(workers=2) as backend:
            with pytest.raises(ValidationError):
                backend.map_tasks(_raise_validation, [1])


def _raise_validation(_):
    from repro.resilience.errors import ValidationError

    raise ValidationError("a data error must propagate unchanged")


class TestPoolBoundary:
    def test_phase2_runs_after_the_pool_is_gone(self, monkeypatch):
        """The pool lives inside Phase I: no worker is alive when the
        Phase II kernel is built, and no pairwise block leaves the
        process, even when the kernel splits the work into many blocks."""
        before = {child.pid for child in multiprocessing.active_children()}
        alive_at_kernel = []
        original = Phase2Kernel.__init__

        def spy(self, clusters, metric="d2", block_size=None):
            alive_at_kernel.append([
                child.pid for child in multiprocessing.active_children()
                if child.pid not in before
            ])
            original(self, clusters, metric=metric, block_size=4)

        monkeypatch.setattr(Phase2Kernel, "__init__", spy)
        relation, _ = make_planted_rule_relation(seed=7)
        tracer = obs_trace.enable_tracing()
        result = ParallelDARMiner(DARConfig(), workers=2).mine(relation)
        names = {record.name for record in tracer.spans()}
        assert result.rules
        assert alive_at_kernel == [[]]
        assert "phase1.scatter" in names
        assert "phase2.kernel.pairwise" in names
        assert "phase2.kernel.scatter" not in names
