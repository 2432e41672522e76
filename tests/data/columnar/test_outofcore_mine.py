"""Out-of-core mining equals in-memory mining, rule for rule.

The bit-identity contract (see ``docs/SCALING.md``): the Phase I tree does
not depend on where a scan cuts its batches, and a memory budget is probed
at the same scan rows on both paths, so a chunked scan of a
:class:`ColumnStore` and a monolithic scan of the same :class:`Relation`
make identical trees and every downstream float is bit-identical — with
or without a budget, at any chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.birch.birch import BirchOptions
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.columnar import ColumnStore
from repro.data.relation import Relation, Schema
from repro.data.synthetic import make_planted_rule_relation
from repro.resilience import faults


BUDGET_BYTES = 64 * 1024

BUDGETED = DARConfig(
    birch=BirchOptions(memory_limit_bytes=BUDGET_BYTES),
    count_rule_support=True,
)


def signatures(result):
    """Order-independent, value-exact rule fingerprints."""
    return sorted(
        (str(rule), rule.degree, rule.support_count)
        for rule in result.rules
    )


def assert_same_rules(left, right):
    assert signatures(left) == signatures(right)
    assert left.frequency_count == right.frequency_count
    assert left.density_thresholds == right.density_thresholds


@pytest.fixture(scope="module")
def relation():
    relation, _ = make_planted_rule_relation(seed=7, points_per_mode=2000)
    return relation


class TestBudgetedBitIdentity:
    def test_store_at_least_twice_the_budget(self, relation, tmp_path):
        """The acceptance-criterion shape: dataset >= 2x the enforced budget."""
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=123
        )
        assert store.n_bytes >= 2 * BUDGET_BYTES
        out_of_core = repro.mine(store, config=BUDGETED)
        in_memory = repro.mine(relation, config=BUDGETED)
        assert len(out_of_core.rules) > 0
        assert_same_rules(out_of_core, in_memory)

    @pytest.mark.parametrize("chunk_rows", [64, 1000, 10**6])
    def test_identity_holds_at_any_chunk_size(self, relation, tmp_path, chunk_rows):
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=chunk_rows
        )
        assert_same_rules(
            repro.mine(store, config=BUDGETED),
            repro.mine(relation, config=BUDGETED),
        )

    @pytest.mark.parametrize("chunk_rows", [64, 777, 10**6])
    def test_unbudgeted_identity_at_any_chunk_size(self, relation, tmp_path, chunk_rows):
        """No budget and no option: chunk boundaries never reach the tree."""
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=chunk_rows
        )
        unbudgeted = DARConfig(count_rule_support=True)
        assert_same_rules(
            repro.mine(store, config=unbudgeted),
            repro.mine(relation, config=unbudgeted),
        )

    def test_budget_that_never_binds_changes_nothing(self, relation):
        """A budget no probe finds exceeded mines the unbudgeted rules."""
        roomy = DARConfig(
            birch=BirchOptions(memory_limit_bytes=2**30), count_rule_support=True
        )
        mined = repro.mine(relation, config=roomy)
        assert all(stats.rebuilds == 0 for stats in mined.phase1.values())
        assert_same_rules(mined, repro.mine(relation, config=DARConfig(count_rule_support=True)))

    def test_every_scan_mode_mines_the_same_rules(self, relation, tmp_path):
        """No budget, a roomy budget, out of core, and the worker pool
        over memory and over the store."""
        plain = DARConfig(count_rule_support=True)
        roomy = DARConfig(
            birch=BirchOptions(memory_limit_bytes=2**30), count_rule_support=True
        )
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=333
        )
        want = repro.mine(relation, config=plain)
        for mined in (
            repro.mine(relation, config=roomy),
            repro.mine(store, config=roomy),
            repro.mine(relation, config=roomy, engine="parallel", workers=1),
            repro.mine(relation, config=plain, engine="parallel", workers=2),
            repro.mine(store, config=plain, engine="parallel", workers=2),
        ):
            assert_same_rules(mined, want)


class TestProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        seed=st.integers(0, 10_000),
        n_attributes=st.integers(2, 3),
        rows=st.integers(20, 80),
        chunk_rows=st.integers(1, 100),
    )
    def test_out_of_core_equals_in_memory(
        self, tmp_path, seed, n_attributes, rows, chunk_rows
    ):
        rng = np.random.default_rng(seed)
        names = [f"a{i}" for i in range(n_attributes)]
        schema = Schema.of(**{name: "interval" for name in names})
        base = rng.integers(-5, 6, size=rows).astype(float)
        columns = {
            name: base * (i + 1) + rng.normal(0.0, 0.25, size=rows)
            for i, name in enumerate(names)
        }
        relation = Relation(schema, columns)
        store = ColumnStore.from_relation(
            relation,
            directory=tmp_path / f"s{seed}_{chunk_rows}",
            chunk_rows=chunk_rows,
        )
        config = DARConfig(birch=BirchOptions(memory_limit_bytes=32 * 1024))
        assert_same_rules(
            DARMiner(config).mine(store),
            DARMiner(config).mine(relation),
        )


@pytest.mark.faults
class TestGuardLadder:
    def test_backend_failure_degrades_to_in_memory(self, relation, tmp_path):
        store = ColumnStore.from_relation(relation, directory=tmp_path / "s")
        injector = faults.FaultInjector().fail_at("columnar.matrix")
        with faults.injected(injector):
            degraded = repro.mine(store, config=BUDGETED)
        assert any(
            "columnar backend failed" in event
            for event in degraded.phase2.events
        )
        assert_same_rules(degraded, repro.mine(relation, config=BUDGETED))

    def test_failure_without_fallback_target_propagates(self, relation):
        from repro.resilience.errors import ColumnStoreError

        import shutil

        injector = faults.FaultInjector().fail_at("columnar.matrix", times=None)
        with faults.injected(injector):
            # When materialization fails too (backing files gone), the
            # guard must propagate the error, not loop on retries.
            store = ColumnStore.from_relation(relation)
            shutil.rmtree(store.directory)
            with pytest.raises(ColumnStoreError):
                repro.mine(store, config=BUDGETED)


class TestParallelOverStores:
    def test_parallel_engine_mines_stores(self, relation, tmp_path):
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=333
        )
        mined = repro.mine(store, config=BUDGETED, engine="parallel", workers=2)
        assert not mined.phase2.events
        assert_same_rules(mined, repro.mine(relation, config=BUDGETED))

    def test_workers_never_write_into_the_store(self, relation, tmp_path):
        """Workers map the coordinator's stacked ``.npy``; they never
        rebuild it (a rebuild would rewrite a file others are mapping)."""
        from repro.data.relation import AttributePartition

        partitions = [
            AttributePartition("age_dependents", ("age", "dependents")),
            AttributePartition("claims", ("claims",)),
        ]
        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=500
        )
        serial = repro.mine(store, config=BUDGETED, partitions=partitions)

        def listing():
            return {
                path.name: path.stat().st_mtime_ns
                for path in store.directory.iterdir()
            }

        before = listing()
        assert any(name.startswith("_stack_") for name in before)
        mined = repro.mine(
            store, config=BUDGETED, partitions=partitions,
            engine="parallel", workers=2,
        )
        assert listing() == before
        assert not mined.phase2.events
        assert_same_rules(mined, serial)
        assert_same_rules(
            serial, repro.mine(relation, config=BUDGETED, partitions=partitions)
        )


class TestApiGuards:

    def test_store_mine_records_chunk_metrics(self, relation, tmp_path):
        from repro.obs import metrics as obs_metrics

        store = ColumnStore.from_relation(
            relation, directory=tmp_path / "s", chunk_rows=500
        )
        registry = obs_metrics.get_registry()
        registry.reset()
        obs_metrics.enable_metrics()
        try:
            repro.mine(store, config=BUDGETED)
        finally:
            obs_metrics.disable_metrics()
        snapshot = registry.snapshot()
        assert snapshot.get("repro_data_chunks_scanned_total", 0) > 0
        assert snapshot.get("repro_data_chunk_rows_total", 0) > 0
