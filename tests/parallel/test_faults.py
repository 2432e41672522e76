"""Parallel-engine fault injection (``pytest -m faults``).

Kills worker processes, fails pool creation, and raises inside workers —
and verifies the failure taxonomy: infrastructure faults surface as
:class:`WorkerPoolError`, the guard ladder degrades to the serial engine
with the rung recorded, and data errors raised inside a worker propagate
unchanged (they would recur serially, so retrying is pointless).
"""

from __future__ import annotations

import pytest

from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.data.synthetic import make_planted_rule_relation
from repro.parallel import KILL_WORKER_ENV, ParallelDARMiner, ProcessPoolBackend
from repro.resilience import faults
from repro.resilience.errors import WorkerPoolError
from repro.resilience.guard import GuardPolicy, guarded_mine

from tests.parallel.test_equivalence import rule_signature

pytestmark = pytest.mark.faults


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    faults.uninstall()


@pytest.fixture
def planted():
    relation, _ = make_planted_rule_relation(seed=7)
    return relation


class TestWorkerDeath:
    def test_killed_worker_raises_worker_pool_error(self, planted, monkeypatch):
        monkeypatch.setenv(KILL_WORKER_ENV, "age")
        with pytest.raises(WorkerPoolError, match="worker"):
            ParallelDARMiner(DARConfig(), workers=2).mine(planted)

    def test_guard_degrades_killed_worker_to_serial(self, planted, monkeypatch):
        serial = DARMiner(DARConfig()).mine(planted)
        monkeypatch.setenv(KILL_WORKER_ENV, "age")
        result = guarded_mine(
            planted, config=DARConfig(), engine="parallel", workers=2
        )
        assert rule_signature(result) == rule_signature(serial)
        assert any("worker pool failed" in event for event in result.phase2.events)
        assert any("serial" in event for event in result.phase2.events)


class TestInjectedFaults:
    def test_pool_creation_fault_raises_worker_pool_error(self, planted):
        with faults.injected(faults.FaultInjector().fail_at("parallel.pool")):
            with pytest.raises(WorkerPoolError):
                ParallelDARMiner(DARConfig(), workers=2).mine(planted)

    def test_pool_creation_fault_degrades_to_serial(self, planted):
        serial = DARMiner(DARConfig()).mine(planted)
        with faults.injected(faults.FaultInjector().fail_at("parallel.pool")):
            result = guarded_mine(
                planted, config=DARConfig(), engine="parallel", workers=2
            )
        assert rule_signature(result) == rule_signature(serial)
        assert any("worker pool failed" in event for event in result.phase2.events)

    def test_worker_fault_fires_inside_forked_worker(self, planted):
        # The injector is installed in the parent and inherited across
        # fork, so the fault raises *inside* the worker process; the
        # backend wraps the pickled InjectedFault as infrastructure.
        injector = faults.FaultInjector().fail_at("parallel.worker", times=None)
        with faults.injected(injector):
            with pytest.raises(WorkerPoolError):
                ParallelDARMiner(DARConfig(), workers=2).mine(planted)

    def test_worker_fault_degrades_to_serial(self, planted):
        serial = DARMiner(DARConfig()).mine(planted)
        injector = faults.FaultInjector().fail_at("parallel.worker", times=None)
        with faults.injected(injector):
            result = guarded_mine(
                planted, config=DARConfig(), engine="parallel", workers=2
            )
        assert rule_signature(result) == rule_signature(serial)
        assert any("worker pool failed" in event for event in result.phase2.events)

    def test_backend_wraps_broken_pool(self):
        with ProcessPoolBackend(workers=2) as backend:
            with pytest.raises(WorkerPoolError):
                backend.map_tasks(_exit_hard, [1, 2])

    def test_serial_engine_unaffected_by_parallel_faults(self, planted):
        with faults.injected(faults.FaultInjector().fail_at("parallel.pool")):
            result = guarded_mine(planted, config=DARConfig(), engine="serial")
        assert result.rules
        assert not result.phase2.events


def _exit_hard(_):
    import os

    os._exit(1)


def _double(x):
    return x * 2


def _nap(seconds):
    import time

    time.sleep(seconds)
    return seconds


class TestPoolRetryRung:
    """A failed pool raises on its first failure; the guard's serial
    fallback is the recovery."""

    def test_no_retry_policy_fails_fast(self):
        injector = faults.FaultInjector().fail_at("pool.submit", times=1)
        with faults.injected(injector):
            with ProcessPoolBackend(workers=2) as backend:
                with pytest.raises(WorkerPoolError, match="worker task failed"):
                    backend.map_tasks(_double, [1])
        assert injector.hits("pool.submit") == 1  # one attempt, no retry

    def test_task_timeout_surfaces_as_worker_pool_error(self):
        with ProcessPoolBackend(workers=2, task_timeout=0.2) as backend:
            with pytest.raises(WorkerPoolError, match="timeout"):
                backend.map_tasks(_nap, [5.0])

    def test_guard_policy_task_timeout_validated(self):
        with pytest.raises(ValueError):
            GuardPolicy(task_timeout_seconds=0)
        with pytest.raises(TypeError):
            GuardPolicy(pool_retries=2)


class TestFileTransportLadder:
    """The guard ladder behaves at workers=2 as it does serially when the
    files workers map go missing or a worker dies."""

    @pytest.fixture
    def store(self, planted, tmp_path):
        from repro.data.columnar import ColumnStore

        return ColumnStore.from_relation(
            planted, directory=tmp_path / "store", chunk_rows=333
        )

    def test_removed_store_raises_like_serial(self, store):
        import shutil

        from repro.resilience.errors import ColumnStoreError

        shutil.rmtree(store.directory)
        for engine in ("serial", "parallel"):
            with pytest.raises(ColumnStoreError):
                guarded_mine(store, engine=engine, workers=2)

    def test_store_removed_under_the_maps_mines_the_serial_rules(self, store):
        # The coordinator's maps outlive the files; the workers' opens do
        # not.  That is a columnar failure, never a worker-pool one.
        import shutil

        serial = guarded_mine(store, engine="serial")
        shutil.rmtree(store.directory)
        result = guarded_mine(store, engine="parallel", workers=2)
        assert rule_signature(result) == rule_signature(serial)
        assert not any("worker pool" in event for event in result.phase2.events)
        assert any("columnar backend" in event for event in result.phase2.events)

    def test_killed_worker_over_a_store_degrades_to_serial(
        self, store, planted, monkeypatch
    ):
        serial = DARMiner(DARConfig()).mine(planted)
        monkeypatch.setenv(KILL_WORKER_ENV, "age")
        result = guarded_mine(store, engine="parallel", workers=2)
        assert rule_signature(result) == rule_signature(serial)
        assert any("worker pool failed" in event for event in result.phase2.events)

    def test_worker_fault_leaves_no_spill_directory(
        self, planted, tmp_path, monkeypatch
    ):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        injector = faults.FaultInjector().fail_at("parallel.worker", times=None)
        with faults.injected(injector):
            with pytest.raises(WorkerPoolError):
                ParallelDARMiner(DARConfig(), workers=2).mine(planted)
            result = guarded_mine(planted, engine="parallel", workers=2)
        assert any("worker pool failed" in event for event in result.phase2.events)
        assert list(scratch.iterdir()) == []


class TestFaultPointsUnarmed:
    def test_unarmed_points_are_noops(self, planted):
        faults.fire("parallel.pool")
        faults.fire("parallel.worker")
        result = ParallelDARMiner(DARConfig(), workers=2).mine(planted)
        assert result.rules
