"""Fault-injection suite (``pytest -m faults``).

Kills scans mid-batch, fails the Phase II kernel, poisons inputs — and
verifies the resilience layer turns each fault into the behavior the
design promises: resume-equivalence, loud Phase II failures that leave
the miner reusable, exact quarantine.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import DARConfig
from repro.core.miner import DARMiner
from repro.core.streaming import StreamingDARMiner
from repro.data.io import load_csv, save_csv
from repro.data.relation import AttributePartition
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation
from repro.resilience import faults
from repro.resilience.errors import InjectedFault
from repro.resilience.sink import ErrorBudget, Quarantine

pytestmark = pytest.mark.faults

PARTITIONS = [AttributePartition("x", ("x",)), AttributePartition("y", ("y",))]


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    faults.uninstall()


def make_batches(n_batches: int, rows: int = 150, seed: int = 23):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n_batches):
        base = rng.normal(size=(rows, 1))
        batches.append(
            {
                "x": base + rng.normal(scale=0.1, size=(rows, 1)),
                "y": -base + rng.normal(scale=0.1, size=(rows, 1)),
            }
        )
    return batches


def rule_signature(result):
    return [
        (
            sorted(c.uid for c in rule.antecedent),
            sorted(c.uid for c in rule.consequent),
            rule.degree,
        )
        for rule in result.rules
    ]


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------


def test_fire_is_noop_without_injector():
    faults.fire("streaming.update")  # must not raise


def test_plan_trips_after_n_hits():
    injector = faults.FaultInjector().fail_at("p", after=2, times=1)
    with faults.injected(injector):
        faults.fire("p")
        faults.fire("p")
        with pytest.raises(InjectedFault, match="hit 3"):
            faults.fire("p")
        faults.fire("p")  # times=1 exhausted: transient fault has passed
    assert injector.hits("p") == 4


def test_plan_times_none_is_hard_outage():
    injector = faults.FaultInjector().fail_at("p", times=None)
    with faults.injected(injector):
        for _ in range(3):
            with pytest.raises(InjectedFault):
                faults.fire("p")


def test_injected_context_uninstalls():
    with faults.injected(faults.FaultInjector().fail_at("p")):
        pass
    faults.fire("p")  # no injector active anymore


# ----------------------------------------------------------------------
# Tentpole acceptance: kill mid-stream, resume, identical result
# ----------------------------------------------------------------------


def test_killed_scan_resumes_to_identical_result(tmp_path):
    """A scan killed *between per-partition tree updates* (the worst spot:
    partition 'x' absorbed the batch, 'y' did not) resumes from the last
    checkpoint to the exact rules of the uninterrupted run."""
    batches = make_batches(4)
    path = tmp_path / "stream.ckpt"

    # Uninterrupted reference run, checkpointing after every batch.
    reference = StreamingDARMiner(PARTITIONS, DARConfig())
    for batch in batches:
        reference.update_arrays(batch)
        reference.save_checkpoint(tmp_path / "reference.ckpt")
    expected = reference.rules()

    # Victim run: dies inside batch 3, between the two partition updates.
    victim = StreamingDARMiner(PARTITIONS, DARConfig())
    injector = faults.FaultInjector().fail_at(
        "streaming.partition", after=5, message="simulated crash mid-batch"
    )
    absorbed = 0
    with faults.injected(injector):
        with pytest.raises(InjectedFault):
            for batch in batches:
                victim.update_arrays(batch)
                victim.save_checkpoint(path)
                absorbed += 1
    assert absorbed == 2  # died during the third batch

    # The victim object is now in an inconsistent, partially-updated
    # state — exactly what the checkpoint protects against.  Resume.
    resumed = StreamingDARMiner.from_checkpoint(path)
    assert resumed.rows_seen == sum(
        b["x"].shape[0] for b in batches[:absorbed]
    )
    for batch in batches[absorbed:]:
        resumed.update_arrays(batch)
        resumed.save_checkpoint(path)

    assert rule_signature(resumed.rules()) == rule_signature(expected)
    for name in ("x", "y"):
        ours = [
            e.state_dict()
            for leaf in resumed._trees[name].leaves()
            for e in leaf.entries
        ]
        theirs = [
            e.state_dict()
            for leaf in reference._trees[name].leaves()
            for e in leaf.entries
        ]
        assert ours == theirs


def test_kill_at_update_entry_loses_nothing(tmp_path):
    batches = make_batches(3)
    path = tmp_path / "stream.ckpt"
    victim = StreamingDARMiner(PARTITIONS)
    injector = faults.FaultInjector().fail_at("streaming.update", after=2)
    with faults.injected(injector):
        with pytest.raises(InjectedFault):
            for batch in batches:
                victim.update_arrays(batch)
                victim.save_checkpoint(path)
    resumed = StreamingDARMiner.from_checkpoint(path)
    # Batches 1-2 were checkpointed; the failed third never started.
    assert resumed.n_points == 300
    resumed.update_arrays(batches[2])
    assert resumed.n_points == 450


# ----------------------------------------------------------------------
# Phase II kernel failure → a loud error, no degradation
# ----------------------------------------------------------------------


def test_streaming_kernel_fault_propagates_then_recovers():
    batches = make_batches(3)
    miner = StreamingDARMiner(PARTITIONS)
    for batch in batches:
        miner.update_arrays(batch)

    clean = miner.rules()
    with faults.injected(
        faults.FaultInjector().fail_at("phase2.kernel", message="kernel crash")
    ):
        with pytest.raises(InjectedFault, match="kernel crash"):
            miner.rules()
    # The fault left the trees untouched: the next call mines clean rules.
    again = miner.rules()
    assert again.phase2.events == []
    assert rule_signature(again) == rule_signature(clean)


def test_batch_miner_kernel_fault_propagates():
    relation, _ = make_planted_rule_relation(seed=7, points_per_mode=40)
    with faults.injected(faults.FaultInjector().fail_at("phase2.kernel")):
        with pytest.raises(InjectedFault):
            DARMiner().mine(relation)
    # The guard ladder has no rung for it either.
    with faults.injected(faults.FaultInjector().fail_at("phase2.kernel")):
        with pytest.raises(InjectedFault):
            repro.mine(relation)


# ----------------------------------------------------------------------
# Poisoned input acceptance (ISSUE: 5% poisoned, exact quarantine)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["text", "nan", "short"])
def test_five_percent_poison_quarantined_exactly(tmp_path, mode):
    relation, _ = make_clustered_relation(
        n_modes=3, points_per_mode=100, n_attributes=2, seed=9
    )
    clean_path = tmp_path / "clean.csv"
    save_csv(relation, clean_path)

    n = len(relation)
    poisoned_rows = sorted(
        np.random.default_rng(1).choice(n, size=n // 20, replace=False).tolist()
    )
    dirty_path = tmp_path / "dirty.csv"
    faults.poison_csv(clean_path, dirty_path, poisoned_rows, mode=mode)

    sink = Quarantine(
        path=tmp_path / "bad.jsonl",
        budget=ErrorBudget(max_fraction=0.10, grace_rows=20),
    )
    with sink:
        loaded = load_csv(dirty_path, sink=sink)

    assert sink.rows() == poisoned_rows
    assert len(loaded) == n - len(poisoned_rows)
    assert (tmp_path / "bad.jsonl").exists()

    # The clean subset mines to exactly what mining the clean rows gives.
    mask = np.ones(n, dtype=bool)
    mask[poisoned_rows] = False
    result = repro.mine(loaded)
    expected = repro.mine(relation.select(mask))
    assert [str(r) for r in result.rules] == [str(r) for r in expected.rules]


def test_poison_past_budget_aborts(tmp_path):
    relation, _ = make_clustered_relation(
        n_modes=2, points_per_mode=50, n_attributes=2, seed=2
    )
    clean_path = tmp_path / "clean.csv"
    save_csv(relation, clean_path)
    dirty_path = tmp_path / "dirty.csv"
    faults.poison_csv(clean_path, dirty_path, rows=list(range(30)), mode="text")
    sink = Quarantine(budget=ErrorBudget(max_fraction=0.05, grace_rows=10))
    with pytest.raises(repro.ErrorBudgetExceeded):
        load_csv(dirty_path, sink=sink)


class TestInstallFromEnv:
    """``REPRO_FAIL_AT`` arming — the CI crash drill's switch."""

    def test_unset_or_empty_installs_nothing(self):
        assert faults.install_from_env(env={}) is None
        assert faults.install_from_env(env={faults.FAIL_AT_ENV: "  "}) is None
        assert faults._ACTIVE is None

    def test_single_entry_arms_the_point(self):
        injector = faults.install_from_env(
            env={faults.FAIL_AT_ENV: "streaming.partition:2"}
        )
        assert injector is not None
        assert faults._ACTIVE is injector
        faults.fire("streaming.partition")
        faults.fire("streaming.partition")
        with pytest.raises(InjectedFault, match="streaming.partition"):
            faults.fire("streaming.partition")

    def test_multiple_entries_arm_independently(self):
        faults.install_from_env(
            env={faults.FAIL_AT_ENV: "phase2.kernel, parallel.worker:1"}
        )
        with pytest.raises(InjectedFault):
            faults.fire("phase2.kernel")
        faults.fire("parallel.worker")
        with pytest.raises(InjectedFault):
            faults.fire("parallel.worker")

    def test_malformed_entries_raise_instead_of_disarming(self):
        with pytest.raises(ValueError, match="bad hit count"):
            faults.install_from_env(env={faults.FAIL_AT_ENV: "a.b:soon"})
        with pytest.raises(ValueError, match="empty fault point"):
            faults.install_from_env(env={faults.FAIL_AT_ENV: ":3"})
        assert faults._ACTIVE is None
