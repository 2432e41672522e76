"""SnapshotPublisher: atomic swaps, versioning, health, failed refreshes."""

import threading

import pytest

from repro.api import mine
from repro.data.synthetic import make_clustered_relation
from repro.serve.publisher import SnapshotPublisher, StalenessPolicy
from repro.serve.query import RuleQuery


class _Clock:
    """A wall clock that moves only when the test says so."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def other_result():
    """A second result with a different rule count than the planted one."""
    relation, _ = make_clustered_relation(
        n_modes=3, points_per_mode=80, n_attributes=3, seed=21
    )
    return mine(relation)


class TestLifecycle:
    def test_empty_publisher(self):
        publisher = SnapshotPublisher()
        assert publisher.version == 0
        assert publisher.snapshot is None
        with pytest.raises(RuntimeError, match="no snapshot"):
            publisher.query(RuleQuery())
        assert publisher.health().status == "crit"
        assert publisher.to_dict()["n_rules"] == 0

    def test_constructor_source_published(self, planted_result):
        publisher = SnapshotPublisher(planted_result)
        assert publisher.version == 1
        answer = publisher.query(RuleQuery())
        assert len(answer) == len(planted_result.rules)
        assert publisher.health().status == "ok"

    def test_versions_monotone(self, planted_result, other_result):
        publisher = SnapshotPublisher(planted_result)
        publisher.publish(other_result)
        assert publisher.version == 2
        publisher.publish(planted_result)
        assert publisher.version == 3

    def test_refresh_from_miner(self, planted_result):
        class FakeMiner:
            def rules(self):
                return planted_result

        publisher = SnapshotPublisher()
        publisher.refresh(FakeMiner())
        assert publisher.version == 1
        assert publisher.snapshot.n_rules == len(planted_result.rules)

    def test_cache_size_forwarded(self, planted_result):
        publisher = SnapshotPublisher(planted_result, cache_size=3)
        assert publisher.engine.cache_size == 3

    def test_to_dict_payload(self, planted_result):
        payload = SnapshotPublisher(planted_result).to_dict()
        assert payload["version"] == 1
        assert payload["n_rules"] == len(planted_result.rules)
        assert payload["health"]["status"] == "ok"
        assert payload["partitions"]


class TestSwapAtomicity:
    def test_no_torn_reads_during_swaps(self, planted_result, other_result):
        """Readers hammering query() across swaps always see one engine.

        Every answer must be internally consistent: its version, rule
        total, and id count all come from a single snapshot, so an
        unconstrained query returns exactly ``total_rules`` ids for the
        version it reports — a torn read (ids from one snapshot, version
        from another) would break the pairing.
        """
        sizes = {
            1: len(planted_result.rules),
            2: len(other_result.rules),
        }
        publisher = SnapshotPublisher(planted_result)
        sizes[1] = publisher.snapshot.n_rules
        errors = []
        done = threading.Event()

        def reader():
            query = RuleQuery()
            while not done.is_set():
                answer = publisher.query(query)
                expected = sizes.get((answer.version - 1) % 2 + 1)
                if answer.total_rules != expected or len(answer) != expected:
                    errors.append(
                        f"v{answer.version}: {len(answer)} ids, "
                        f"total {answer.total_rules}, expected {expected}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                publisher.publish(other_result)
                publisher.publish(planted_result)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors, errors[0]
        assert publisher.version == 21

    def test_concurrent_publishers_keep_versions_unique(self, planted_result):
        publisher = SnapshotPublisher()
        versions = []
        lock = threading.Lock()

        def writer():
            snapshot = publisher.publish(planted_result)
            with lock:
                versions.append(snapshot.version)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(versions) == [1, 2, 3, 4, 5, 6]
        assert publisher.version == 6


class _Flaky:
    """A refresh source that fails until told otherwise."""

    def __init__(self, result, failures=1):
        self.result = result
        self.failures = failures
        self.calls = 0

    def rules(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"wedged (call {self.calls})")
        return self.result


class TestFailureVisibility:
    """A failed refresh must leave a record, not just the old snapshot."""

    def test_failed_publish_keeps_serving_and_records(self, planted_result):
        clock = _Clock(1000.0)
        publisher = SnapshotPublisher(planted_result, clock=clock)
        with pytest.raises(TypeError):
            publisher.publish(object())  # not compilable
        # The old snapshot answers untouched...
        assert publisher.version == 1
        assert len(publisher.query(RuleQuery())) == len(planted_result.rules)
        # ...and the failure is on the record, with timestamp and class.
        failure = publisher.last_failure
        assert failure["error"] == "TypeError"
        assert failure["at"] == pytest.approx(1000.0)
        payload = publisher.to_dict()
        assert payload["last_failure"]["error"] == "TypeError"
        assert payload["publish_failures_total"] == 1
        checks = {c.name: c for c in publisher.health().checks}
        assert checks["last_refresh_failure"].status == "warn"
        assert "TypeError" in checks["last_refresh_failure"].detail
        assert publisher.health().status == "warn"

    def test_failed_refresh_source_records_too(self, planted_result):
        publisher = SnapshotPublisher(planted_result, clock=_Clock())
        with pytest.raises(RuntimeError, match="wedged"):
            publisher.refresh(_Flaky(planted_result, failures=1))
        assert publisher.last_failure["error"] == "RuntimeError"
        assert publisher.version == 1  # old snapshot still serving

    def test_success_clears_failure_but_keeps_the_count(self, planted_result):
        publisher = SnapshotPublisher(planted_result, clock=_Clock())
        with pytest.raises(TypeError):
            publisher.publish(object())
        publisher.publish(planted_result)
        assert publisher.last_failure is None
        assert publisher.to_dict()["publish_failures_total"] == 1
        checks = {c.name: c for c in publisher.health().checks}
        assert checks["last_refresh_failure"].status == "ok"
        assert "recovered" in checks["last_refresh_failure"].detail


class TestStaleness:
    def test_grade_ladder(self):
        policy = StalenessPolicy(warn_after_seconds=10, crit_after_seconds=60)
        assert policy.grade(0.0) == "ok"
        assert policy.grade(9.9) == "ok"
        assert policy.grade(10.0) == "warn"
        assert policy.grade(59.9) == "warn"
        assert policy.grade(60.0) == "crit"

    def test_validation(self):
        with pytest.raises(ValueError):
            StalenessPolicy(warn_after_seconds=0)
        with pytest.raises(ValueError):
            StalenessPolicy(warn_after_seconds=10, crit_after_seconds=5)

    def test_health_degrades_as_the_clock_moves(self, planted_result):
        clock = _Clock()
        publisher = SnapshotPublisher(
            planted_result,
            staleness=StalenessPolicy(
                warn_after_seconds=10, crit_after_seconds=60
            ),
            clock=clock,
        )
        assert publisher.health().status == "ok"
        clock.now += 15.0
        assert publisher.snapshot_age_seconds() == pytest.approx(15.0)
        assert publisher.health().status == "warn"
        clock.now += 50.0
        assert publisher.health().status == "crit"
        # A fresh publish resets the age — full recovery, no flapping.
        publisher.publish(planted_result)
        assert publisher.health().status == "ok"

    def test_no_policy_age_is_informational(self, planted_result):
        clock = _Clock()
        publisher = SnapshotPublisher(planted_result, clock=clock)
        clock.now += 1e6
        assert publisher.health().status == "ok"

