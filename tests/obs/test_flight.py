"""Flight recorder: the window from the tracer and logger rings, bundles, dedup."""

from __future__ import annotations

import json
import tarfile
import threading

import pytest

from repro.obs import flight
from repro.obs import log
from repro.obs import metrics
from repro.obs import trace
from repro.obs.trace import span


@pytest.fixture
def recorder(tmp_path):
    active = flight.enable_flight(directory=tmp_path, config={})
    active.n_dumps = 0
    trace.get_tracer().clear()
    log.get_logger().clear()
    yield active
    flight.disable_flight()


def bundle_events(path):
    with tarfile.open(path) as archive:
        text = archive.extractfile("events.jsonl").read().decode()
    return [json.loads(line) for line in text.splitlines()]


class TestRingCapture:
    def test_hooks_capture_log_span_and_metric(self, recorder):
        # The window is cut from the tracer and logger rings; metric
        # values travel in metrics.prom, not as events.
        log.enable_logging(level=log.DEBUG)
        trace.enable_tracing()
        metrics.enable_metrics().reset()
        log.info("hello", n=1)
        with span("work"):
            pass
        metrics.inc("repro_test_total")
        events = bundle_events(flight.dump("window"))
        kinds = [entry["kind"] for entry in events]
        assert "log" in kinds
        assert "span" in kinds
        assert set(kinds) == {"log", "span"}
        (work,) = [e for e in events if e["kind"] == "span"]
        assert work["data"]["name"] == "work"
        assert {"span_id", "parent_id", "trace_id", "seconds", "attributes"} <= set(
            work["data"]
        )
        stamps = [entry["ts"] for entry in events]
        assert stamps == sorted(stamps)

    def test_disable_uninstalls_hooks(self, recorder):
        # No layer carries a recorder hook any more: disarming only stops
        # dumps, and the rings keep recording on their own switches.
        for module in (trace, log, metrics):
            assert not hasattr(module, "_flight_hook")
        log.enable_logging(level=log.DEBUG)
        flight.disable_flight()
        log.info("after.disable")
        assert log.get_logger().records()[-1]["event"] == "after.disable"
        assert flight.dump("disarmed") is None

    def test_explicit_record_respects_enable_gate(self, recorder):
        # An explicit event is a log record; it reaches a bundle only
        # while logging is on.
        log.info("checkpoint", step=3)
        assert recorder.events() == []
        log.enable_logging(level=log.DEBUG)
        log.info("checkpoint", step=3)
        (event,) = bundle_events(flight.dump("gate"))
        assert event["kind"] == "log"
        assert event["data"]["step"] == 3

    def test_overflow_keeps_newest_and_counts_drops(self, recorder):
        # Far more records than the logger ring holds: the window keeps
        # the newest, and meta.json accounts for every eviction.
        log.enable_logging(level=log.DEBUG, capacity=8)
        for i in range(50):
            log.info("tick", i=i)
        path = flight.dump("overflow")
        events = bundle_events(path)
        assert [entry["data"]["i"] for entry in events] == list(range(42, 50))
        with tarfile.open(path) as archive:
            meta = json.loads(archive.extractfile("meta.json").read())
        assert meta["n_events"] == 8
        assert meta["log_dropped"] == 42

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            trace.Tracer(capacity=0)
        with pytest.raises(ValueError):
            log.StructuredLogger(capacity=0)

    def test_threaded_recording_is_bounded_and_complete(self, recorder):
        logger = log.enable_logging(level=log.DEBUG, capacity=16)
        threads = [
            threading.Thread(
                target=lambda t=t: [log.info("hammer", t=t, i=i) for i in range(100)]
            )
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert logger.n_emitted == 400
        assert len(recorder.events()) == 16
        assert logger.n_dropped == 400 - 16


class TestBundles:
    def _open(self, path):
        bundle = {}
        with tarfile.open(path) as archive:
            for name in archive.getnames():
                bundle[name] = archive.extractfile(name).read().decode()
        return bundle

    def test_dump_writes_all_members(self, recorder, tmp_path):
        metrics.enable_metrics().reset()
        metrics.inc("repro_test_total", help="t")
        log.enable_logging(level=log.DEBUG)
        log.info("note", what="pre-crash")
        path = flight.dump("unit-test", health={"status": "ok"})
        assert path is not None and path.parent == tmp_path
        bundle = self._open(path)
        assert sorted(bundle) == [
            "config.json", "events.jsonl", "health.json",
            "meta.json", "metrics.prom",
        ]
        (event_line,) = [
            json.loads(line)
            for line in bundle["events.jsonl"].splitlines()
            if json.loads(line)["data"].get("event") == "note"
        ]
        assert event_line["kind"] == "log"
        assert event_line["data"]["what"] == "pre-crash"
        assert "repro_test_total" in bundle["metrics.prom"]
        assert json.loads(bundle["health.json"])["status"] == "ok"

    def test_health_defaults_to_the_default_pack_verdicts(self, recorder):
        metrics.enable_metrics().reset()
        metrics.inc("repro_quarantined_rows_total", 6)
        metrics.inc("repro_rows_ok_total", 94)
        health = json.loads(self._open(flight.dump("no-health"))["health.json"])
        assert health["status"] == "warn"
        rows = {row["rule"]: row for row in health["results"]}
        assert rows["quarantine_rate"]["status"] == "warn"
        assert rows["serve_query_p99_seconds"]["status"] == "skip"

    def test_meta_names_the_build_and_reason(self, recorder):
        path = flight.dump("why not")
        meta = json.loads(self._open(path)["meta.json"])
        assert meta["reason"] == "why not"
        for key in ("version", "git_sha", "python", "numpy", "pid"):
            assert key in meta
        assert "why-not" in path.name  # slugged into the filename

    def test_config_merges_recorder_and_call_site(self, recorder):
        recorder.config = {"command": "mine", "csv": "a.csv"}
        path = flight.dump("cfg", config={"attempt": 2})
        config = json.loads(self._open(path)["config.json"])
        assert config == {"command": "mine", "csv": "a.csv", "attempt": 2}

    def test_rearming_without_config_forgets_the_last_one(self, recorder, tmp_path):
        flight.enable_flight(directory=tmp_path, config={"command": "mine", "csv": "a.csv"})
        flight.dump("first-run")
        flight.disable_flight()
        rearmed = flight.enable_flight(directory=tmp_path)
        path = flight.dump("second-run")
        assert json.loads(self._open(path)["config.json"]) == {}
        assert rearmed.n_dumps == 1

    def test_colliding_names_get_serials(self, recorder):
        first = flight.dump("same-second")
        second = flight.dump("same-second")
        assert first != second
        assert first.exists() and second.exists()

    def test_dump_while_disabled_returns_none(self, tmp_path):
        flight.disable_flight()
        assert flight.dump("nope") is None
        assert list(tmp_path.iterdir()) == []


class TestDumpOnError:
    def test_first_handler_dumps_later_ones_skip(self, recorder):
        error = RuntimeError("boom")
        first = flight.dump_on_error("inner-handler", error)
        second = flight.dump_on_error("outer-handler", error)
        assert first is not None
        assert second is None
        assert recorder.n_dumps == 1

    def test_distinct_errors_each_get_a_bundle(self, recorder):
        assert flight.dump_on_error("a", RuntimeError("x")) is not None
        assert flight.dump_on_error("b", RuntimeError("y")) is not None
        assert recorder.n_dumps == 2

    def test_error_line_lands_in_meta(self, recorder):
        path = flight.dump_on_error("crash", ValueError("teeth"))
        with tarfile.open(path) as archive:
            meta = json.loads(archive.extractfile("meta.json").read())
        assert meta["error"] == "ValueError: teeth"

    def test_unwritable_directory_never_masks_the_error(self, recorder, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("file, not directory")
        recorder.directory = blocked
        assert flight.dump_on_error("bad-dir", RuntimeError("orig")) is None


class TestDumpMetric:
    def test_dump_counter_increments_by_reason(self, recorder):
        metrics.enable_metrics().reset()
        flight.dump("drill")
        assert metrics.get_registry().counter(
            "repro_postmortem_dumps_total", reason="drill"
        ).value == 1
