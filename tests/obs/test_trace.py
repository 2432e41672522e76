"""Tests for repro.obs.trace: span recording, nesting, export formats."""

import json
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer, span


@pytest.fixture
def tracer():
    """A fresh enabled tracer (module state restored by _reset_obs)."""
    yield trace.enable_tracing(capacity=1024)


class TestDisabledMode:
    def test_span_records_nothing(self):
        assert not trace.tracing_enabled()
        before = len(trace.get_tracer().spans())
        with span("phase1.insert_batch", size=10) as sp:
            sp.set("absorbed", 3)
            sp.add("splits")
        assert len(trace.get_tracer().spans()) == before

    def test_nested_stopwatches_time_independently(self):
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.set("k", 1).add("k") is inner
                assert inner.seconds == 0.0
            time.sleep(0.002)
            assert outer.seconds == 0.0
        assert outer is not inner
        assert inner.seconds > 0.0
        assert outer.seconds >= inner.seconds + 0.002
        assert outer.set("k", 1).add("k") is outer

    def test_null_span_methods_chain(self):
        with span("x") as sp:
            assert sp.set("k", 1) is sp
            assert sp.add("k") is sp


class TestRecording:
    def test_single_span(self, tracer):
        with span("work", size=4) as sp:
            sp.set("done", True)
        (record,) = tracer.spans()
        assert record.name == "work"
        assert record.parent_id == 0
        assert record.attributes == {"size": 4, "done": True}
        assert record.seconds > 0

    def test_nesting_sets_parentage(self, tracer):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = tracer.spans()
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0

    def test_children_finish_before_parents(self, tracer):
        with span("outer"):
            with span("inner"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["inner", "outer"]

    def test_sibling_spans_share_parent(self, tracer):
        with span("parent"):
            with span("a"):
                pass
            with span("b"):
                pass
        a, b, parent = tracer.spans()
        assert {a.parent_id, b.parent_id} == {parent.span_id}

    def test_exception_recorded_and_propagated(self, tracer):
        with pytest.raises(ValueError):
            with span("explodes"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert "ValueError: boom" in record.attributes["error"]

    def test_out_of_order_close_heals_stack(self, tracer):
        outer = tracer.start_span("outer")
        tracer.start_span("forgotten")
        tracer.end_span(outer)  # closes the forgotten child too
        names = [s.name for s in tracer.spans()]
        assert names == ["forgotten", "outer"]
        assert all(s.end for s in tracer.spans())

    def test_ring_buffer_drops_oldest(self):
        tracer = trace.enable_tracing(capacity=3)
        for i in range(5):
            with span(f"s{i}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.n_dropped == 2

    def test_clear_resets(self, tracer):
        with span("x"):
            pass
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.n_dropped == 0

    def test_threads_have_independent_stacks(self, tracer):
        done = threading.Event()

        def worker():
            with span("thread-span"):
                done.wait(5)

        thread = threading.Thread(target=worker)
        with span("main-span"):
            thread.start()
            done.set()
            thread.join()
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["thread-span"].parent_id == 0
        assert by_name["main-span"].parent_id == 0


class TestExport:
    def test_jsonl_round_trip(self, tracer, tmp_path):
        with span("outer", rows=7):
            with span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in rows] == ["inner", "outer"]
        assert rows[1]["attributes"] == {"rows": 7}
        assert all(r["seconds"] >= 0 for r in rows)

    def test_chrome_trace_is_valid_and_complete(self, tracer, tmp_path):
        with span("phase1"):
            with span("phase1.fit", partition="x"):
                pass
        path = tmp_path / "trace.json"
        n = tracer.to_chrome(path)
        document = json.loads(path.read_text())
        assert n == 2
        assert document["displayTimeUnit"] == "ms"
        for event in document["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        fit = next(e for e in document["traceEvents"] if e["name"] == "phase1.fit")
        assert fit["args"] == {"partition": "x"}
        assert fit["cat"] == "phase1"

    def test_chrome_args_stringify_exotic_values(self, tracer):
        with span("x", path=object()):
            pass
        (event,) = tracer.chrome_trace()["traceEvents"]
        assert isinstance(event["args"]["path"], str)

    def test_child_interval_within_parent(self, tracer):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = tracer.spans()
        assert outer.start <= inner.start
        assert inner.end <= outer.end


class TestTracerValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestRingBufferParentage:
    def test_overflow_keeps_parentage_consistent(self):
        # Far more parent+child pairs than the buffer holds: eviction must
        # drop oldest-first and never corrupt the surviving links.
        tracer = trace.enable_tracing(capacity=8)
        for i in range(50):
            with span(f"parent{i}"):
                with span(f"child{i}"):
                    pass
        survivors = tracer.spans()
        assert len(survivors) == 8
        assert tracer.n_dropped == 100 - 8
        ids = [s.span_id for s in survivors]
        assert len(set(ids)) == len(ids)  # ids are never reused
        buffered = set(ids)
        oldest = min(ids)
        for record in survivors:
            if record.parent_id == 0:
                continue  # a root span
            # A surviving child links either to a surviving parent or to
            # one that was evicted earlier — never to a newer span.
            assert record.parent_id < record.span_id
            assert record.parent_id in buffered or record.parent_id < oldest

    def test_surviving_pairs_still_nest(self):
        tracer = trace.enable_tracing(capacity=4)
        for i in range(20):
            with span(f"parent{i}"):
                with span(f"child{i}"):
                    pass
        survivors = {s.name: s for s in tracer.spans()}
        # The newest parent+child pair always survives intact.
        assert survivors["child19"].parent_id == survivors["parent19"].span_id
