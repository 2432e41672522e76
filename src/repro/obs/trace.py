"""Hierarchical span tracing with zero-cost disabled mode.

A *span* is one timed region of the pipeline — ``phase1.insert_batch``,
``phase2.graph``, ``checkpoint.save`` — with a wall-clock interval, a
parent (the span that was open on the same thread when it started), and a
free-form attribute dict for counters the region wants to attach.  Spans
record into an in-memory ring buffer owned by a :class:`Tracer`; nothing
is ever written to disk unless an exporter is called.

Usage at an instrumentation site::

    from repro.obs.trace import span

    with span("phase1.insert_batch", size=batch.size) as sp:
        ...                     # the timed work
        sp.set("absorbed", n)   # attach counters discovered along the way

Traced or not, the yielded object's ``.seconds`` holds the region's wall
time once the ``with`` block closes, so a stats field that reports a
stage's time reads it from the stage's span: there is no second
stopwatch to disagree with the trace.  When tracing is disabled (the
default) ``span()`` returns a bare stopwatch that records nothing: two
clock reads, no span id, thread stack, lock or ring slot.  The hot paths
are instrumented at batch/stage granularity precisely so this is the
*only* disabled-mode cost — ``benchmarks/test_perf_obs_overhead.py``
gates it below 2% of the workloads it rides on.

Exporters: :meth:`Tracer.to_jsonl` (one JSON object per finished span)
and :meth:`Tracer.to_chrome` (the Chrome ``chrome://tracing`` /
Perfetto trace-event format, complete ``"X"`` events).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs import context as _context

__all__ = [
    "Span",
    "Tracer",
    "span",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_span_id",
    "current_trace_id",
]

#: Default ring-buffer capacity: old spans are dropped once this many
#: finished spans are held.  Generous for whole mines (a streaming run
#: emits a handful of spans per batch), tiny in memory (~1KB/span).
DEFAULT_CAPACITY = 65_536


class Span:
    """One finished (or in-flight) traced region.

    ``start``/``end`` are :func:`time.perf_counter` values; ``end`` is 0.0
    while the span is still open.  ``parent_id`` is 0 for root spans.
    ``trace_id`` is the ambient request/trace id captured at start time
    ("" when no context was active) — stable across export and
    :meth:`Tracer.ingest`, unlike span ids which are per-tracer.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "thread_id", "start", "end",
        "attributes", "trace_id",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int,
        thread_id: int,
        start: float,
        attributes: Dict[str, Any],
        trace_id: str = "",
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.start = start
        self.end = 0.0
        self.attributes = attributes
        self.trace_id = trace_id

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        return self.end - self.start if self.end else 0.0

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one attribute; returns ``self`` for chaining."""
        self.attributes[key] = value
        return self

    def add(self, key: str, amount: Union[int, float] = 1) -> "Span":
        """Add ``amount`` to a numeric attribute, creating it at 0."""
        self.attributes[key] = self.attributes.get(key, 0) + amount
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The span as plain built-ins (the JSONL export row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f}ms, attrs={self.attributes})"


class _Stopwatch:
    """What :func:`span` yields while tracing is off: the region's wall
    time in ``seconds`` (0.0 until the block closes), nothing recorded."""

    __slots__ = ("_start", "seconds")

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.seconds = time.perf_counter() - self._start
        return False

    def set(self, key: str, value: Any) -> "_Stopwatch":
        return self

    def add(self, key: str, amount: Union[int, float] = 1) -> "_Stopwatch":
        return self


class _SpanContext:
    """Context manager that opens a real span on ``__enter__``."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.start_span(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.set("error", f"{exc_type.__name__}: {exc}")
        self._tracer.end_span(self._span)
        return False


class Tracer:
    """Collects finished spans into a bounded ring buffer.

    Thread-safe: each thread keeps its own open-span stack (so parentage
    is per-thread, as in every tracing system), and the finished-span
    buffer is guarded by a lock.  The perf-counter value at construction
    is the trace *epoch*; exported timestamps are offsets from it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.epoch = time.perf_counter()
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._dropped = 0

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start_span(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span as a child of the thread's innermost open span.

        The new span is stamped with the ambient trace id: the active
        :class:`~repro.obs.context.RequestContext` wins, else the parent
        span's trace id is inherited, else "" (an uncorrelated span).
        """
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else 0
        ambient = _context.current()
        if ambient is not None:
            trace_id = ambient.trace_id
        elif stack:
            trace_id = stack[-1].trace_id
        else:
            trace_id = ""
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent_id,
            thread_id=threading.get_ident(),
            start=time.perf_counter(),
            attributes=attributes if attributes is not None else {},
            trace_id=trace_id,
        )
        stack.append(record)
        return record

    def end_span(self, record: Span) -> None:
        """Close ``record`` and move it to the finished-span buffer.

        Closing out of order (an outer span before its children) also
        closes every span above ``record`` on the stack, so a forgotten
        inner span cannot corrupt parentage for the rest of the run.
        """
        record.end = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is record:
                break
            if not top.end:
                top.end = record.end
            self._append(top)
        self._append(record)

    def _append(self, record: Span) -> None:
        with self._lock:
            if len(self._buffer) == self.capacity:
                self._dropped += 1
            self._buffer.append(record)

    def ingest(
        self,
        records: List[Dict[str, Any]],
        parent_id: int = 0,
        epoch: Optional[float] = None,
        base: Optional[float] = None,
    ) -> int:
        """Merge foreign (worker-exported) span rows into this tracer.

        ``records`` are :meth:`Span.to_dict` rows exported by another
        process's tracer.  Span ids are only unique per tracer, so each
        row gets a fresh id here; parent links *within* the batch are
        remapped to the new ids, and roots are re-parented under
        ``parent_id`` (typically the coordinator span that dispatched the
        worker).  Timestamps are rebased when ``epoch`` — the foreign
        tracer's epoch — is given: a foreign perf-counter value ``t``
        becomes ``base + (t - epoch)``, where ``base`` defaults to this
        tracer's epoch and is normally the local perf-counter reading
        taken when the worker was dispatched.  Returns the number of
        spans ingested.
        """
        if base is None:
            base = self.epoch
        rows = [dict(row) for row in records]
        id_map = {
            int(row["span_id"]): next(self._ids)
            for row in rows
            if "span_id" in row
        }
        for row in rows:
            start = float(row.get("start", 0.0))
            end = float(row.get("end", 0.0))
            if epoch is not None:
                start = base + (start - epoch)
                if end:
                    end = base + (end - epoch)
            record = Span(
                name=str(row.get("name", "?")),
                span_id=id_map.get(int(row.get("span_id", 0)), next(self._ids)),
                parent_id=id_map.get(int(row.get("parent_id", 0)), parent_id),
                thread_id=int(row.get("thread_id", 0)),
                start=start,
                attributes=dict(row.get("attributes", {})),
                trace_id=str(row.get("trace_id", "")),
            )
            record.end = end
            self._append(record)
        return len(rows)

    # -- inspection -----------------------------------------------------

    @property
    def n_dropped(self) -> int:
        """Finished spans evicted by the ring buffer since the last clear."""
        return self._dropped

    def spans(self) -> List[Span]:
        """Finished spans, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        """Drop all finished spans and reset the epoch and drop counter."""
        with self._lock:
            self._buffer.clear()
            self._dropped = 0
            self.epoch = time.perf_counter()

    # -- export ---------------------------------------------------------

    def to_jsonl(self, path: Optional[Union[str, Path]] = None) -> str:
        """Finished spans as JSONL (one object per line); optionally written."""
        lines = "\n".join(json.dumps(s.to_dict(), default=str) for s in self.spans())
        if lines:
            lines += "\n"
        if path is not None:
            Path(path).write_text(lines)
        return lines

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event document for the finished spans.

        Complete (``"ph": "X"``) events with microsecond timestamps
        relative to the tracer epoch; thread ids map to Chrome ``tid``
        rows so concurrent scans render as parallel tracks.
        """
        events = []
        for record in self.spans():
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": (record.start - self.epoch) * 1e6,
                    "dur": record.seconds * 1e6,
                    "pid": 1,
                    "tid": record.thread_id % 2**31,
                    "cat": record.name.split(".", 1)[0],
                    "args": {
                        key: value if isinstance(value, (int, float, str, bool)) else str(value)
                        for key, value in record.attributes.items()
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome(self, path: Union[str, Path]) -> int:
        """Write :meth:`chrome_trace` as JSON; returns the event count."""
        document = self.chrome_trace()
        Path(path).write_text(json.dumps(document))
        return len(document["traceEvents"])


_enabled = False
_tracer = Tracer()


def tracing_enabled() -> bool:
    """Whether :func:`span` currently records anything."""
    return _enabled


def enable_tracing(capacity: Optional[int] = None) -> Tracer:
    """Turn span recording on; returns the active tracer.

    ``capacity`` (when given) replaces the process tracer with a fresh
    one of that ring-buffer size, discarding previously recorded spans.
    """
    global _enabled, _tracer
    if capacity is not None:
        _tracer = Tracer(capacity)
    _enabled = True
    return _tracer


def disable_tracing() -> None:
    """Turn span recording off (already-recorded spans are kept)."""
    global _enabled
    _enabled = False


def get_tracer() -> Tracer:
    """The process-wide tracer (valid whether or not tracing is enabled)."""
    return _tracer


def current_span_id() -> int:
    """The id of this thread's innermost open span (0 when none / disabled)."""
    if not _enabled:
        return 0
    stack = getattr(_tracer._local, "stack", None)
    return stack[-1].span_id if stack else 0


def current_trace_id() -> str:
    """The ambient trace id: active context first, else the open span's.

    Returns "" when neither a :class:`~repro.obs.context.RequestContext`
    is active nor a traced span is open on this thread.
    """
    ambient = _context.current()
    if ambient is not None:
        return ambient.trace_id
    if _enabled:
        stack = getattr(_tracer._local, "stack", None)
        if stack:
            return stack[-1].trace_id
    return ""


def span(name: str, **attributes: Any):
    """Open a traced region named ``name`` (context manager).

    The yielded object supports ``.set(key, value)`` and
    ``.add(key, amount)`` for attaching counters, and its ``.seconds`` is
    the region's wall time once the block closes.  With tracing disabled
    it is a stopwatch that records nothing.
    """
    if not _enabled:
        return _Stopwatch()
    return _SpanContext(_tracer, name, attributes)
