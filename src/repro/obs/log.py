"""Structured JSONL logging — the third pillar of ``repro.obs``.

Every record is one JSON object on one line: timestamp, level, event
name, the ambient ``trace_id``/``span_id`` (stamped automatically from
:mod:`repro.obs.context` and the open span stack), and whatever
key/value fields the call site attached::

    from repro.obs import log

    log.info("serve.access", route="/query", status=200, seconds=0.004)

Design rules, shared with trace/metrics:

* **No-op when disabled.**  The module-level emitters (:func:`event`,
  :func:`debug`, :func:`info`, :func:`warn`, :func:`error`) cost one
  boolean check until :func:`enable_logging` is called — the hot-path
  benchmark gates this below 2% alongside spans and counters.
* **Bounded, never blocking.**  Records land in a ring buffer of
  ``capacity`` records; overflow evicts the oldest and counts it in
  :attr:`StructuredLogger.n_dropped` rather than growing without bound
  or stalling the caller.  A failing sink (full disk, closed pipe)
  likewise counts :attr:`StructuredLogger.n_sink_errors` and keeps
  going — logging must never take the pipeline down.
* **Torn-line free.**  Each record is serialized once and written to the
  sink as a single ``write`` under one lock, so concurrent threads can
  hammer the same file and every line stays valid JSON (asserted by
  ``tests/obs/test_log.py``).
* **Worker shipping.**  ``ProcessPoolBackend`` workers buffer records
  sink-less and export them with :meth:`StructuredLogger.export_records`;
  the coordinator folds them home with :meth:`StructuredLogger.ingest`,
  exactly like span/metric snapshots.

Sinks: ``None`` (buffer only), a stream (``sys.stderr``), or a file
path opened in append mode.  Lines are written eagerly and flushed per
record, so ``tail -f`` and post-crash inspection both work.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TextIO, Union

from repro.obs import context as _context
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "DEBUG",
    "INFO",
    "WARN",
    "ERROR",
    "StructuredLogger",
    "parse_level",
    "level_name",
    "get_logger",
    "enable_logging",
    "disable_logging",
    "logging_enabled",
    "event",
    "debug",
    "info",
    "warn",
    "error",
]

DEBUG = 10
INFO = 20
WARN = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARN: "warn", ERROR: "error"}
_NAME_LEVELS = {name: value for value, name in _LEVEL_NAMES.items()}
_NAME_LEVELS["warning"] = WARN

#: Default ring-buffer capacity (records kept in memory for export and
#: for the flight recorder's postmortem window).
DEFAULT_CAPACITY = 4096


def parse_level(value: Union[int, str]) -> int:
    """Normalize a level given as an int or a name ("info", "WARN", ...)."""
    if isinstance(value, int):
        return value
    level = _NAME_LEVELS.get(value.strip().lower())
    if level is None:
        raise ValueError(
            f"unknown log level {value!r} (expected one of "
            f"{', '.join(sorted(_NAME_LEVELS))})"
        )
    return level


def level_name(level: int) -> str:
    """The canonical name of a numeric level (falls back to the number)."""
    return _LEVEL_NAMES.get(level, str(level))


class StructuredLogger:
    """Leveled JSONL logger with a bounded buffer and an optional sink.

    Thread-safe: one lock guards the buffer, the counters and the sink
    write, so a record is serialized and written atomically — concurrent
    emitters can never interleave partial lines.
    """

    def __init__(
        self,
        level: Union[int, str] = INFO,
        capacity: int = DEFAULT_CAPACITY,
        stream: Optional[TextIO] = None,
        path: Optional[Union[str, Path]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if stream is not None and path is not None:
            raise ValueError("give a stream or a path, not both")
        self.level = parse_level(level)
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._stream: Optional[TextIO] = stream
        self._owns_stream = False
        if self.path is not None:
            self._stream = open(self.path, "a", encoding="utf-8")
            self._owns_stream = True
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        # Notified on every append so tests can wait for records written
        # by other threads (e.g. an HTTP handler's access record, emitted
        # after the response bytes go out) without polling.
        self._changed = threading.Condition(self._lock)
        self.n_emitted = 0
        self.n_dropped = 0
        self.n_sink_errors = 0

    # -- emission -------------------------------------------------------

    def event(self, name: str, level: int = INFO, **fields: Any) -> Optional[Dict[str, Any]]:
        """Emit one record (or return ``None`` when below the level).

        The record carries ``ts`` (epoch seconds), ``level``, ``event``,
        the ambient ``trace_id``/``span_id`` when present, and
        ``fields``.  Returns the record dict (handy in tests).
        """
        if level < self.level:
            return None
        record: Dict[str, Any] = {
            "ts": time.time(),
            "level": level_name(level),
            "event": name,
        }
        trace_id = _trace.current_trace_id()
        if trace_id:
            record["trace_id"] = trace_id
        span_id = _trace.current_span_id()
        if span_id:
            record["span_id"] = span_id
        ambient = _context.current()
        if ambient is not None and ambient.request_id is not None:
            record["request_id"] = ambient.request_id
        for key, value in fields.items():
            record[key] = value
        line = json.dumps(record, default=str, separators=(",", ":")) + "\n"
        with self._lock:
            if len(self._buffer) == self.capacity:
                self.n_dropped += 1
            self._buffer.append(record)
            self.n_emitted += 1
            if self._stream is not None:
                try:
                    self._stream.write(line)
                    self._stream.flush()
                except (OSError, ValueError):
                    self.n_sink_errors += 1
            self._changed.notify_all()
        _metrics.inc(
            "repro_log_records_total",
            help="Structured log records emitted",
            level=level_name(level),
        )
        return record

    def debug(self, name: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Emit at DEBUG."""
        return self.event(name, DEBUG, **fields)

    def info(self, name: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Emit at INFO."""
        return self.event(name, INFO, **fields)

    def warn(self, name: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Emit at WARN."""
        return self.event(name, WARN, **fields)

    def error(self, name: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Emit at ERROR."""
        return self.event(name, ERROR, **fields)

    # -- inspection / shipping ------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Buffered records, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._buffer)

    def export_records(self) -> List[Dict[str, Any]]:
        """Picklable dump of the buffer — the worker-to-coordinator wire."""
        return self.records()

    def ingest(self, records: List[Mapping[str, Any]]) -> int:
        """Fold foreign (worker-exported) records into buffer and sink.

        Records keep their original timestamps and ids; they are
        re-serialized and written to this logger's sink so a file sink
        sees worker lines too.  Returns the number ingested.
        """
        count = 0
        for row in records:
            record = dict(row)
            line = json.dumps(record, default=str, separators=(",", ":")) + "\n"
            with self._lock:
                if len(self._buffer) == self.capacity:
                    self.n_dropped += 1
                self._buffer.append(record)
                self.n_emitted += 1
                if self._stream is not None:
                    try:
                        self._stream.write(line)
                        self._stream.flush()
                    except (OSError, ValueError):
                        self.n_sink_errors += 1
                self._changed.notify_all()
            count += 1
        return count

    def wait_for(self, predicate, timeout: float = 5.0) -> bool:
        """Block until ``predicate(records)`` is true; ``False`` on timeout.

        Event-based (condition variable, no polling): re-evaluated on
        every emitted or ingested record.  Lets a test synchronize with a
        record another thread writes *after* its observable side effect —
        e.g. the HTTP access record, emitted once the response has been
        sent.
        """
        with self._changed:
            return self._changed.wait_for(
                lambda: predicate(list(self._buffer)), timeout=timeout
            )

    def clear(self) -> None:
        """Drop buffered records and reset every counter."""
        with self._lock:
            self._buffer.clear()
            self.n_emitted = 0
            self.n_dropped = 0
            self.n_sink_errors = 0

    def close(self) -> None:
        """Close a file sink this logger opened (streams are left alone)."""
        with self._lock:
            if self._owns_stream and self._stream is not None:
                try:
                    self._stream.close()
                except OSError:
                    pass
            if self._owns_stream:
                self._stream = None

    def to_jsonl(self) -> str:
        """The buffered records as JSONL text (one object per line)."""
        out = io.StringIO()
        for record in self.records():
            out.write(json.dumps(record, default=str, separators=(",", ":")))
            out.write("\n")
        return out.getvalue()


_enabled = False
_logger = StructuredLogger()


def logging_enabled() -> bool:
    """Whether the module-level emitters currently record anything."""
    return _enabled


def enable_logging(
    level: Union[int, str, None] = None,
    path: Optional[Union[str, Path]] = None,
    stream: Optional[TextIO] = None,
    capacity: Optional[int] = None,
) -> StructuredLogger:
    """Turn structured logging on; returns the active logger.

    With any argument given the process logger is replaced by a fresh
    one (closing a previous file sink); with none, the existing logger
    is kept and simply switched on.  ``path="stderr"`` or ``path="-"``
    are accepted as aliases for the stderr stream, mirroring the CLI's
    ``--log`` flag.
    """
    global _enabled, _logger
    if level is not None or path is not None or stream is not None or capacity is not None:
        if isinstance(path, str) and path in ("stderr", "-"):
            path, stream = None, sys.stderr
        _logger.close()
        _logger = StructuredLogger(
            level=INFO if level is None else level,
            capacity=DEFAULT_CAPACITY if capacity is None else capacity,
            stream=stream,
            path=path,
        )
    _enabled = True
    return _logger


def disable_logging() -> None:
    """Turn structured logging off (buffered records are kept)."""
    global _enabled
    _enabled = False


def get_logger() -> StructuredLogger:
    """The process-wide logger (valid whether or not logging is enabled)."""
    return _logger


def event(name: str, level: int = INFO, **fields: Any) -> None:
    """Emit one structured record — no-op while logging is disabled."""
    if not _enabled:
        return
    _logger.event(name, level, **fields)


def debug(name: str, **fields: Any) -> None:
    """Emit at DEBUG — no-op while logging is disabled."""
    if not _enabled:
        return
    _logger.event(name, DEBUG, **fields)


def info(name: str, **fields: Any) -> None:
    """Emit at INFO — no-op while logging is disabled."""
    if not _enabled:
        return
    _logger.event(name, INFO, **fields)


def warn(name: str, **fields: Any) -> None:
    """Emit at WARN — no-op while logging is disabled."""
    if not _enabled:
        return
    _logger.event(name, WARN, **fields)


def error(name: str, **fields: Any) -> None:
    """Emit at ERROR — no-op while logging is disabled."""
    if not _enabled:
        return
    _logger.event(name, ERROR, **fields)
