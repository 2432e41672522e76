"""Flight recorder: postmortem bundles cut from the tracer and logger rings.

The recent-activity window is what the tracer and the structured logger
already hold in their ring buffers; the recorder keeps no ring of its
own.  When something dies (unhandled exception, fault-injection trip,
SIGTERM, or an explicit call) :meth:`FlightRecorder.dump` freezes that
window into a single *postmortem bundle*: a ``.tar.gz`` containing

==================  ====================================================
``events.jsonl``    finished spans and log records in wall-clock order,
                    one ``{"ts", "kind", "data"}`` object per line
``metrics.prom``    the full Prometheus exposition at dump time
``health.json``     the caller's health payload, or the default SLO
                    pack's verdicts over the live registry
``config.json``     run configuration (CLI args, server policy, ...)
``meta.json``       reason, timestamps, platform/python/numpy versions,
                    git SHA, pid, ring drop counters
==================  ====================================================

The window only holds what the layers recorded, so arming the recorder
(:func:`enable_flight`) is useful together with tracing and logging —
``--postmortem-dir`` implies tracing and metrics for that reason.

Dump sites are wired into ``guarded_mine``, ``ParallelDARMiner``,
``RuleServer.shutdown``, fault-injection trips and the CLI's top-level
error handler; :func:`dump_on_error` tags the exception object so a
failure that bubbles through several of those layers produces exactly
one bundle.
"""

from __future__ import annotations

import io
import json
import os
import platform
import subprocess
import tarfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs import log as _log
from repro.obs import metrics as _metrics
from repro.obs import slo as _slo
from repro.obs import trace as _trace

__all__ = [
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_enabled",
    "get_flight",
    "dump",
    "dump_on_error",
    "build_metadata",
]

#: Attribute set on exception objects once a bundle has been written for
#: them, so nested dump hooks do not produce duplicate bundles.
_DUMPED_FLAG = "_repro_flight_dumped"


def _git_sha() -> str:
    """The repository HEAD SHA, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def build_metadata() -> Dict[str, str]:
    """Build-identity labels: version, git SHA, python, numpy.

    Shared by the ``repro_build_info`` gauge and every bundle's
    ``meta.json``, so a scrape and a postmortem identify the same build.
    """
    import numpy

    import repro

    return {
        "version": repro.__version__,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class FlightRecorder:
    """Postmortem writer over the tracer and logger rings."""

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        self.directory = Path(directory) if directory is not None else Path(".")
        self.config: Dict[str, Any] = {}
        self._dump_lock = threading.Lock()
        self.n_dumps = 0

    def events(self) -> List[Dict[str, Any]]:
        """The window: finished spans and log records, wall-clock order.

        Spans are stamped at their close, converted from the tracer's
        perf-counter clock to epoch seconds; log records keep their own
        ``ts``.
        """
        offset = time.time() - time.perf_counter()
        events = [
            {
                "ts": offset + (record.end or record.start),
                "kind": "span",
                "data": {
                    "name": record.name,
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    "trace_id": record.trace_id,
                    "seconds": record.seconds,
                    "attributes": dict(record.attributes),
                },
            }
            for record in _trace.get_tracer().spans()
        ]
        events.extend(
            {"ts": record["ts"], "kind": "log", "data": record}
            for record in _log.get_logger().records()
        )
        events.sort(key=lambda entry: entry["ts"])
        return events

    def dump(
        self,
        reason: str,
        *,
        directory: Optional[Union[str, Path]] = None,
        health: Optional[Mapping[str, Any]] = None,
        config: Optional[Mapping[str, Any]] = None,
        error: Optional[BaseException] = None,
    ) -> Path:
        """Write one postmortem bundle; returns the ``.tar.gz`` path.

        ``reason`` is slugged into the file name.  ``health`` defaults to
        the :data:`~repro.obs.slo.DEFAULT_PACK` verdicts over the live
        registry; ``config`` extends the recorder's own.  The events,
        metrics and metadata members are always present.  The
        bundle is written to a temp file and atomically renamed, so a
        crash mid-dump never leaves a half-written archive behind.
        """
        with self._dump_lock:
            out_dir = Path(directory) if directory is not None else self.directory
            out_dir.mkdir(parents=True, exist_ok=True)
            slug = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
            ).strip("-") or "dump"
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            base = f"postmortem-{stamp}-{slug}-{os.getpid()}"
            path = out_dir / f"{base}.tar.gz"
            serial = 0
            while path.exists():
                serial += 1
                path = out_dir / f"{base}.{serial}.tar.gz"

            events = self.events()
            events_text = "".join(
                json.dumps(entry, default=str, separators=(",", ":")) + "\n"
                for entry in events
            )
            if health is None:
                health = _slo.evaluate_pack(_slo.DEFAULT_PACK).to_dict()
            metrics_text = _metrics.get_registry().to_prometheus()
            meta: Dict[str, Any] = {
                "reason": reason,
                "created_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
                "pid": os.getpid(),
                "platform": platform.platform(),
                "n_events": len(events),
                "log_dropped": _log.get_logger().n_dropped,
                "span_dropped": _trace.get_tracer().n_dropped,
            }
            meta.update(build_metadata())
            if error is not None:
                meta["error"] = f"{type(error).__name__}: {error}"
            merged_config = dict(self.config)
            if config:
                merged_config.update(config)

            members = [
                ("events.jsonl", events_text),
                ("metrics.prom", metrics_text),
                ("health.json", json.dumps(dict(health), indent=2, default=str)),
                ("config.json", json.dumps(merged_config, indent=2, default=str)),
                ("meta.json", json.dumps(meta, indent=2, default=str)),
            ]
            tmp = path.with_suffix(".tmp")
            with tarfile.open(tmp, "w:gz") as archive:
                for name, text in members:
                    payload = text.encode("utf-8")
                    info = tarfile.TarInfo(name=name)
                    info.size = len(payload)
                    info.mtime = int(time.time())
                    archive.addfile(info, io.BytesIO(payload))
            os.replace(tmp, path)
            self.n_dumps += 1
        _metrics.inc(
            "repro_postmortem_dumps_total",
            help="Postmortem bundles written by the flight recorder",
            reason=slug,
        )
        return path


_enabled = False
_recorder = FlightRecorder()


def flight_enabled() -> bool:
    """Whether the flight recorder is armed (dumps write bundles)."""
    return _enabled


def enable_flight(
    directory: Optional[Union[str, Path]] = None,
    config: Optional[Mapping[str, Any]] = None,
) -> FlightRecorder:
    """Arm the flight recorder; returns the active recorder.

    ``directory`` sets where bundles land; ``config`` is stored and
    included in every bundle's ``config.json``.  Each arm starts a fresh
    run: a config or dump count from an earlier arm does not carry over.
    """
    global _enabled
    if directory is not None:
        _recorder.directory = Path(directory)
    _recorder.config = dict(config or {})
    _recorder.n_dumps = 0
    _enabled = True
    return _recorder


def disable_flight() -> None:
    """Disarm the flight recorder: later dumps return ``None``."""
    global _enabled
    _enabled = False


def get_flight() -> FlightRecorder:
    """The process-wide recorder (valid whether or not it is enabled)."""
    return _recorder


def dump(reason: str, **kwargs: Any) -> Optional[Path]:
    """Write a bundle now; returns its path, or ``None`` while disabled."""
    if not _enabled:
        return None
    return _recorder.dump(reason, **kwargs)


def dump_on_error(reason: str, error: BaseException, **kwargs: Any) -> Optional[Path]:
    """Write a bundle for ``error`` exactly once across nested handlers.

    The first handler to see the exception writes the bundle and tags
    the object; later handlers up the stack (the guard ladder, then the
    CLI) see the tag and skip.  Returns the bundle path, or ``None``
    when disabled, already dumped, or the dump itself failed (a broken
    postmortem path must never mask the original error).
    """
    if not _enabled:
        return None
    if getattr(error, _DUMPED_FLAG, False):
        return None
    try:
        setattr(error, _DUMPED_FLAG, True)
    except AttributeError:
        pass
    try:
        return _recorder.dump(reason, error=error, **kwargs)
    except OSError:
        return None
