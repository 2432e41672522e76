"""repro.obs — zero-dependency observability: tracing, metrics, logging.

Independent, individually-switchable layers, all off by default and
all designed so the *disabled* cost at an instrumentation site is a
single boolean check (gated below 2% of the hot-path benchmarks by
``benchmarks/test_perf_obs_overhead.py``):

* :mod:`repro.obs.trace` — hierarchical spans over the pipeline stages
  (``phase1.insert_batch``, ``phase2.graph``, ``checkpoint.save``, ...)
  recorded to a ring buffer, exportable as JSONL or Chrome
  ``chrome://tracing`` trace-event JSON.
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and histograms (rows ingested, splits, rebuilds, quarantined rows,
  clique counts, checkpoint bytes/seconds, ...), renderable as a
  Prometheus text exposition or a human table.
* :mod:`repro.obs.log` — leveled JSONL records in a bounded ring.

On top of them, :mod:`repro.obs.slo` grades health as SLO rules (the
serving pack over metrics, the streaming health pack over a miner's
readings) and :mod:`repro.obs.flight` cuts postmortem bundles from the
tracer and logger rings.

Quickstart::

    from repro import obs

    obs.enable()                       # tracing + metrics
    result = repro.mine(relation)
    print(obs.get_registry().to_table())
    obs.get_tracer().to_chrome("trace.json")   # open in chrome://tracing
    obs.disable()

The CLI exposes the same switches: ``repro mine data.csv --trace
trace.json --metrics --log run.jsonl``.  See ``docs/OBSERVABILITY.md``
for the span taxonomy and the full metric catalog.
"""

from __future__ import annotations

from repro.obs.context import (
    RequestContext,
    activate,
    bind,
    current,
    new_trace_id,
)
from repro.obs.flight import (
    FlightRecorder,
    build_metadata,
    disable_flight,
    dump,
    dump_on_error,
    enable_flight,
    flight_enabled,
    get_flight,
)
from repro.obs.log import (
    StructuredLogger,
    debug,
    disable_logging,
    enable_logging,
    error,
    event,
    get_logger,
    info,
    logging_enabled,
    warn,
)
from repro.obs.slo import (
    DEFAULT_PACK,
    HEALTH_PACK,
    HealthCheck,
    HealthReport,
    SLOReport,
    SLOResult,
    SLORule,
    default_pack,
    evaluate_pack,
    load_pack,
    parse_prometheus,
    registry_view,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    inc,
    metrics_enabled,
    observe,
    set_gauge,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_span_id,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "enable",
    "disable",
    "enabled",
    "publish_build_info",
    # health
    "HealthCheck",
    "HealthReport",
    # trace
    "Span",
    "Tracer",
    "span",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "inc",
    "set_gauge",
    "observe",
    # context / correlation
    "RequestContext",
    "new_trace_id",
    "current",
    "activate",
    "bind",
    "current_span_id",
    "current_trace_id",
    # structured logging
    "StructuredLogger",
    "get_logger",
    "enable_logging",
    "disable_logging",
    "logging_enabled",
    "event",
    "debug",
    "info",
    "warn",
    "error",
    # flight recorder / postmortems
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_enabled",
    "get_flight",
    "dump",
    "dump_on_error",
    "build_metadata",
    # SLO rules
    "SLORule",
    "SLOResult",
    "SLOReport",
    "DEFAULT_PACK",
    "HEALTH_PACK",
    "default_pack",
    "evaluate_pack",
    "load_pack",
    "parse_prometheus",
    "registry_view",
]


def publish_build_info() -> None:
    """Register the ``repro_build_info`` gauge (value 1, identity labels).

    Labels carry the package version, git SHA, python and numpy
    versions, so every ``/metrics`` scrape and postmortem bundle says
    exactly which build produced it.  No-op while metrics are disabled.
    """
    if not metrics_enabled():
        return
    get_registry().gauge(
        "repro_build_info",
        "Build identity (constant 1; the labels are the payload)",
        **build_metadata(),
    ).set(1)


def enable(
    *,
    trace: bool = True,
    metrics: bool = True,
    log: bool = False,
) -> None:
    """Switch observability layers on (tracing and metrics by default).

    Tracing and metrics are cheap enough to leave on for whole
    production mines.  ``log=True`` turns on the structured logger with
    its current sink configuration (use :func:`enable_logging` directly
    to pick a level or sink).  Enabling metrics also registers the
    ``repro_build_info`` gauge.
    """
    if trace:
        enable_tracing()
    if metrics:
        enable_metrics()
        publish_build_info()
    if log:
        enable_logging()


def disable() -> None:
    """Switch every observability layer off (recorded data is kept)."""
    disable_tracing()
    disable_metrics()
    disable_logging()


def enabled() -> bool:
    """Whether any observability layer is currently recording."""
    return tracing_enabled() or metrics_enabled() or logging_enabled()
