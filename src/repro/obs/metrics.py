"""Process-wide counters, gauges and histograms with Prometheus export.

A :class:`MetricsRegistry` holds named metrics, optionally labeled
(``repro_phase1_points_total{partition="age"}``), and renders them two
ways: :meth:`MetricsRegistry.to_prometheus` emits the Prometheus text
exposition format a scraper would ingest, and
:meth:`MetricsRegistry.to_table` a human-readable table (what the CLI
``--metrics`` flag prints).

Instrumentation sites go through the module-level helpers —
:func:`inc`, :func:`set_gauge`, :func:`observe` — which are no-ops until
:func:`enable_metrics` is called, so the disabled-mode cost is one
boolean check per call site (gated, together with tracing, by
``benchmarks/test_perf_obs_overhead.py``).  Code that *reads* metrics
(tests, the CLI table) talks to :func:`get_registry` directly.

Naming follows Prometheus conventions: ``repro_`` prefix, ``_total``
suffix on counters, base units (seconds, bytes) in the name.  The full
catalog of metrics the library emits is documented in
``docs/OBSERVABILITY.md``.

All mutation is thread-safe: the registry guards get-or-create with one
lock and every metric guards its own state, so concurrent scans can
share counters without losing increments.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
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
]

Number = Union[int, float]

#: Default histogram bucket upper bounds: half-decade steps covering
#: microseconds-to-minutes timings and bytes-to-gigabytes sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4,
    1e5, 1e6, 1e7, 1e8, 1e9,
)


def _format_value(value: Number) -> str:
    """A number in Prometheus text form (integers without a trailing .0)."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    """Common identity (name, labels, help, unit) of one registered metric."""

    kind = "untyped"

    def __init__(self, name: str, labels: Mapping[str, str], help: str, unit: str):
        self.name = name
        self.labels: Tuple[Tuple[str, str], ...] = tuple(sorted(labels.items()))
        self.help = help
        self.unit = unit
        self._lock = threading.Lock()

    @property
    def label_suffix(self) -> str:
        """``{k="v",...}`` or the empty string for unlabeled metrics."""
        if not self.labels:
            return ""
        inner = ",".join(f'{key}="{value}"' for key, value in self.labels)
        return "{" + inner + "}"

    @property
    def full_name(self) -> str:
        """Name plus label suffix — the table/snapshot row key."""
        return self.name + self.label_suffix


class Counter(_Metric):
    """A monotonically increasing count (rows ingested, splits, bytes)."""

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str], help: str, unit: str):
        super().__init__(name, labels, help, unit)
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        """Current monotone total (read under the metric's lock)."""
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A point-in-time value that can move both ways (threshold, tree size)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str], help: str, unit: str):
        super().__init__(name, labels, help, unit)
        self._value: Number = 0

    def set(self, value: Number) -> None:
        """Replace the value."""
        with self._lock:
            self._value = value

    def add(self, amount: Number) -> None:
        """Shift the value by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        """Current value (read under the metric's lock)."""
        with self._lock:
            return self._value


class Histogram(_Metric):
    """A distribution summarized by cumulative buckets, count and sum."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        help: str,
        unit: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels, help, unit)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +inf bucket last
        self._count = 0
        self._sum = 0.0

    def observe(self, value: Number) -> None:
        """Record one sample."""
        with self._lock:
            self._count += 1
            self._sum += value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1
                    break
            else:
                self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        """Number of samples observed (read under the metric's lock)."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed samples (read under the metric's lock)."""
        with self._lock:
            return self._sum

    @property
    def value(self) -> Dict[str, float]:
        """Snapshot summary used by tables: count, sum, mean.

        Count and sum are read under one lock acquisition so the mean is
        always computed from a consistent pair, even while other threads
        are observing samples.
        """
        with self._lock:
            count = self._count
            total = self._sum
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ending at ``+inf``."""
        with self._lock:
            counts = list(self._bucket_counts)
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, counts):
            running += bucket_count
            rows.append((bound, running))
        rows.append((float("inf"), running + counts[-1]))
        return rows

    def merge_state(self, bucket_counts: Sequence[int], count: int, total: float) -> None:
        """Fold another histogram's raw state into this one.

        The incoming state must come from a histogram with the same
        bucket bounds (``len(bucket_counts) == len(bounds) + 1``); this is
        how per-worker distributions are combined after a parallel run.
        """
        if len(bucket_counts) != len(self._bucket_counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(bucket_counts)} bucket "
                f"counts into {len(self._bucket_counts)} buckets (bounds differ)"
            )
        with self._lock:
            for index, bucket_count in enumerate(bucket_counts):
                self._bucket_counts[index] += bucket_count
            self._count += count
            self._sum += total


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by name plus label set.

    Re-requesting a metric with the same name and labels returns the same
    object; requesting an existing name as a different metric kind raises
    ``ValueError`` (one name, one type — the Prometheus data model).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Metric] = {}
        self._kinds: Dict[str, str] = {}

    def _get_or_create(self, cls, name: str, help: str, unit: str, labels, **extra):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} is already registered as a {kind}, "
                        f"cannot re-register as a {cls.kind}"
                    )
                metric = cls(name, labels, help, unit, **extra)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r}{dict(labels)!r} is a {metric.kind}, "
                    f"not a {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", unit: str = "", **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get_or_create(Counter, name, help, unit, labels)

    def gauge(self, name: str, help: str = "", unit: str = "", **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get_or_create(Gauge, name, help, unit, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get_or_create(Histogram, name, help, unit, labels, buckets=buckets)

    # -- inspection -----------------------------------------------------

    def metrics(self) -> List[_Metric]:
        """All registered metrics, sorted by full name (a snapshot copy)."""
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.full_name)

    def get(self, name: str, **labels: str) -> Optional[_Metric]:
        """The metric registered under ``name`` + ``labels``, or ``None``."""
        with self._lock:
            return self._metrics.get((name, tuple(sorted(labels.items()))))

    def value(self, name: str, default: Number = 0, **labels: str) -> Any:
        """Shortcut: the metric's value, or ``default`` if unregistered."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else default

    def snapshot(self) -> Dict[str, Any]:
        """``full_name -> value`` for every registered metric."""
        return {metric.full_name: metric.value for metric in self.metrics()}

    def export_state(self) -> Dict[str, Any]:
        """A picklable/JSON-safe dump of every metric's raw state.

        This is the wire format a parallel worker ships back to the
        coordinator: enough to re-register each metric (name, labels,
        help, unit, kind) plus the raw values :meth:`merge` folds in.
        """
        entries: List[Dict[str, Any]] = []
        for metric in self.metrics():
            entry: Dict[str, Any] = {
                "kind": metric.kind,
                "name": metric.name,
                "labels": dict(metric.labels),
                "help": metric.help,
                "unit": metric.unit,
            }
            if isinstance(metric, Histogram):
                with metric._lock:
                    entry["bounds"] = list(metric.bounds)
                    entry["bucket_counts"] = list(metric._bucket_counts)
                    entry["count"] = metric._count
                    entry["sum"] = metric._sum
            else:
                entry["value"] = metric.value
            entries.append(entry)
        return {"metrics": entries}

    def merge(self, state: Mapping[str, Any]) -> None:
        """Fold an :meth:`export_state` dump into this registry.

        Counters and histograms are additive (per the same reasoning as
        the ACF Additivity Theorem: each worker observed a disjoint slice
        of the work), so their values/bucket counts add.  Gauges are
        point-in-time readings, so the incoming value wins — callers that
        need per-worker gauges should label them (e.g. ``worker="3"``).
        """
        for entry in state.get("metrics", []):
            kind = entry["kind"]
            name = entry["name"]
            labels = dict(entry.get("labels", {}))
            help = entry.get("help", "")
            unit = entry.get("unit", "")
            if kind == "counter":
                self.counter(name, help, unit, **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name, help, unit, **labels).set(entry["value"])
            elif kind == "histogram":
                histogram = self.histogram(
                    name, help, unit, buckets=entry["bounds"], **labels
                )
                if list(histogram.bounds) != [float(b) for b in entry["bounds"]]:
                    raise ValueError(
                        f"histogram {name!r}: incoming bucket bounds differ from "
                        f"the registered ones"
                    )
                histogram.merge_state(
                    entry["bucket_counts"], entry["count"], entry["sum"]
                )
            else:
                raise ValueError(f"cannot merge unknown metric kind {kind!r}")

    def reset(self) -> None:
        """Forget every metric (tests and fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- rendering ------------------------------------------------------

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        by_name: Dict[str, List[_Metric]] = {}
        for metric in self.metrics():
            by_name.setdefault(metric.name, []).append(metric)
        lines: List[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            head = group[0]
            if head.help:
                lines.append(f"# HELP {name} {head.help}")
            lines.append(f"# TYPE {name} {head.kind}")
            for metric in group:
                if isinstance(metric, Histogram):
                    for bound, cumulative in metric.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        labels = dict(metric.labels)
                        labels["le"] = le
                        inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
                        lines.append(f"{name}_bucket{{{inner}}} {cumulative}")
                    lines.append(f"{name}_sum{metric.label_suffix} {_format_value(metric.sum)}")
                    lines.append(f"{name}_count{metric.label_suffix} {metric.count}")
                else:
                    lines.append(
                        f"{metric.full_name} {_format_value(metric.value)}"  # type: ignore[arg-type]
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_table(self) -> str:
        """A human-readable, aligned ``metric / type / value`` table."""
        rows: List[Tuple[str, str, str]] = []
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                value = (
                    f"count={metric.count} sum={_format_value(round(metric.sum, 6))} "
                    f"mean={metric.value['mean']:.6g}"
                )
            else:
                raw = metric.value
                value = _format_value(round(raw, 6) if isinstance(raw, float) else raw)
            rows.append((metric.full_name, metric.kind, value))
        if not rows:
            return "(no metrics recorded)"
        name_width = max(len(row[0]) for row in rows)
        kind_width = max(len(row[1]) for row in rows)
        return "\n".join(
            f"{name:<{name_width}}  {kind:<{kind_width}}  {value}"
            for name, kind, value in rows
        )


_enabled = False
_registry = MetricsRegistry()


def metrics_enabled() -> bool:
    """Whether the emission helpers currently record anything."""
    return _enabled


def enable_metrics() -> MetricsRegistry:
    """Turn metric emission on; returns the process registry."""
    global _enabled
    _enabled = True
    return _registry


def disable_metrics() -> None:
    """Turn metric emission off (already-recorded metrics are kept)."""
    global _enabled
    _enabled = False


def get_registry() -> MetricsRegistry:
    """The process-wide registry (readable whether or not emission is on)."""
    return _registry


def inc(name: str, amount: Number = 1, help: str = "", unit: str = "", **labels: str) -> None:
    """Increment counter ``name`` by ``amount`` — no-op while disabled."""
    if not _enabled:
        return
    _registry.counter(name, help, unit, **labels).inc(amount)


def set_gauge(name: str, value: Number, help: str = "", unit: str = "", **labels: str) -> None:
    """Set gauge ``name`` to ``value`` — no-op while disabled."""
    if not _enabled:
        return
    _registry.gauge(name, help, unit, **labels).set(value)


def observe(name: str, value: Number, help: str = "", unit: str = "", **labels: str) -> None:
    """Record one histogram sample — no-op while disabled."""
    if not _enabled:
        return
    _registry.histogram(name, help, unit, **labels).observe(value)
