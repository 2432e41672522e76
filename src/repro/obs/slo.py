"""Declarative SLO rules: the one engine that grades health.

An :class:`SLORule` names a metric, an optional label ``selector``, a
statistic (raw value, histogram quantile, or a ratio against a second
metric), a comparison against a ``threshold``, and a ``severity``.  A
*rule pack* is just a list of rules — loadable from JSON or TOML files.
Two packs ship:

* :data:`DEFAULT_PACK` — the serving stack's objectives (query p99,
  quarantine rate, checkpoint age) over the live metrics registry;
* :data:`HEALTH_PACK` — the streaming miner's slow failure modes (leaf
  entries, threshold escalation, rebuilds, quarantine rate, checkpoint
  age), one warn and one crit rule per signal, evaluated over a plain
  ``{metric: value}`` dict of the miner's readings so health works with
  metrics off.

Rules evaluate against any :class:`MetricsView`: a live
:class:`~repro.obs.metrics.MetricsRegistry` (wrap with
:func:`registry_view`), a saved/scraped Prometheus text exposition
(parse with :func:`parse_prometheus`), or a readings dict, so the same
engine gates a running server's ``/healthz``, the dashboard's SLO panel,
a CI job reading a ``metrics.prom`` artifact via ``repro slo check``,
and ``StreamingDARMiner.health()``.

:meth:`SLOReport.to_health_report` turns verdicts into the one health
row type, :class:`HealthCheck` (``ok`` / ``warn`` / ``crit``), inside a
:class:`HealthReport` that publishes ``repro_health_level{check=...}``
gauges when metrics are on.

A missing metric is not automatically a violation: each rule's
``absent`` policy says whether absence means ``skip`` (default — the
subsystem never ran), ``ok``, or ``violate``.

Example pack entry (JSON)::

    {"name": "serve_query_p99_seconds", "metric": "repro_serve_query_seconds",
     "stat": "p99", "op": "<=", "threshold": 0.5, "severity": "crit"}
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "OK",
    "WARN",
    "CRIT",
    "HealthCheck",
    "HealthReport",
    "SLORule",
    "SLOResult",
    "SLOReport",
    "MetricsView",
    "registry_view",
    "parse_prometheus",
    "evaluate_pack",
    "load_pack",
    "default_pack",
    "DEFAULT_PACK",
    "HEALTH_PACK",
]

_STATS = ("value", "sum", "max", "min", "count", "mean", "p50", "p90", "p99", "ratio")
_OPS = ("<", "<=", ">", ">=", "==", "!=")
_SEVERITIES = ("warn", "crit")
_ABSENT = ("skip", "ok", "violate")

#: Health statuses, ordered by severity (the value is the gauge level).
OK = "ok"
WARN = "warn"
CRIT = "crit"

_LEVELS = {OK: 0, WARN: 1, CRIT: 2}
_STATUS_ORDER = {**_LEVELS, "skip": 0}


@dataclass(frozen=True)
class HealthCheck:
    """One named signal's reading and classification."""

    name: str
    status: str
    value: float
    detail: str = ""

    @property
    def level(self) -> int:
        """Numeric severity: 0=ok, 1=warn, 2=crit (the exported gauge)."""
        return _LEVELS[self.status]

    def describe(self) -> str:
        """One report line, e.g. ``quarantine_rate: WARN (0.02) ...``."""
        text = f"{self.name}: {self.status.upper()} ({self.value:.6g})"
        return f"{text} — {self.detail}" if self.detail else text


@dataclass
class HealthReport:
    """All checks from one evaluation, plus the worst overall status."""

    checks: List[HealthCheck] = field(default_factory=list)

    @property
    def status(self) -> str:
        """Worst status across checks (``ok`` for an empty report)."""
        worst = OK
        for check in self.checks:
            if check.level > _LEVELS[worst]:
                worst = check.status
        return worst

    @property
    def problems(self) -> List[HealthCheck]:
        """The non-``ok`` checks, worst first."""
        flagged = [c for c in self.checks if c.status != OK]
        return sorted(flagged, key=lambda c: -c.level)

    def describe(self) -> str:
        """Multi-line report: overall status, then one line per check."""
        lines = [f"health: {self.status.upper()}"]
        lines.extend(f"  {check.describe()}" for check in self.checks)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Plain built-ins for JSON export and the dashboard."""
        return {
            "status": self.status,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "level": c.level,
                    "value": c.value,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def publish(self) -> None:
        """Export every check as a ``repro_health_level{check=}`` gauge.

        No-op while metrics are disabled, like every emission helper.
        """
        for check in self.checks:
            obs_metrics.set_gauge(
                "repro_health_level",
                check.level,
                help="Health check severity (0=ok, 1=warn, 2=crit)",
                check=check.name,
            )
        obs_metrics.set_gauge(
            "repro_health_worst_level",
            _LEVELS[self.status],
            help="Worst health check severity (0=ok, 1=warn, 2=crit)",
        )


@dataclass(frozen=True)
class SLORule:
    """One service-level objective: ``stat(metric{selector}) op threshold``.

    ``stat`` picks how the matching series collapse to one number:
    ``value``/``sum`` add counter/gauge series, ``max``/``min`` take the
    extreme (right for level gauges like health checks), ``count``/
    ``mean``/``p50``/``p90``/``p99`` read histograms, and ``ratio``
    divides the metric's sum by ``denominator``'s sum.  The rule *holds*
    when the comparison is true; ``severity`` is the health level a
    violation maps to.  ``window_seconds`` is advisory metadata (the
    registry keeps lifetime aggregates); it documents the intended
    evaluation cadence for scrape-based deployments.
    """

    name: str
    metric: str
    threshold: float
    stat: str = "value"
    selector: Mapping[str, str] = field(default_factory=dict)
    op: str = "<="
    severity: str = "crit"
    denominator: Optional[str] = None
    window_seconds: Optional[float] = None
    description: str = ""
    absent: str = "skip"

    def __post_init__(self) -> None:
        if self.stat not in _STATS:
            raise ValueError(f"rule {self.name!r}: unknown stat {self.stat!r}")
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: severity must be one of {_SEVERITIES}"
            )
        if self.absent not in _ABSENT:
            raise ValueError(
                f"rule {self.name!r}: absent must be one of {_ABSENT}"
            )
        if self.stat == "ratio" and not self.denominator:
            raise ValueError(f"rule {self.name!r}: stat 'ratio' needs a denominator")

    def to_dict(self) -> Dict[str, Any]:
        """The rule as plain built-ins (the pack-file row)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
            "severity": self.severity,
            "absent": self.absent,
        }
        if self.selector:
            out["selector"] = dict(self.selector)
        if self.denominator:
            out["denominator"] = self.denominator
        if self.window_seconds is not None:
            out["window_seconds"] = self.window_seconds
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "SLORule":
        """Build a rule from a pack-file row (unknown keys rejected)."""
        known = {
            "name", "metric", "stat", "selector", "op", "threshold",
            "severity", "denominator", "window_seconds", "description",
            "absent",
        }
        extra = set(row) - known
        if extra:
            raise ValueError(
                f"SLO rule {row.get('name', '?')!r}: unknown keys {sorted(extra)}"
            )
        if "name" not in row or "metric" not in row or "threshold" not in row:
            raise ValueError(
                f"SLO rule {row.get('name', '?')!r}: 'name', 'metric' and "
                f"'threshold' are required"
            )
        return cls(
            name=str(row["name"]),
            metric=str(row["metric"]),
            threshold=float(row["threshold"]),
            stat=str(row.get("stat", "value")),
            selector=dict(row.get("selector", {})),
            op=str(row.get("op", "<=")),
            severity=str(row.get("severity", "crit")),
            denominator=row.get("denominator"),
            window_seconds=(
                None if row.get("window_seconds") is None
                else float(row["window_seconds"])
            ),
            description=str(row.get("description", "")),
            absent=str(row.get("absent", "skip")),
        )


@dataclass(frozen=True)
class SLOResult:
    """One rule's verdict: the measured value and the resulting status."""

    rule: SLORule
    value: Optional[float]
    status: str  # ok | warn | crit | skip
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True when the rule held (or was skipped for an absent metric)."""
        return self.status in ("ok", "skip")

    def to_dict(self) -> Dict[str, Any]:
        """The result as plain built-ins (for /healthz and reports)."""
        return {
            "rule": self.rule.name,
            "metric": self.rule.metric,
            "stat": self.rule.stat,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "value": self.value,
            "status": self.status,
            "detail": self.detail,
        }

    def describe(self) -> str:
        """One human-readable verdict line."""
        shown = "absent" if self.value is None else f"{self.value:.6g}"
        return (
            f"[{self.status:>4}] {self.rule.name}: "
            f"{self.rule.stat}({self.rule.metric}) = {shown} "
            f"(want {self.rule.op} {self.rule.threshold:g})"
        )


class SLOReport:
    """The verdicts of one pack evaluation, with health/exit adapters."""

    def __init__(self, results: Sequence[SLOResult]):
        self.results = list(results)

    @property
    def status(self) -> str:
        """Worst status across all rules: ok < warn < crit."""
        worst = OK
        for result in self.results:
            if _STATUS_ORDER[result.status] > _STATUS_ORDER[worst]:
                worst = result.status
        return worst

    def violations(self) -> List[SLOResult]:
        """Results whose rule did not hold (warn or crit)."""
        return [r for r in self.results if r.status in ("warn", "crit")]

    def to_dict(self) -> Dict[str, Any]:
        """The report as plain built-ins (the /healthz ``slo`` payload)."""
        return {
            "status": self.status,
            "results": [result.to_dict() for result in self.results],
        }

    def to_health_checks(
        self, prefix: str = "slo:", skipped: bool = True
    ) -> List[HealthCheck]:
        """The verdicts as health rows named ``<prefix><rule>``.

        Rules that share a name (one signal's warn and crit rules) fold
        into one row showing the worse verdict.  A skipped rule reads
        ``ok``; with ``skipped=False`` it has no row at all (a signal
        with no reading, like checkpoint age on a run that never
        checkpoints).
        """
        by_name: Dict[str, List[SLOResult]] = {}
        for result in self.results:
            by_name.setdefault(result.rule.name, []).append(result)
        checks = []
        for name, results in by_name.items():
            worst = max(results, key=lambda r: _STATUS_ORDER[r.status])
            if worst.status == "skip" and not skipped:
                continue
            detail = "; ".join(
                part for part in (worst.rule.description, worst.detail) if part
            )
            checks.append(
                HealthCheck(
                    name=prefix + name,
                    status=OK if worst.status == "skip" else worst.status,
                    value=float("nan") if worst.value is None else worst.value,
                    detail=detail or worst.describe(),
                )
            )
        return checks

    def to_health_report(
        self, prefix: str = "slo:", skipped: bool = True
    ) -> HealthReport:
        """The verdicts wrapped as a :class:`HealthReport`."""
        return HealthReport(checks=self.to_health_checks(prefix, skipped))

    def describe(self) -> str:
        """One verdict line per rule plus a worst-status footer."""
        lines = [result.describe() for result in self.results]
        lines.append(f"slo status: {self.status}")
        return "\n".join(lines)

    def exit_code(self, fail_on: str = "crit") -> int:
        """0 when healthy, 1 when status reaches ``fail_on`` (warn|crit)."""
        if fail_on not in ("warn", "crit"):
            raise ValueError("fail_on must be 'warn' or 'crit'")
        return 1 if _STATUS_ORDER[self.status] >= _STATUS_ORDER[fail_on] else 0


# ----------------------------------------------------------------------
# Metric views: one read API over a live registry or scraped text
# ----------------------------------------------------------------------


class MetricsView:
    """Read-only view the rule engine evaluates against.

    ``series(metric, selector)`` returns the matching scalar series
    values (empty list when the metric is absent) and
    ``histogram(metric, selector)`` the merged cumulative buckets of
    the matching histogram series, or ``None``.
    """

    def series(self, metric: str, selector: Mapping[str, str]) -> List[float]:
        """Scalar (counter/gauge) values of every series matching the selector."""
        raise NotImplementedError

    def histogram(
        self, metric: str, selector: Mapping[str, str]
    ) -> Optional[Tuple[List[Tuple[float, float]], float, float]]:
        """``(cumulative_buckets, count, sum)`` merged over matching series."""
        raise NotImplementedError


def _matches(labels: Mapping[str, str], selector: Mapping[str, str]) -> bool:
    return all(labels.get(key) == value for key, value in selector.items())


class _RegistryView(MetricsView):
    """A view over a live in-process :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry

    def series(self, metric: str, selector: Mapping[str, str]) -> List[float]:
        """Matching counter/gauge values straight from the registry."""
        values: List[float] = []
        for item in self._registry.metrics():
            if item.name != metric or isinstance(item, Histogram):
                continue
            if _matches(dict(item.labels), selector):
                values.append(float(item.value))
        return values

    def histogram(
        self, metric: str, selector: Mapping[str, str]
    ) -> Optional[Tuple[List[Tuple[float, float]], float, float]]:
        """Matching histogram series merged into one bucket set."""
        merged: Dict[float, float] = {}
        count = 0.0
        total = 0.0
        found = False
        for item in self._registry.metrics():
            if item.name != metric or not isinstance(item, Histogram):
                continue
            if not _matches(dict(item.labels), selector):
                continue
            found = True
            for bound, cumulative in item.cumulative_buckets():
                merged[bound] = merged.get(bound, 0.0) + cumulative
            count += item.count
            total += item.sum
        if not found:
            return None
        buckets = sorted(merged.items())
        return buckets, count, total


def registry_view(registry: Optional[MetricsRegistry] = None) -> MetricsView:
    """A :class:`MetricsView` over ``registry`` (default: the process one)."""
    if registry is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
    return _RegistryView(registry)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="([^"]*)"')


class _PromView(MetricsView):
    """A view over parsed Prometheus text exposition samples."""

    def __init__(self, samples: Dict[str, List[Tuple[Dict[str, str], float]]]):
        self._samples = samples

    def series(self, metric: str, selector: Mapping[str, str]) -> List[float]:
        """Matching scalar sample values from the parsed exposition."""
        return [
            value
            for labels, value in self._samples.get(metric, [])
            if _matches(labels, selector)
        ]

    def histogram(
        self, metric: str, selector: Mapping[str, str]
    ) -> Optional[Tuple[List[Tuple[float, float]], float, float]]:
        """Histogram rebuilt from ``_bucket``/``_sum``/``_count`` samples."""
        bucket_rows = self._samples.get(metric + "_bucket", [])
        merged: Dict[float, float] = {}
        found = False
        for labels, value in bucket_rows:
            le = labels.get("le")
            if le is None:
                continue
            rest = {k: v for k, v in labels.items() if k != "le"}
            if not _matches(rest, selector):
                continue
            found = True
            bound = float("inf") if le in ("+Inf", "inf") else float(le)
            merged[bound] = merged.get(bound, 0.0) + value
        if not found:
            return None
        count = sum(self.series(metric + "_count", selector))
        total = sum(self.series(metric + "_sum", selector))
        return sorted(merged.items()), count, total


def parse_prometheus(text: str) -> MetricsView:
    """Parse a Prometheus text exposition into a :class:`MetricsView`.

    Understands the subset :meth:`MetricsRegistry.to_prometheus` emits
    (and what real scrapes of this server produce): ``# HELP``/``# TYPE``
    comments, plain samples, and histogram ``_bucket``/``_sum``/``_count``
    rows.  Unparseable lines are skipped.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        samples.setdefault(match.group("name"), []).append((labels, value))
    return _PromView(samples)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def _quantile(buckets: List[Tuple[float, float]], q: float) -> Optional[float]:
    """Upper-bound quantile estimate from cumulative histogram buckets."""
    if not buckets:
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    for bound, cumulative in buckets:
        if cumulative >= rank:
            return bound
    return buckets[-1][0]


def _compare(value: float, op: str, threshold: float) -> bool:
    if op == "<":
        return value < threshold
    if op == "<=":
        return value <= threshold
    if op == ">":
        return value > threshold
    if op == ">=":
        return value >= threshold
    if op == "==":
        return value == threshold
    return value != threshold


def _measure(rule: SLORule, view: MetricsView) -> Tuple[Optional[float], str]:
    """The rule's measured value, or ``(None, why)`` when absent."""
    if rule.stat in ("value", "sum", "max", "min"):
        values = view.series(rule.metric, rule.selector)
        if not values:
            return None, f"metric {rule.metric} absent"
        if rule.stat == "max":
            return max(values), ""
        if rule.stat == "min":
            return min(values), ""
        return float(sum(values)), ""
    if rule.stat == "ratio":
        assert rule.denominator is not None
        numerator = view.series(rule.metric, rule.selector)
        denominator = view.series(rule.denominator, {})
        if not numerator and not denominator:
            return None, f"metrics {rule.metric} and {rule.denominator} absent"
        num = float(sum(numerator))
        den = float(sum(denominator))
        if den == 0:
            return (0.0, "") if num == 0 else (math.inf, "zero denominator")
        return num / den, ""
    histogram = view.histogram(rule.metric, rule.selector)
    if histogram is None:
        return None, f"histogram {rule.metric} absent"
    buckets, count, total = histogram
    if rule.stat == "count":
        return float(count), ""
    if count <= 0:
        return None, f"histogram {rule.metric} has no samples"
    if rule.stat == "mean":
        return total / count, ""
    quantile = _quantile(buckets, {"p50": 0.50, "p90": 0.90, "p99": 0.99}[rule.stat])
    if quantile is None:
        return None, f"histogram {rule.metric} has no samples"
    return quantile, ""


def _evaluate_rule(rule: SLORule, view: MetricsView) -> SLOResult:
    value, why = _measure(rule, view)
    if value is None:
        if rule.absent == "skip":
            return SLOResult(rule, None, "skip", why)
        if rule.absent == "ok":
            return SLOResult(rule, None, "ok", why)
        return SLOResult(rule, None, rule.severity, why)
    if _compare(value, rule.op, rule.threshold):
        return SLOResult(rule, value, "ok")
    detail = (
        f"{rule.stat}({rule.metric}) = {value:.6g}, "
        f"violates {rule.op} {rule.threshold:g}"
    )
    return SLOResult(rule, value, rule.severity, detail)


def evaluate_pack(
    rules: Sequence[SLORule],
    view: Union[MetricsView, MetricsRegistry, Mapping[str, float], None] = None,
) -> SLOReport:
    """Evaluate every rule against ``view`` and return the report.

    ``view`` may be a :class:`MetricsView`, a raw
    :class:`MetricsRegistry`, ``None`` for the process registry, or a
    plain ``{metric: value}`` dict of unlabelled readings.
    """
    if view is None or isinstance(view, MetricsRegistry):
        view = registry_view(view)
    elif isinstance(view, Mapping):
        view = _PromView(
            {metric: [({}, float(value))] for metric, value in view.items()}
        )
    return SLOReport([_evaluate_rule(rule, view) for rule in rules])


# ----------------------------------------------------------------------
# Packs: defaults plus JSON/TOML loading
# ----------------------------------------------------------------------

#: The shipped serving defaults: one rule per failure mode the metric
#: catalog can already see.  All use ``absent="skip"`` so the pack passes
#: cleanly for deployments that never exercised a subsystem.
DEFAULT_PACK: Tuple[SLORule, ...] = (
    SLORule(
        name="serve_query_p99_seconds",
        metric="repro_serve_query_seconds",
        stat="p99",
        op="<=",
        threshold=0.5,
        severity="crit",
        window_seconds=300.0,
        description="99th-percentile uncached query latency stays under 500ms",
    ),
    SLORule(
        name="quarantine_rate",
        metric="repro_quarantined_rows_total",
        stat="ratio",
        denominator="repro_rows_ok_total",
        op="<=",
        # quarantined <= ok / 19  <=>  quarantined <= 5% of rows seen.
        threshold=1 / 19,
        severity="warn",
        window_seconds=3600.0,
        description="Quarantined rows stay at or under 5% of rows seen",
    ),
    SLORule(
        name="checkpoint_age_ok",
        metric="repro_health_level",
        selector={"check": "checkpoint_age"},
        stat="max",
        op="<=",
        threshold=1.0,
        severity="warn",
        window_seconds=3600.0,
        description="Checkpoint age has not reached CRIT in the health report",
    ),
)


def _signal(
    name: str, metric: str, warn: float, crit: float, description: str, **extra: Any
) -> List[SLORule]:
    """One health signal's warn and crit rules: each holds below its bound."""
    return [
        SLORule(
            name=name, metric=metric, threshold=bound, op="<",
            severity=severity, description=description, **extra,
        )
        for severity, bound in (("warn", warn), ("crit", crit))
    ]


#: The streaming miner's health signals, evaluated by
#: ``StreamingDARMiner.health()`` and ``repro mine --stats`` over a dict
#: of readings.  The bands suit the library's own workloads: trees under
#: memory budgets hold hundreds-to-thousands of leaf entries, the
#: quarantine crit band is the CLI's default 5% error budget, and the
#: checkpoint-age bands assume a cadence of minutes, not hours.  Checkpoint
#: age is only read while checkpointing; without it the row is skipped.
HEALTH_PACK: Tuple[SLORule, ...] = (
    *_signal(
        "leaf_entries", "repro_phase1_entry_count", 10_000, 50_000,
        "leaf entries summed over every partition's tree",
    ),
    *_signal(
        "threshold_escalation", "repro_phase1_threshold_inflation", 4.0, 32.0,
        "density threshold inflation vs the first batch "
        "(memory-pressure rebuilds coarsen summaries)",
        stat="max",
    ),
    *_signal(
        "rebuilds", "repro_phase1_rebuilds_total", 5, 25,
        "tree rebuilds across partitions",
    ),
    *_signal(
        "quarantine_rate", "repro_quarantined_rows_total", 0.01, 0.05,
        "share of rows seen that were quarantined",
        stat="ratio", denominator="repro_rows_seen_total",
    ),
    *_signal(
        "checkpoint_age", "repro_checkpoint_age_seconds", 300.0, 1800.0,
        "seconds since the last successful checkpoint",
    ),
)


def default_pack() -> List[SLORule]:
    """A fresh mutable copy of :data:`DEFAULT_PACK`."""
    return list(DEFAULT_PACK)


def _rules_from_document(document: Any, source: str) -> List[SLORule]:
    if isinstance(document, Mapping):
        rows = document.get("rules", document.get("rule"))
        if rows is None:
            raise ValueError(f"{source}: pack has no 'rules' list")
    else:
        rows = document
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{source}: 'rules' must be a list of rule tables")
    return [SLORule.from_dict(row) for row in rows]


def load_pack(path: Union[str, Path]) -> List[SLORule]:
    """Load a rule pack from a ``.json`` or ``.toml`` file.

    JSON packs are either a bare list of rule objects or
    ``{"rules": [...]}``.  TOML packs use ``[[rules]]`` tables and need
    Python 3.11+ (stdlib ``tomllib``); on older interpreters the error
    says to use the JSON form instead.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ValueError(
                f"{path}: TOML rule packs need Python 3.11+ (tomllib); "
                f"convert the pack to JSON for older interpreters"
            ) from None
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ValueError(f"{path}: invalid TOML: {error}") from error
    else:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: invalid JSON: {error}") from error
    return _rules_from_document(document, str(path))
