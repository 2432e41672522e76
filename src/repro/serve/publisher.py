"""Atomic snapshot publication for non-blocking readers.

A :class:`SnapshotPublisher` owns the *current* query engine.  Publishing
compiles the new snapshot and engine completely off to the side and then
installs them with a single attribute store — the only write readers can
observe.  Readers grab that reference once per query, so a query started
against version N finishes against version N even if version N+1 lands
mid-flight; there are no locks on the read path and no torn states.

Feed it from a live :class:`~repro.core.streaming.StreamingDARMiner` via
:meth:`refresh` (absorb a batch, re-publish), from batch mining results,
or from checkpoint files — anything :func:`~repro.serve.snapshot.compile_snapshot`
accepts.  Versions are assigned monotonically by the publisher, and every
swap updates the ``repro_serve_snapshot_*`` gauges.

**Failure visibility.**  A publish that dies mid-compile leaves the old
snapshot serving — and leaves a record: the failure's timestamp, error
class and message appear in :meth:`SnapshotPublisher.to_dict` and as a
WARN check in :meth:`SnapshotPublisher.health`, so "the refresh silently
stopped working an hour ago" is a page, not an archaeology project.

**Staleness.**  A :class:`StalenessPolicy` grace window degrades health
ok → warn → crit as the served snapshot ages past its expected refresh
cadence, so a refresh loop that stopped is a page, not a surprise.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs.slo import CRIT, OK, WARN, HealthCheck, HealthReport
from repro.obs.trace import span
from repro.resilience import faults
from repro.serve.query import QueryAnswer, QueryEngine, RuleQuery
from repro.serve.snapshot import RuleSnapshot, compile_snapshot

__all__ = ["StalenessPolicy", "SnapshotPublisher"]


@dataclass(frozen=True)
class StalenessPolicy:
    """The grace window before a served snapshot's age degrades health.

    ``warn_after_seconds`` and ``crit_after_seconds`` bound the ok →
    warn → crit ladder; pick them as small multiples of the refresh
    cadence (e.g. 3x and 10x) so one missed refresh warns and a dead
    refresh loop eventually pages.
    """

    warn_after_seconds: float = 300.0
    crit_after_seconds: float = 1800.0

    def __post_init__(self) -> None:
        if self.warn_after_seconds <= 0:
            raise ValueError("warn_after_seconds must be positive")
        if self.crit_after_seconds < self.warn_after_seconds:
            raise ValueError("crit_after_seconds must be >= warn_after_seconds")

    def grade(self, age_seconds: float) -> str:
        """``ok``/``warn``/``crit`` for a snapshot of the given age."""
        if age_seconds >= self.crit_after_seconds:
            return CRIT
        if age_seconds >= self.warn_after_seconds:
            return WARN
        return OK


class SnapshotPublisher:
    """Serves queries against an atomically swappable rule snapshot.

    ``source`` (optional) is published immediately; otherwise the
    publisher starts empty and :meth:`query` raises until the first
    :meth:`publish`.  A lock serializes concurrent *publishers* (version
    assignment stays monotone); readers never take it.  ``staleness``
    (optional) grades snapshot age in :meth:`health`; ``clock`` is the
    wall-time reading (epoch seconds) behind publish stamps and ages.
    """

    def __init__(
        self,
        source: Any = None,
        *,
        cache_size: int = 256,
        staleness: Optional[StalenessPolicy] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.cache_size = cache_size
        self.staleness = staleness
        self._clock = clock
        self._engine: Optional[QueryEngine] = None
        self._publish_lock = threading.Lock()
        self._versions = itertools.count(1)
        self._published_at: Optional[float] = None
        self._last_failure: Optional[Dict[str, Any]] = None
        self._failures_total = 0
        if source is not None:
            self.publish(source)

    # ------------------------------------------------------------------
    # Read path — lock-free
    # ------------------------------------------------------------------

    @property
    def engine(self) -> Optional[QueryEngine]:
        """The current query engine (``None`` before the first publish)."""
        return self._engine

    @property
    def snapshot(self) -> Optional[RuleSnapshot]:
        """The current snapshot (``None`` before the first publish)."""
        engine = self._engine
        return engine.snapshot if engine is not None else None

    @property
    def version(self) -> int:
        """The published snapshot version (0 before the first publish)."""
        snapshot = self.snapshot
        return snapshot.version if snapshot is not None else 0

    @property
    def last_failure(self) -> Optional[Dict[str, Any]]:
        """The most recent failed publish attempt (``None`` if none ever).

        ``{"at": epoch_seconds, "error": class_name, "message": str}`` —
        recorded even when (especially when) the previous snapshot kept
        serving, and cleared by the next successful publish.
        """
        return self._last_failure

    def query(self, query: Optional[RuleQuery] = None, **kwargs) -> QueryAnswer:
        """Answer against the currently published snapshot.

        Captures the engine reference once, so the answer is internally
        consistent even if a swap happens concurrently.  Raises
        ``RuntimeError`` while nothing is published yet.
        """
        engine = self._engine
        if engine is None:
            raise RuntimeError("no snapshot published yet")
        return engine.query(query, **kwargs)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def publish(self, source: Any) -> RuleSnapshot:
        """Compile ``source`` and swap it in; returns the new snapshot.

        The compile (the expensive part) runs under the publish lock but
        readers never wait on it — they keep answering from the previous
        engine until the final attribute store below.  A compile failure
        leaves the old snapshot serving, records itself (see
        :attr:`last_failure`) and re-raises.
        """
        with span("serve.publish") as publish_span, self._publish_lock:
            version = next(self._versions)
            try:
                snapshot = compile_snapshot(
                    source, version=version, existing_version=version
                )
            except Exception as error:
                self._record_failure(error)
                raise
            self.swap(snapshot)
        seconds = publish_span.seconds
        if obs_metrics.metrics_enabled():
            obs_metrics.observe(
                "repro_serve_publish_seconds",
                seconds,
                help="Snapshot compile+swap latency per publish",
                unit="seconds",
            )
        obs_log.info(
            "serve.publish",
            version=snapshot.version,
            n_rules=snapshot.n_rules,
            seconds=round(seconds, 6),
        )
        return snapshot

    def _record_failure(self, error: BaseException) -> None:
        """Remember a failed publish so health/status can surface it."""
        self._failures_total += 1
        self._last_failure = {
            "at": self._clock(),
            "error": type(error).__name__,
            "message": str(error),
        }
        if obs_metrics.metrics_enabled():
            obs_metrics.inc(
                "repro_serve_publish_failures_total",
                help="Publish attempts that failed mid-compile, by error class",
                error=type(error).__name__,
            )
        obs_log.error(
            "serve.publish_failed",
            error=type(error).__name__,
            message=str(error),
            failures_total=self._failures_total,
        )

    def swap(self, snapshot: RuleSnapshot) -> None:
        """Install a pre-built snapshot: one attribute store, no reader locks."""
        engine = QueryEngine(snapshot, cache_size=self.cache_size)
        self._engine = engine  # the atomic swap readers observe
        self._published_at = self._clock()
        self._last_failure = None
        if obs_metrics.metrics_enabled():
            obs_metrics.inc(
                "repro_serve_publishes_total", help="Snapshot swaps performed"
            )
            obs_metrics.set_gauge(
                "repro_serve_snapshot_version",
                snapshot.version,
                help="Version of the currently served rule snapshot",
            )
            obs_metrics.set_gauge(
                "repro_serve_snapshot_rules",
                snapshot.n_rules,
                help="Rules held by the currently served snapshot",
            )

    def refresh(self, miner) -> RuleSnapshot:
        """Re-publish from a streaming miner's current rule set.

        The ``publisher.refresh`` fault point fires first, so the chaos
        suite can fail or delay exactly this path; a failure inside
        ``miner.rules()`` is recorded like any other publish failure.
        """
        try:
            faults.fire("publisher.refresh")
            source = miner.rules()
        except Exception as error:
            self._record_failure(error)
            raise
        return self.publish(source)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def snapshot_age_seconds(self) -> Optional[float]:
        """Seconds since the last swap (``None`` before the first)."""
        if self._published_at is None:
            return None
        return max(0.0, self._clock() - self._published_at)

    def health(self) -> HealthReport:
        """A serve-side :class:`~repro.obs.slo.HealthReport`.

        ``snapshot_published`` is the only gating check (CRIT while
        nothing is served — the ``/healthz`` 503 condition).  With a
        :class:`StalenessPolicy` the age check degrades ok → warn →
        crit through the grace window; a recorded publish failure
        surfaces as WARN so operators see a broken refresh long before
        the snapshot is stale enough to page.  The rest are informational readings a scraper can trend.
        """
        report = HealthReport()
        snapshot = self.snapshot
        if snapshot is None:
            report.checks.append(
                HealthCheck(
                    "snapshot_published", CRIT, 0.0, "no snapshot published yet"
                )
            )
            self._append_failure_check(report)
            return report
        report.checks.append(
            HealthCheck(
                "snapshot_published",
                OK,
                float(snapshot.version),
                f"serving snapshot v{snapshot.version} "
                f"({snapshot.n_rules} rules)",
            )
        )
        age = self.snapshot_age_seconds() or 0.0
        if self.staleness is not None:
            status = self.staleness.grade(age)
            detail = (
                f"seconds since the last snapshot swap (warn at "
                f"{self.staleness.warn_after_seconds:g}s, crit at "
                f"{self.staleness.crit_after_seconds:g}s)"
            )
        else:
            status, detail = OK, "seconds since the last snapshot swap"
        report.checks.append(
            HealthCheck("snapshot_age_seconds", status, age, detail)
        )
        self._append_failure_check(report)
        engine = self._engine
        if engine is not None:
            info = engine.cache_info()
            report.checks.append(
                HealthCheck(
                    "query_cache_entries",
                    OK,
                    float(info["entries"]),
                    f"{info['hits']} hits / {info['misses']} misses "
                    f"(capacity {info['capacity']})",
                )
            )
        return report

    def _append_failure_check(self, report: HealthReport) -> None:
        """WARN while the most recent publish attempt failed."""
        if self._last_failure is None:
            if self._failures_total:
                report.checks.append(
                    HealthCheck(
                        "last_refresh_failure",
                        OK,
                        0.0,
                        f"recovered; {self._failures_total} failure(s) total",
                    )
                )
            return
        ago = max(0.0, self._clock() - self._last_failure["at"])
        report.checks.append(
            HealthCheck(
                "last_refresh_failure",
                WARN,
                ago,
                f"{self._last_failure['error']}: "
                f"{self._last_failure['message']} "
                f"({self._failures_total} failure(s) total; previous "
                f"snapshot still serving)",
            )
        )

    def to_dict(self, health: Optional[HealthReport] = None) -> Dict[str, Any]:
        """Serving status as built-ins (the ``/healthz`` payload core).

        ``health`` is reported in place of a fresh :meth:`health` call —
        the server passes the report it has already graded.
        """
        if health is None:
            health = self.health()
        snapshot = self.snapshot
        return {
            "version": self.version,
            "n_rules": snapshot.n_rules if snapshot is not None else 0,
            "created_at": snapshot.created_at if snapshot is not None else None,
            "partitions": list(snapshot.partitions) if snapshot is not None else [],
            "snapshot_age_seconds": self.snapshot_age_seconds(),
            "last_failure": self._last_failure,
            "publish_failures_total": self._failures_total,
            "health": health.to_dict(),
        }

