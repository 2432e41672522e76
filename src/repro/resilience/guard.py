"""The graceful-degradation ladder around the batch miner.

:func:`guarded_mine` wraps :meth:`~repro.core.miner.DARMiner.mine` so a
mining run degrades in controlled, *recorded* steps instead of dying:

1. **Validation first.**  Empty relations and non-finite columns raise a
   precise :class:`~repro.resilience.errors.ValidationError` before any
   clustering starts (this lives in the miner itself; the guard just lets
   it through untouched).
2. **Worker-pool failure → serial engine.**  With ``engine="parallel"``
   a dead worker process, a pool that cannot start, or a failed spill of
   the in-memory partition matrices raises
   :class:`~repro.resilience.errors.WorkerPoolError`; the guard retries
   the same attempt on the serial :class:`~repro.core.miner.DARMiner`
   (which is decision-identical, just slower) and records the rung.
   Data errors raised *inside* a worker propagate unchanged — they would
   recur serially.
3. **Columnar backend failure → in-memory retry.**  When mining a
   memory-mapped :class:`~repro.data.columnar.ColumnStore`, a backend
   failure (unreadable part file, corrupt manifest, injected fault)
   raises :class:`~repro.resilience.errors.ColumnStoreError`; the guard
   materializes the store with ``to_relation()`` and retries the same
   attempt on the in-memory serial engine — decision-identical, just no
   longer out-of-core — and records the rung.  If materialization
   itself fails, the error propagates: the backing files are gone.
4. **Memory exhaustion → coarser clustering.**  A ``MemoryError`` during
   a run escalates every density threshold by ``escalation_factor`` —
   coarser clusters mean fewer leaf entries and smaller trees — waits
   ``backoff_seconds``, and retries, up to ``max_retries`` times.  The
   hard cap turns persistent exhaustion into
   :class:`~repro.resilience.errors.ResourceExhaustedError` rather than
   an infinite ladder.  Every rung is recorded in
   ``result.phase2.events``.
5. **No partially-corrupt results.**  :func:`validate_result` checks the
   structural invariants of the :class:`~repro.core.miner.DARResult`
   before it is returned; a violation raises
   :class:`~repro.resilience.errors.CorruptResultError` instead of
   handing broken data downstream.

On a clean first attempt the guard is a transparent pass-through: the
result is exactly what ``DARMiner(config).mine(...)`` returns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.config import DARConfig
from repro.core.miner import DARMiner, DARResult
from repro.data.relation import AttributePartition, Relation
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs.trace import span
from repro.resilience.errors import (
    ColumnStoreError,
    CorruptResultError,
    ResourceExhaustedError,
    WorkerPoolError,
)
from repro.resilience.events import GuardEvent, record_guard_event

__all__ = ["GuardPolicy", "GuardEvent", "guarded_mine", "validate_result"]


@dataclass(frozen=True)
class GuardPolicy:
    """How far the degradation ladder may climb."""

    max_retries: int = 3
    """Retries after the first attempt before giving up."""
    escalation_factor: float = 4.0
    """Density-threshold multiplier applied per memory-exhaustion retry."""
    backoff_seconds: float = 0.0
    """Pause before each retry (lets an external memory spike pass)."""
    task_timeout_seconds: Optional[float] = None
    """Per-task wall-time bound inside the worker pool (``None`` = no
    bound); a task outliving it surfaces as a ``WorkerPoolError``."""

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.escalation_factor <= 1.0:
            raise ValueError("escalation_factor must exceed 1 for progress")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.task_timeout_seconds is not None and self.task_timeout_seconds <= 0:
            raise ValueError("task_timeout_seconds must be positive (or None)")


def _escalated(config: DARConfig, factor: float) -> DARConfig:
    """``config`` with every density threshold coarsened by ``factor``.

    Both the data-derived path (``density_fraction``) and any explicit
    per-partition overrides scale, so the escalation bites regardless of
    how thresholds were specified.
    """
    return replace(
        config,
        density_fraction=config.density_fraction * factor,
        density_thresholds={
            name: value * factor
            for name, value in config.density_thresholds.items()
        },
    )


def validate_result(result: DARResult) -> None:
    """Check a result's structural invariants; raise ``CorruptResultError``.

    A result that fails here must never reach callers: every rule's
    clusters must exist in the result's cluster sets, every degree must be
    finite and non-negative, and per-consequent degrees must be consistent
    with the rule's overall degree.
    """
    known_uids = {
        cluster.uid
        for clusters in result.all_clusters.values()
        for cluster in clusters
    }
    if result.frequency_count < 1:
        raise CorruptResultError(
            f"frequency_count is {result.frequency_count}, must be >= 1"
        )
    for name, value in result.density_thresholds.items():
        if not math.isfinite(value) or value <= 0:
            raise CorruptResultError(
                f"density threshold for {name!r} is {value!r}, not a "
                f"positive finite number"
            )
    for rule in result.rules:
        members = tuple(rule.antecedent) + tuple(rule.consequent)
        for cluster in members:
            if cluster.uid not in known_uids:
                raise CorruptResultError(
                    f"rule {rule} references cluster uid {cluster.uid} "
                    f"absent from the result's cluster sets"
                )
        if not math.isfinite(rule.degree) or rule.degree < 0:
            raise CorruptResultError(
                f"rule {rule} has non-finite or negative degree {rule.degree!r}"
            )
        consequent_uids = {cluster.uid for cluster in rule.consequent}
        if set(rule.degrees) != consequent_uids:
            raise CorruptResultError(
                f"rule {rule} has per-consequent degrees for uids "
                f"{sorted(rule.degrees)} but consequents {sorted(consequent_uids)}"
            )
        for uid, degree in rule.degrees.items():
            if not math.isfinite(degree) or degree < 0:
                raise CorruptResultError(
                    f"rule {rule} has non-finite degree {degree!r} for "
                    f"consequent uid {uid}"
                )
            if degree > rule.degree:
                raise CorruptResultError(
                    f"rule {rule} has per-consequent degree {degree} above "
                    f"its overall degree {rule.degree}"
                )


def _make_miner(
    config: DARConfig,
    engine: str,
    workers: Optional[int],
    policy: GuardPolicy,
) -> DARMiner:
    """The miner for one attempt: serial, or the parallel coordinator."""
    if engine == "serial":
        return DARMiner(config)
    if engine == "parallel":
        from repro.parallel.executor import resolve_workers
        from repro.parallel.miner import ParallelDARMiner

        # workers=None/0 → REPRO_WORKERS, else os.cpu_count() (see
        # resolve_workers for the full resolution order).
        return ParallelDARMiner(
            config,
            workers=resolve_workers(workers),
            task_timeout=policy.task_timeout_seconds,
        )
    raise ValueError(
        f"unknown mining engine {engine!r}; expected 'serial' or 'parallel'"
    )


def guarded_mine(
    relation: Relation,
    *,
    config: Optional[DARConfig] = None,
    partitions: Optional[Sequence[AttributePartition]] = None,
    targets: Optional[Sequence[str]] = None,
    policy: Optional[GuardPolicy] = None,
    engine: str = "serial",
    workers: Optional[int] = None,
) -> DARResult:
    """Mine with the degradation ladder; see the module docstring.

    ``engine="parallel"`` runs :class:`repro.parallel.ParallelDARMiner`
    with ``workers`` processes (default: the machine's core count); a
    :class:`~repro.resilience.errors.WorkerPoolError` drops the run to
    the serial engine and records the event.
    """
    if config is None:
        config = DARConfig()
    if policy is None:
        policy = GuardPolicy()
    if engine not in ("serial", "parallel"):
        raise ValueError(
            f"unknown mining engine {engine!r}; expected 'serial' or 'parallel'"
        )

    events: List[GuardEvent] = []
    attempt_config = config
    attempt_engine = engine
    obs_log.info("mine.start", rows=len(relation), engine=engine)
    with span("mine", rows=len(relation), engine=engine) as mine_span:
        for attempt in range(policy.max_retries + 1):
            try:
                with span(
                    "mine.attempt", attempt=attempt + 1, engine=attempt_engine
                ):
                    try:
                        result = _make_miner(
                            attempt_config, attempt_engine, workers, policy
                        ).mine(relation, partitions=partitions, targets=targets)
                    except WorkerPoolError as error:
                        attempt_engine = "serial"
                        events.append(record_guard_event(
                            "worker_pool_failure",
                            f"parallel worker pool failed ({error}); "
                            f"degraded to the serial engine",
                        ))
                        result = DARMiner(attempt_config).mine(
                            relation, partitions=partitions, targets=targets
                        )
                    except ColumnStoreError as error:
                        if not hasattr(relation, "to_relation"):
                            raise  # not an out-of-core input; a real bug
                        events.append(record_guard_event(
                            "columnar_fallback",
                            f"columnar backend failed ({error}); "
                            f"materialized the store in memory and retried",
                        ))
                        # Materialization may raise ColumnStoreError too —
                        # then the files really are gone and it propagates.
                        relation = relation.to_relation()
                        result = DARMiner(attempt_config).mine(
                            relation, partitions=partitions, targets=targets
                        )
            except MemoryError as error:
                if attempt >= policy.max_retries:
                    exhausted = ResourceExhaustedError(
                        f"mining ran out of memory and stayed exhausted after "
                        f"{policy.max_retries} density escalation(s) of "
                        f"x{policy.escalation_factor:g}: {error}"
                    )
                    record_guard_event(
                        "memory_escalation",
                        f"memory exhausted on attempt {attempt + 1}; "
                        f"escalation budget spent",
                    )
                    obs_flight.dump_on_error("guarded-mine", exhausted)
                    raise exhausted from error
                attempt_config = _escalated(
                    attempt_config, policy.escalation_factor
                )
                events.append(record_guard_event(
                    "memory_escalation",
                    f"memory exhausted on attempt {attempt + 1}; escalated "
                    f"density thresholds x{policy.escalation_factor:g} and retried",
                ))
                if policy.backoff_seconds:
                    time.sleep(policy.backoff_seconds)
                continue
            result.phase2.events = events + result.phase2.events
            try:
                validate_result(result)
            except CorruptResultError as error:
                obs_flight.dump_on_error("guarded-mine", error)
                raise
            mine_span.set("attempts", attempt + 1)
            mine_span.set("rules", len(result.rules))
            obs_log.info(
                "mine.done",
                rules=len(result.rules),
                attempts=attempt + 1,
                degradations=len(events),
                seconds=round(result.phase2.seconds, 6),
            )
            return result
    raise AssertionError("unreachable")  # pragma: no cover
