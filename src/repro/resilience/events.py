"""Structured degradation events shared by the guard ladder and the miner.

Historically ``result.phase2.events`` was a list of free-form strings.
:class:`GuardEvent` keeps that contract — ``str(event)`` is exactly the
old line, so ``--stats`` output and anything that greps it survive —
while adding a machine-readable ``kind`` (the same label the
``repro_degradation_events_total`` metric uses) and a UTC timestamp, and
each event is also emitted through the structured logger at WARN.

The class lives here, below both :mod:`repro.resilience.guard` and
:mod:`repro.core.phase2`, because both layers use it (the guard records
its ladder rungs; ``Phase2Stats.events`` carries them) and guard imports
the miner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["GuardEvent", "record_guard_event"]


def _now_iso() -> str:
    """The current UTC time in ISO-8601 (second precision)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True, eq=False)
class GuardEvent:
    """One degradation-ladder step: what happened, as label and prose.

    ``kind`` is the stable machine label (``worker_pool_failure``,
    ``columnar_fallback``, ``memory_escalation``);
    ``detail`` the human sentence older tooling shows verbatim;
    ``at_iso`` when it happened (UTC).

    The string protocol of the old free-form events is preserved:
    ``str(event)`` is the detail line, ``"memory" in event`` searches it,
    and an event compares equal to that line — so JSON exports round-trip
    and pre-existing assertions keep passing.
    """

    kind: str
    detail: str
    at_iso: str = field(default_factory=_now_iso)

    def __str__(self) -> str:
        return self.detail

    def __contains__(self, needle: str) -> bool:
        return needle in self.detail

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GuardEvent):
            return (self.kind, self.detail, self.at_iso) == (
                other.kind, other.detail, other.at_iso
            )
        if isinstance(other, str):
            return self.detail == other
        return NotImplemented

    def __hash__(self) -> int:
        # Hash like the detail string so string-equality stays consistent
        # with hashing (sets/dicts mixing events and their lines).
        return hash(self.detail)

    def to_dict(self) -> Dict[str, Any]:
        """The event as plain built-ins (JSON exports)."""
        return {"kind": self.kind, "detail": self.detail, "at_iso": self.at_iso}


def record_guard_event(kind: str, detail: str) -> GuardEvent:
    """Build a :class:`GuardEvent` and emit it through metrics + logs.

    One call site does all three things every degradation step needs:
    the ``repro_degradation_events_total{kind=}`` counter, a WARN-level
    ``mine.degraded`` log record, and the returned event object for
    ``result.phase2.events``.
    """
    from repro.obs import log as obs_log
    from repro.obs import metrics as obs_metrics

    obs_metrics.inc(
        "repro_degradation_events_total",
        help="Graceful-degradation events, by kind",
        kind=kind,
    )
    event = GuardEvent(kind=kind, detail=detail)
    obs_log.warn("mine.degraded", kind=kind, detail=detail)
    return event
