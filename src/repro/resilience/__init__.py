"""Fault tolerance for the mining pipeline.

Four pieces, layered from the ground up:

- :mod:`repro.resilience.errors` — the typed error taxonomy every layer
  raises (``ReproError`` at the root; data errors double as ``ValueError``
  for backward compatibility).
- :mod:`repro.resilience.faults` — deterministic fault injection: named
  fault points in production code that tests can arm to kill a scan at an
  exact, reproducible position.
- :mod:`repro.resilience.checkpoint` — checksummed, atomically-written
  checkpoints; with ``ACFTree.state_dict`` these make streaming scans
  resumable with bit-identical results.
- :mod:`repro.resilience.sink` / :mod:`repro.resilience.guard` —
  quarantined ingestion with an error budget, and the graceful-degradation
  ladder wrapped around :func:`repro.mine`.

Only ``errors`` and ``faults`` are imported eagerly (they have no
dependency on ``repro.core``, which lets the core instrument fault points
without an import cycle); the heavier modules load on first attribute
access.
"""

from __future__ import annotations

from repro.resilience import faults
from repro.resilience.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    CorruptResultError,
    DataError,
    ErrorBudgetExceeded,
    IngestError,
    InjectedFault,
    ReproError,
    ResourceExhaustedError,
    ValidationError,
)

__all__ = [
    "ReproError",
    "DataError",
    "ValidationError",
    "IngestError",
    "ErrorBudgetExceeded",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "ResourceExhaustedError",
    "CorruptResultError",
    "InjectedFault",
    "faults",
    # lazy (see __getattr__):
    "CheckpointInfo",
    "write_checkpoint",
    "read_checkpoint",
    "RowSink",
    "QuarantinedRow",
    "ErrorBudget",
    "Quarantine",
    "GuardPolicy",
    "guarded_mine",
    "validate_result",
]

_LAZY = {
    "CheckpointInfo": "repro.resilience.checkpoint",
    "write_checkpoint": "repro.resilience.checkpoint",
    "read_checkpoint": "repro.resilience.checkpoint",
    "RowSink": "repro.resilience.sink",
    "QuarantinedRow": "repro.resilience.sink",
    "ErrorBudget": "repro.resilience.sink",
    "Quarantine": "repro.resilience.sink",
    "GuardPolicy": "repro.resilience.guard",
    "guarded_mine": "repro.resilience.guard",
    "validate_result": "repro.resilience.guard",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
