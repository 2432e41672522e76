"""The typed error taxonomy of the resilience layer.

Every failure the mining pipeline can surface deliberately derives from
:class:`ReproError`, so callers can write one ``except ReproError`` guard
around a long-running job and know that anything else escaping is a bug,
not an operating condition.  The data-shaped errors additionally derive
from ``ValueError`` so code (and tests) written against the historical
``raise ValueError`` behaviour keeps working unchanged.

Taxonomy::

    ReproError
    ├── DataError(ValueError)        — malformed input at a file/row boundary
    │   ├── ValidationError          — pre-flight relation validation failed
    │   ├── IngestError              — a specific row could not be ingested
    │   └── ErrorBudgetExceeded      — too many bad rows; lenient run aborted
    ├── CheckpointError              — a checkpoint could not be used
    │   ├── CheckpointCorruptError   — truncated payload / CRC mismatch
    │   └── CheckpointVersionError   — format version is not understood
    ├── ResourceExhaustedError       — degradation ladder ran out of rungs
    ├── WorkerPoolError              — the parallel worker pool died or jammed
    ├── ColumnStoreError             — the out-of-core columnar backend failed
    ├── CorruptResultError           — a result failed its integrity check
    └── InjectedFault                — raised by the fault-injection harness
"""

from __future__ import annotations

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
    "WorkerPoolError",
    "ColumnStoreError",
    "CorruptResultError",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class of every deliberate failure raised by this package."""


class DataError(ReproError, ValueError):
    """Malformed input data (file-level or row-level)."""


class ValidationError(DataError):
    """A relation failed pre-flight validation (empty, all-NaN column, ...)."""


class IngestError(DataError):
    """A specific input row could not be parsed or ingested."""


class ErrorBudgetExceeded(IngestError):
    """Lenient ingestion aborted: the bad-row fraction exceeded the budget."""


class CheckpointError(ReproError):
    """A checkpoint file could not be written or restored."""


class CheckpointCorruptError(CheckpointError):
    """Checkpoint payload is damaged (truncation, CRC mismatch, bad magic)."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class ResourceExhaustedError(ReproError):
    """The memory degradation ladder retried up to its cap and still failed."""


class WorkerPoolError(ReproError):
    """The parallel worker pool failed as *infrastructure*.

    Raised when a worker process dies (``BrokenProcessPool``), the pool
    cannot be created, or an in-memory relation's partition matrices
    cannot be spilled to (or mapped back from) the coordinator's temp
    directory.
    Data-shaped errors raised *inside* a worker (``ValidationError`` and
    friends) propagate as themselves — retrying them on the serial engine
    would fail identically, so the degradation ladder only catches this
    class.
    """


class ColumnStoreError(ReproError):
    """The out-of-core columnar backend failed as *infrastructure*.

    Raised when a store directory cannot be opened (missing or corrupt
    manifest, truncated column part files) or a memory-mapped read fails
    mid-scan.  Like :class:`WorkerPoolError`, this marks a backend
    problem rather than bad data: the guarded driver reacts by
    materializing the store into an in-memory relation and retrying,
    so a flaky disk degrades throughput instead of failing the job.
    """


class CorruptResultError(ReproError):
    """A mining result failed its internal consistency check.

    The guarded driver raises this instead of returning a partially
    corrupt :class:`~repro.core.miner.DARResult`.
    """


class InjectedFault(ReproError):
    """Deterministic failure raised by :mod:`repro.resilience.faults`."""
