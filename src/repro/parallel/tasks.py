"""Task descriptions and worker entry points for parallel mining.

This module is the "what to compute" half of the parallel engine (the
"where it runs" half is :mod:`repro.parallel.executor`).  A
:class:`Phase1Task` describes one attribute partition's clustering pass —
the same unit of work the serial miner executes inline.  The worker entry
point :func:`run_phase1_task` is a plain top-level function so
``ProcessPoolExecutor`` can pickle a reference to it under any start
method.

No row data crosses the process boundary: it stays on disk, and a task
carries one :class:`MatrixFile` (path, offset, shape, dtype) per partition
matrix that the worker maps read-only.  Clusters come back as ACF
``state_dict`` payloads (a bit-exact float64 round-trip, and about five
times cheaper to pickle than ACF objects with their many small arrays),
``Phase1Stats`` pickled, and observability as a metrics-registry dump plus
exported span rows that the coordinator folds into its own
registry/tracer.

Worker-death testing: when the ``REPRO_PARALLEL_KILL_WORKER``
environment variable names a partition, the worker assigned that
partition exits hard (``os._exit``) before touching the tree — the
reproducible stand-in for an OOM kill, which surfaces to the coordinator
as ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.birch.birch import BirchOptions
from repro.core.miner import fit_partition
from repro.data.relation import AttributePartition
from repro.resilience import faults
from repro.resilience.errors import ColumnStoreError

__all__ = [
    "KILL_WORKER_ENV",
    "MatrixFile",
    "Phase1Task",
    "run_phase1_task",
]

#: Set this env var to a partition name to make the worker holding that
#: partition die hard (``os._exit``) mid-scan — the faults suite's
#: reproducible worker-death switch.
KILL_WORKER_ENV = "REPRO_PARALLEL_KILL_WORKER"


@dataclass(frozen=True)
class MatrixFile:
    """Where one partition matrix lives on disk, as a read-only map recipe.

    The coordinator ships one of these per partition matrix instead of the
    rows: the column part or stacked ``.npy`` a
    :class:`~repro.data.columnar.ColumnStore` matrix already maps, or a
    raw file the coordinator spilled an in-memory matrix into.
    """

    path: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str = "<f8"

    @classmethod
    def of(cls, matrix: np.ndarray) -> Optional["MatrixFile"]:
        """The file region ``matrix`` views, or ``None`` if it is not mapped."""
        root = matrix
        while isinstance(root.base, np.ndarray):
            root = root.base  # down to the array that holds the mapping
        if (
            not isinstance(root, np.memmap)
            or root.filename is None
            or not matrix.flags.c_contiguous
        ):
            return None
        start = matrix.__array_interface__["data"][0]
        origin = root.__array_interface__["data"][0]
        return cls(
            str(root.filename), root.offset + start - origin, matrix.shape,
            matrix.dtype.str,
        )

    def open(self) -> np.ndarray:
        """Map the region read-only, as a plain ndarray view (no memmap
        subclass hooks on every slice); a missing or short file is a
        :class:`~repro.resilience.errors.ColumnStoreError`."""
        try:
            return np.asarray(np.memmap(
                self.path, dtype=self.dtype, mode="r", offset=self.offset,
                shape=self.shape,
            ))
        except (OSError, ValueError) as error:
            raise ColumnStoreError(
                f"{self.path}: cannot map partition matrix: {error}"
            ) from error


@dataclass(frozen=True)
class Phase1Task:
    """One partition's Phase I clustering pass, as shippable data.

    Carries exactly what :meth:`repro.core.miner.DARMiner._fit_partitions`
    feeds :func:`~repro.core.miner.fit_partition` for this partition, with
    a :class:`MatrixFile` in place of each matrix, plus the observability
    switches the worker should mirror.
    """

    partition: AttributePartition
    partitions: Tuple[AttributePartition, ...]
    options: BirchOptions
    files: Mapping[str, MatrixFile]
    chunk_rows: Optional[int] = None
    trace: bool = False
    metrics: bool = False
    log: bool = False
    context: Optional[Mapping[str, Any]] = None


def _reset_worker_obs(trace: bool, metrics: bool, log: bool = False) -> None:
    """Give the worker a clean observability slate mirroring the parent.

    Under the ``fork`` start method the worker inherits the parent's
    tracer buffer, metrics registry and log buffer wholesale; without
    this reset the coordinator would merge the parent's own spans,
    counters and records back into itself, double-counting everything.
    Each task starts from empty and exports only what it recorded
    itself.  The flight recorder is always disabled in workers — the
    coordinator owns the postmortem window, and a worker must never
    write bundles of its own.
    """
    from repro.obs import flight as obs_flight
    from repro.obs import log as obs_log
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    obs_flight.disable_flight()
    if metrics:
        obs_metrics.enable_metrics().reset()
    else:
        obs_metrics.disable_metrics()
    if trace:
        obs_trace.enable_tracing().clear()
    else:
        obs_trace.disable_tracing()
        obs_trace.get_tracer().clear()
    if log:
        # Sink-less on purpose: records buffer in memory and ship home
        # with the result payload; only the coordinator's sink writes.
        obs_log.enable_logging(level=obs_log.DEBUG, stream=None, capacity=None)
        obs_log.get_logger().clear()
    else:
        obs_log.disable_logging()
        obs_log.get_logger().clear()


def _export_worker_obs(
    trace: bool, metrics: bool, log: bool = False
) -> Dict[str, Any]:
    """The task's recorded spans/metrics/logs, ready to ship to the parent."""
    out: Dict[str, Any] = {
        "metrics": None, "spans": None, "epoch": None, "logs": None,
    }
    if metrics:
        from repro.obs import metrics as obs_metrics

        out["metrics"] = obs_metrics.get_registry().export_state()
    if trace:
        from repro.obs import trace as obs_trace

        tracer = obs_trace.get_tracer()
        out["spans"] = [record.to_dict() for record in tracer.spans()]
        out["epoch"] = tracer.epoch
    if log:
        from repro.obs import log as obs_log

        out["logs"] = obs_log.get_logger().export_records()
    return out


def run_phase1_task(task: Phase1Task) -> Dict[str, Any]:
    """Worker entry point: cluster one partition, return shippable state.

    Runs the *exact* serial scan — the same
    :func:`~repro.core.miner.fit_partition` over the same data bytes (a
    read-only map of the coordinator's files) — so the returned ACF
    ``state_dict`` payloads are bit-identical to what the serial miner
    computes for this partition.
    """
    from contextlib import nullcontext

    from repro.obs import context as obs_context
    from repro.obs import log as obs_log

    faults.fire("parallel.worker")
    if os.environ.get(KILL_WORKER_ENV) == task.partition.name:
        # Simulated OOM-kill: die without cleanup so the coordinator sees
        # BrokenProcessPool, exactly like a real worker death.
        os._exit(1)
    _reset_worker_obs(task.trace, task.metrics, task.log)
    ambient = (
        obs_context.activate(obs_context.RequestContext.from_dict(task.context))
        if task.context is not None
        else nullcontext()
    )
    with ambient:
        matrices = {name: file.open() for name, file in task.files.items()}
        clusters, stats = fit_partition(
            task.partition, task.partitions, task.options, matrices,
            task.chunk_rows,
        )
        obs_log.info(
            "parallel.partition_done",
            partition=task.partition.name,
            clusters=len(clusters),
            points=stats.points_inserted,
            pid=os.getpid(),
        )
    payload: Dict[str, Any] = {
        "partition": task.partition.name,
        "clusters": [acf.state_dict() for acf in clusters],
        "stats": stats,
    }
    payload.update(_export_worker_obs(task.trace, task.metrics, task.log))
    return payload
