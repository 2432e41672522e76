"""Task descriptions and worker entry points for parallel mining.

This module is the "what to compute" half of the parallel engine (the
"where it runs" half is :mod:`repro.parallel.executor`).  A
:class:`Phase1Task` describes one attribute partition's clustering pass —
the same unit of work the serial miner executes inline — and
:class:`Phase2Tile` one row block of the pairwise distance matrix.  The
worker entry points (:func:`run_phase1_task`, :func:`run_phase2_tile`)
are plain top-level functions so ``ProcessPoolExecutor`` can pickle
references to them under any start method.

Everything that crosses the process boundary is plain built-ins or small
numpy arrays: row data travels through shared memory
(:mod:`repro.parallel.shared`), clusters come back as ACF ``state_dict``
payloads (bit-exact float64 round-trip, the same format the checkpoint
layer relies on), scan statistics as :meth:`ScanStats.to_dict` rows, and
observability as a metrics-registry dump plus exported span rows that the
coordinator folds into its own registry/tracer.

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

from repro.birch.batch import ScanStats
from repro.birch.birch import BirchClusterer, BirchOptions, Phase1Stats
from repro.birch.features import ACF
from repro.birch.outliers import ReplayReport
from repro.core.phase2_kernel import pairwise_block
from repro.data.relation import AttributePartition
from repro.parallel.shared import SharedMatrixHandle, attach_matrices
from repro.resilience import faults

__all__ = [
    "KILL_WORKER_ENV",
    "Phase1Task",
    "Phase2Tile",
    "run_phase1_task",
    "run_phase2_tile",
    "phase1_stats_to_dict",
    "phase1_stats_from_dict",
]

#: Set this env var to a partition name to make the worker holding that
#: partition die hard (``os._exit``) mid-scan — the faults suite's
#: reproducible worker-death switch.
KILL_WORKER_ENV = "REPRO_PARALLEL_KILL_WORKER"


@dataclass(frozen=True)
class Phase1Task:
    """One partition's Phase I clustering pass, as shippable data.

    Carries exactly what :meth:`repro.core.miner.DARMiner._run_phase1`
    feeds ``BirchClusterer`` for this partition — the partition, the
    cross partitions, the resolved options — plus the shared-memory
    descriptor to map the row data and the observability switches the
    worker should mirror.  ``isolated`` is false when the task runs
    inside the coordinator (the one-worker serial backend): its spans and
    metrics then land in the coordinator's own recorders, which must not
    be reset.
    """

    partition: AttributePartition
    others: Tuple[AttributePartition, ...]
    options: BirchOptions
    descriptor: Mapping[str, SharedMatrixHandle]
    trace: bool = False
    metrics: bool = False
    log: bool = False
    context: Optional[Mapping[str, Any]] = None
    isolated: bool = True


@dataclass(frozen=True)
class Phase2Tile:
    """One row block of the pairwise image-distance matrix.

    The block boundaries are exactly the serial kernel's
    (``DEFAULT_BLOCK_SIZE`` rows), so a tile computed on a worker is
    bit-identical to the block the serial loop would have produced.
    """

    metric: str
    n: np.ndarray
    ls: np.ndarray
    ss: np.ndarray
    start: int
    stop: int


def phase1_stats_to_dict(stats: Phase1Stats) -> Dict[str, Any]:
    """``Phase1Stats`` as plain built-ins (crosses the process boundary)."""
    replay: Optional[Dict[str, Any]] = None
    if stats.replay is not None:
        replay = {
            "absorbed": stats.replay.absorbed,
            "confirmed_outliers": [
                acf.state_dict() for acf in stats.replay.confirmed_outliers
            ],
        }
    return {
        "points_inserted": stats.points_inserted,
        "rebuilds": stats.rebuilds,
        "threshold_history": list(stats.threshold_history),
        "pages_out": stats.pages_out,
        "paged_entries": stats.paged_entries,
        "replay": replay,
        "seconds": stats.seconds,
        "final_entry_count": stats.final_entry_count,
        "final_tree_bytes": stats.final_tree_bytes,
        "scan": stats.scan.to_dict() if stats.scan is not None else None,
    }


def phase1_stats_from_dict(state: Mapping[str, Any]) -> Phase1Stats:
    """Rebuild :meth:`phase1_stats_to_dict` output, ACFs bit-exact."""
    replay: Optional[ReplayReport] = None
    if state.get("replay") is not None:
        replay = ReplayReport(
            absorbed=int(state["replay"]["absorbed"]),
            confirmed_outliers=[
                ACF.from_state(acf)
                for acf in state["replay"]["confirmed_outliers"]
            ],
        )
    scan: Optional[ScanStats] = None
    if state.get("scan") is not None:
        scan = ScanStats.from_dict(state["scan"])
    return Phase1Stats(
        points_inserted=int(state["points_inserted"]),
        rebuilds=int(state["rebuilds"]),
        threshold_history=list(state["threshold_history"]),
        pages_out=int(state["pages_out"]),
        paged_entries=int(state["paged_entries"]),
        replay=replay,
        seconds=float(state["seconds"]),
        final_entry_count=int(state["final_entry_count"]),
        final_tree_bytes=int(state["final_tree_bytes"]),
        scan=scan,
    )


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

    Runs the *exact* serial scan — same ``BirchClusterer``, same
    ``BatchInserter`` path, same data bytes (a shared-memory view of the
    coordinator's matrix) — so the returned ACF ``state_dict`` payloads
    are bit-identical to what the serial miner would have computed for
    this partition.
    """
    from contextlib import nullcontext

    from repro.obs import context as obs_context
    from repro.obs import log as obs_log

    faults.fire("parallel.worker")
    if os.environ.get(KILL_WORKER_ENV) == task.partition.name:
        # Simulated OOM-kill: die without cleanup so the coordinator sees
        # BrokenProcessPool, exactly like a real worker death.
        os._exit(1)
    if task.isolated:
        _reset_worker_obs(task.trace, task.metrics, task.log)
    ambient = (
        obs_context.activate(obs_context.RequestContext.from_dict(task.context))
        if task.context is not None
        else nullcontext()
    )
    with ambient:
        with attach_matrices(task.descriptor) as matrices:
            clusterer = BirchClusterer(task.partition, task.others, task.options)
            result = clusterer.fit_arrays(
                matrices[task.partition.name],
                {p.name: matrices[p.name] for p in task.others},
            )
        obs_log.info(
            "parallel.partition_done",
            partition=task.partition.name,
            clusters=len(result.clusters),
            points=result.stats.points_inserted,
            pid=os.getpid(),
        )
    payload: Dict[str, Any] = {
        "partition": task.partition.name,
        "clusters": [acf.state_dict() for acf in result.clusters],
        "stats": phase1_stats_to_dict(result.stats),
    }
    payload.update(_export_worker_obs(task.trace, task.metrics, task.log))
    return payload


def run_phase2_tile(tile: Phase2Tile) -> np.ndarray:
    """Worker entry point: rows ``[start, stop)`` of the distance matrix."""
    faults.fire("parallel.worker")
    return pairwise_block(
        tile.metric, tile.n, tile.ls, tile.ss, tile.start, tile.stop
    )
