"""The parallel two-phase miner: same decisions, more cores.

:class:`ParallelDARMiner` subclasses :class:`~repro.core.miner.DARMiner`
and overrides the one hook the serial miner exposes for this purpose,
:meth:`~repro.core.miner.DARMiner._fit_partitions`: it opens a process
pool, ships one :class:`~repro.parallel.tasks.Phase1Task` per attribute
partition to it, and closes it before Phase I returns.  Row data stays on
disk: a task names each partition matrix's file region
(:class:`~repro.parallel.tasks.MatrixFile`) — the files a
:class:`~repro.data.columnar.ColumnStore` already maps, or raw files an
in-memory relation is spilled into, in a temp directory removed when
Phase I ends — and the worker maps them read-only, runs
:func:`~repro.core.miner.fit_partition` and returns ACF ``state_dict``
payloads (a bit-exact float64 round-trip).  Phase II works on summaries
alone (Thm 6.1) and its kernel is small, so it runs in process, exactly
as the serial miner runs it.

Correctness rests on each Phase I task being a *whole* partition: the
scan inside a worker is byte-for-byte the serial scan, so no
floating-point re-association can creep in (the ACF Additivity Theorem
would make row-sharded scans merge exactly in ``N``/``LS``/``SS``, but
the BIRCH tree's *decisions* depend on insertion order, so the partition
is the natural parallel unit — and per-worker ``ScanStats`` reconcile
through the same :meth:`~repro.birch.batch.ScanStats.merge` the serial
result uses).  Phase II then sees the same clusters and computes the same
bits.

``workers=1`` runs the serial miner's own in-process loops: nothing is
spilled, shipped or round-tripped.  Pool failures surface as
:class:`~repro.resilience.errors.WorkerPoolError` for the degradation
ladder to catch; a store file a worker cannot map surfaces as
:class:`~repro.resilience.errors.ColumnStoreError`, as it would serially.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.birch.birch import Phase1Stats
from repro.birch.features import ACF
from repro.core.config import DARConfig
from repro.core.miner import DARMiner, DARResult
from repro.data.relation import AttributePartition, Relation
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.parallel.executor import ProcessPoolBackend, resolve_workers
from repro.parallel.tasks import MatrixFile, Phase1Task, run_phase1_task
from repro.resilience.errors import ColumnStoreError, WorkerPoolError

__all__ = ["ParallelDARMiner"]


class ParallelDARMiner(DARMiner):
    """Mines with the Phase I scans fanned out over a process pool.

    ``workers=None`` (or 0) resolves automatically — ``REPRO_WORKERS``
    when set, else ``os.cpu_count()`` (see
    :func:`~repro.parallel.executor.resolve_workers`).  ``task_timeout``
    flows to the :class:`~repro.parallel.executor.ProcessPoolBackend`: a
    hung worker becomes a ``WorkerPoolError`` after ``task_timeout``
    seconds, which the guard ladder's serial rung handles like any other
    pool failure.

    >>> from repro.data.synthetic import make_planted_rule_relation
    >>> relation, _ = make_planted_rule_relation(seed=7)
    >>> result = ParallelDARMiner(workers=2).mine(relation)
    >>> len(result.rules) > 0
    True
    """

    def __init__(
        self,
        config: DARConfig = DARConfig(),
        workers: Optional[int] = None,
        *,
        task_timeout: Optional[float] = None,
    ):
        super().__init__(config)
        self.workers = resolve_workers(workers)
        self.task_timeout = task_timeout

    # ------------------------------------------------------------------

    def mine(
        self,
        relation: Relation,
        partitions: Optional[Sequence[AttributePartition]] = None,
        targets: Optional[Sequence[str]] = None,
    ) -> DARResult:
        """Run both phases; a failure leaves a ``parallel-mine`` flight dump.

        The worker pool lives inside Phase I (:meth:`_fit_partitions`), so
        no worker process outlives the scans.
        """
        try:
            result = super().mine(relation, partitions=partitions, targets=targets)
        except Exception as error:
            obs_flight.dump_on_error("parallel-mine", error)
            raise
        if obs_metrics.metrics_enabled():
            obs_metrics.set_gauge(
                "repro_parallel_workers",
                self.workers,
                help="Worker count of the latest parallel mine",
            )
        return result

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------

    def _fit_partitions(
        self,
        partition_list: Sequence[AttributePartition],
        matrices: Mapping[str, np.ndarray],
        density: Mapping[str, float],
    ) -> Dict[str, Tuple[List[ACF], Phase1Stats]]:
        """Fan one clustering task per partition out over a process pool.

        The pool is opened here and shut down (queued tasks cancelled)
        before this returns — normally, on error, or on interrupt.
        """
        if self.workers <= 1:
            return super()._fit_partitions(partition_list, matrices, density)
        trace_on = obs_trace.tracing_enabled()
        metrics_on = obs_metrics.metrics_enabled()
        log_on = obs_log.logging_enabled()
        ambient = obs_context.current()
        context_state = ambient.to_dict() if ambient is not None else None
        with ProcessPoolBackend(
            self.workers, task_timeout=self.task_timeout
        ) as backend, tempfile.TemporaryDirectory(prefix="repro-phase1-") as spill:
            files, spilled_bytes = _matrix_files(matrices, Path(spill))
            tasks = [
                Phase1Task(
                    partition=partition,
                    partitions=tuple(partition_list),
                    options=self._phase1_options(partition, density),
                    files=files,
                    chunk_rows=self._chunk_rows,
                    trace=trace_on,
                    metrics=metrics_on,
                    log=log_on,
                    context=context_state,
                )
                for partition in partition_list
            ]
            with span(
                "phase1.scatter",
                tasks=len(tasks),
                workers=self.workers,
                spilled_bytes=spilled_bytes,
            ) as scatter_span:
                dispatch_base = time.perf_counter()
                try:
                    payloads = backend.map_tasks(run_phase1_task, tasks)
                except ColumnStoreError as error:
                    if self._chunk_rows is not None:
                        raise  # a store file is gone: the columnar rung's case
                    raise WorkerPoolError(
                        f"a worker could not map a spilled matrix: {error}"
                    ) from error
                self._merge_worker_obs(payloads, scatter_span, dispatch_base)
        return {
            payload["partition"]: (
                [ACF.from_state(state) for state in payload["clusters"]],
                payload["stats"],
            )
            for payload in payloads
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _merge_worker_obs(payloads, scatter_span, dispatch_base: float) -> None:
        """Fold per-worker span/metric exports into the parent recorders.

        Worker metrics merge additively into the process registry
        (counters/histograms add, labeled gauges land on their own
        series); worker spans are re-parented under the scatter span and
        rebased from the worker's epoch to the dispatch time, so the
        parent trace shows worker scans as children of the fan-out.
        """
        parent_id = getattr(scatter_span, "span_id", 0)
        for payload in payloads:
            state = payload.get("metrics")
            if state is not None:
                obs_metrics.get_registry().merge(state)
            spans = payload.get("spans")
            if spans:
                obs_trace.get_tracer().ingest(
                    spans,
                    parent_id=parent_id,
                    epoch=payload.get("epoch"),
                    base=dispatch_base,
                )
            records = payload.get("logs")
            if records:
                obs_log.get_logger().ingest(records)



def _matrix_files(
    matrices: Mapping[str, np.ndarray], spill: Path
) -> Tuple[Dict[str, MatrixFile], int]:
    """Each matrix's file region, spilling in-memory ones under ``spill``.

    Memory-mapped matrices (a :class:`~repro.data.columnar.ColumnStore`'s)
    are described where they already live; the rest are written as raw
    float64 files.  Returns the descriptors and the bytes spilled.
    """
    files: Dict[str, MatrixFile] = {}
    spilled = 0
    for index, (name, matrix) in enumerate(sorted(matrices.items())):
        found = MatrixFile.of(matrix)
        if found is None:
            data = np.ascontiguousarray(matrix, dtype=np.float64)
            path = spill / f"m{index:04d}.bin"
            try:
                data.tofile(path)
            except OSError as error:
                raise WorkerPoolError(
                    f"could not spill partition {name!r} for the workers: {error}"
                ) from error
            found = MatrixFile(str(path), 0, data.shape)
            spilled += data.nbytes
        files[name] = found
    return files, spilled
