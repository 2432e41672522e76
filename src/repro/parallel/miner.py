"""The parallel two-phase miner: same decisions, more cores.

:class:`ParallelDARMiner` subclasses :class:`~repro.core.miner.DARMiner`
and overrides exactly the two hooks the serial miner exposes for this
purpose:

* :meth:`~repro.core.miner.DARMiner._run_phase1` — builds one
  :class:`~repro.parallel.tasks.Phase1Task` per attribute partition,
  publishes the data matrices into shared memory, and fans the tasks out
  over the executor backend.  Workers run the unchanged
  ``BirchClusterer``/``BatchInserter`` scan and return ACF ``state_dict``
  payloads; the coordinator rebuilds the clusters (bit-exact, by the same
  float64 JSON round-trip the checkpoint layer relies on) and assigns
  uids from a fresh counter in partition-list order — exactly the serial
  uid assignment, so everything downstream is decision-identical.
* :meth:`~repro.core.miner.DARMiner._make_kernel` — returns a
  :class:`~repro.parallel.kernel.ParallelPhase2Kernel` that tiles the
  blocked pairwise computation over the same pool.

Correctness rests on two facts.  First, each Phase I task is a *whole*
partition: the scan inside a worker is byte-for-byte the serial scan, so
no floating-point re-association can creep in (the ACF Additivity
Theorem would make row-sharded scans merge exactly in ``N``/``LS``/``SS``,
but the BIRCH tree's *decisions* depend on insertion order, so the
partition is the natural parallel unit — and per-worker ``ScanStats``
reconcile through the same :meth:`~repro.birch.batch.ScanStats.merge`
the serial result uses).  Second, Phase II tiles reuse the serial block
boundaries and the shared :func:`~repro.core.phase2_kernel.pairwise_block`
function, so assembled distance matrices are bit-identical.

``workers=1`` (or a single partition) uses the
:class:`~repro.parallel.executor.SerialBackend` — the serial path *is*
the one-worker backend of the same task model.  Pool failures surface as
:class:`~repro.resilience.errors.WorkerPoolError` for the degradation
ladder to catch.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.birch.birch import Phase1Stats
from repro.birch.features import ACF
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.miner import DARMiner, DARResult
from repro.core.phase2_kernel import Phase2Kernel
from repro.data.relation import AttributePartition, Relation
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.parallel.executor import (
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_workers,
)
from repro.parallel.kernel import ParallelPhase2Kernel
from repro.parallel.shared import SharedMatrixStore
from repro.parallel.tasks import Phase1Task, run_phase1_task

__all__ = ["ParallelDARMiner"]


class ParallelDARMiner(DARMiner):
    """Mines with Phase I/II fanned out over a process pool.

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
        self._backend: Optional[ExecutorBackend] = None

    # ------------------------------------------------------------------

    def mine(
        self,
        relation: Relation,
        partitions: Optional[Sequence[AttributePartition]] = None,
        targets: Optional[Sequence[str]] = None,
    ) -> DARResult:
        """Run both phases with the worker pool held for the whole run.

        The backend is opened before Phase I and closed (with queued
        tasks cancelled) when the run ends — normally, on error, or on
        interrupt — so no worker processes outlive the call.
        """
        backend: ExecutorBackend
        if self.workers <= 1:
            backend = SerialBackend()
        else:
            backend = ProcessPoolBackend(
                self.workers, task_timeout=self.task_timeout
            )
        with backend:
            self._backend = backend
            try:
                result = super().mine(relation, partitions=partitions, targets=targets)
            except Exception as error:
                obs_flight.dump_on_error("parallel-mine", error)
                raise
            finally:
                self._backend = None
        if obs_metrics.metrics_enabled():
            obs_metrics.set_gauge(
                "repro_parallel_workers",
                backend.n_workers,
                help="Worker count of the latest parallel mine",
            )
        return result

    # ------------------------------------------------------------------
    # Hook overrides
    # ------------------------------------------------------------------

    def _run_phase1(
        self,
        partition_list: Sequence[AttributePartition],
        matrices: Mapping[str, np.ndarray],
        density: Mapping[str, float],
        frequency_count: int,
    ) -> Tuple[
        Dict[str, Phase1Stats],
        Dict[str, List[Cluster]],
        Dict[str, List[Cluster]],
    ]:
        """Fan one clustering task per partition out over the backend."""
        assert self._backend is not None, "mine() owns the backend lifecycle"
        backend = self._backend
        trace_on = obs_trace.tracing_enabled()
        metrics_on = obs_metrics.metrics_enabled()
        log_on = obs_log.logging_enabled()
        ambient = obs_context.current()
        context_state = ambient.to_dict() if ambient is not None else None
        isolated = backend.n_workers > 1
        with SharedMatrixStore() as store:
            store.put_all(matrices)
            descriptor = store.descriptor()
            tasks = []
            for partition in partition_list:
                others = tuple(
                    p for p in partition_list if p.name != partition.name
                )
                options = replace(
                    self.config.birch,
                    initial_threshold=density[partition.name],
                    frequency_fraction=self.config.frequency_fraction,
                )
                tasks.append(
                    Phase1Task(
                        partition=partition,
                        others=others,
                        options=options,
                        descriptor=descriptor,
                        trace=trace_on and isolated,
                        metrics=metrics_on and isolated,
                        log=log_on and isolated,
                        context=context_state,
                        isolated=isolated,
                    )
                )
            with span(
                "phase1.scatter",
                tasks=len(tasks),
                workers=backend.n_workers,
                shared_bytes=store.n_bytes,
            ) as scatter_span:
                dispatch_base = time.perf_counter()
                payloads = backend.map_tasks(run_phase1_task, tasks)
                self._merge_worker_obs(payloads, scatter_span, dispatch_base)

        phase1_stats: Dict[str, Phase1Stats] = {}
        all_clusters: Dict[str, List[Cluster]] = {}
        frequent_clusters: Dict[str, List[Cluster]] = {}
        by_name = {payload["partition"]: payload for payload in payloads}
        uid = itertools.count()
        for partition in partition_list:
            payload = by_name[partition.name]
            phase1_stats[partition.name] = _stats_from_payload(payload)
            clusters = [
                Cluster(
                    uid=next(uid), partition=partition, acf=ACF.from_state(state)
                )
                for state in payload["clusters"]
            ]
            all_clusters[partition.name] = clusters
            frequent = [c for c in clusters if c.n >= frequency_count]
            # "If for some X_i there are no frequent clusters, we omit X_i
            # from consideration in Phase II."
            if frequent:
                frequent_clusters[partition.name] = frequent
        return phase1_stats, all_clusters, frequent_clusters

    def _make_kernel(self, flat_frequent: Sequence[Cluster]) -> Phase2Kernel:
        """A Phase II kernel whose blocks tile across the pool."""
        return ParallelPhase2Kernel(
            flat_frequent, metric=self.config.metric, backend=self._backend
        )

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


def _stats_from_payload(payload) -> Phase1Stats:
    """Decode the worker's serialized Phase I stats."""
    from repro.parallel.tasks import phase1_stats_from_dict

    return phase1_stats_from_dict(payload["stats"])
