"""Streaming (anytime) distance-based rule mining.

The whole point of building Phase I on BIRCH is that summaries are
*incremental*: "clusters can be incrementally identified and refined in a
single pass over the data" (Section 4.3.1).  This module exposes that
directly — a :class:`StreamingDARMiner` keeps one live ACF-tree per
partition, absorbs tuple batches as they arrive, and can materialize the
current rule set at any moment by running the summary-only Phase II.  No
batch is ever rescanned.

Because density thresholds cannot be derived from data that has not
arrived yet, they are fixed up front: either explicitly per partition or
from the first batch (``density_fraction`` of its spread), mirroring how
the batch miner derives them from the full relation.

Long streams are exactly where crashes land, so the miner is
checkpointable: :meth:`StreamingDARMiner.save_checkpoint` serializes the
complete state (every tree's exact node graph, thresholds, scan stats,
row counters) through :mod:`repro.resilience.checkpoint`, and
:meth:`StreamingDARMiner.from_checkpoint` restores a miner that absorbs
the remaining batches with bit-identical results — the ACF Additivity
Theorem (Eq. 7) is what makes the serialized summaries a *complete*
checkpoint.  Ingestion can also run leniently: pass a
:class:`~repro.resilience.sink.RowSink` to :meth:`update` and rows with
non-finite values are quarantined instead of aborting the stream.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.birch.batch import ScanStats
from repro.birch.birch import Phase1Stats
from repro.birch.features import CF
from repro.birch.memory import MemoryModel, ThresholdSchedule
from repro.birch.rebuild import rebuild_tree
from repro.birch.tree import ACFTree
from repro.core.cluster import Cluster
from repro.core.config import DARConfig
from repro.core.miner import DARResult
from repro.core.phase2 import run_phase2
from repro.data.relation import AttributePartition, Relation
from repro.obs import metrics as obs_metrics
from repro.obs.slo import HEALTH_PACK, HealthReport, SLORule, evaluate_pack
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.errors import CheckpointCorruptError, ValidationError

__all__ = ["StreamingDARMiner"]

_CHECKPOINT_KIND = "streaming-darminer"


def _refuse_support_options(
    count_rule_support: bool, rule_support_fraction: Optional[float]
) -> None:
    """Rule support needs a rescan of the tuples, which a stream never keeps."""
    if count_rule_support or rule_support_fraction is not None:
        raise ValueError(
            "StreamingDARMiner keeps no tuples to rescan, so it cannot count "
            "rule support: unset count_rule_support and rule_support_fraction "
            "(or mine the whole relation with DARMiner)"
        )


class StreamingDARMiner:
    """Incrementally mines DARs from arriving tuple batches.

    >>> from repro.data.relation import AttributePartition
    >>> partitions = [AttributePartition("x", ("x",)),
    ...               AttributePartition("y", ("y",))]
    >>> miner = StreamingDARMiner(partitions)   # doctest: +SKIP
    >>> miner.update(first_batch)               # doctest: +SKIP
    >>> early_rules = miner.rules()             # doctest: +SKIP
    >>> miner.update(second_batch)              # doctest: +SKIP
    >>> refined = miner.rules()                 # doctest: +SKIP
    """

    def __init__(
        self,
        partitions: Sequence[AttributePartition],
        config: DARConfig = DARConfig(),
        density_thresholds: Optional[Mapping[str, float]] = None,
    ):
        partition_list = list(partitions)
        if not partition_list:
            raise ValueError("at least one partition is required")
        names = [p.name for p in partition_list]
        if len(set(names)) != len(names):
            raise ValueError(f"partition names must be unique, got {names}")
        _refuse_support_options(
            config.count_rule_support, config.rule_support_fraction
        )
        self.partitions = partition_list
        self.config = config
        self._explicit_density = dict(density_thresholds or {})
        self._density: Optional[Dict[str, float]] = None
        self._trees: Dict[str, ACFTree] = {}
        self._schedules: Dict[str, ThresholdSchedule] = {}
        self._memory_models: Dict[str, MemoryModel] = {}
        self._scan_stats: Dict[str, ScanStats] = {
            p.name: ScanStats() for p in partition_list
        }
        self._n_points = 0
        self._rows_seen = 0
        self._last_checkpoint_monotonic: Optional[float] = None

    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Tuples absorbed so far."""
        return self._n_points

    @property
    def rows_seen(self) -> int:
        """Rows *offered* so far, including any diverted to a sink.

        This is the stream position — what a resuming driver uses to skip
        already-processed input — whereas :attr:`n_points` counts only the
        rows the trees absorbed.
        """
        return self._rows_seen

    @property
    def scan_stats(self) -> Dict[str, ScanStats]:
        """Per-partition batch-scan instrumentation, accumulated over updates."""
        return dict(self._scan_stats)

    @property
    def density_thresholds(self) -> Dict[str, float]:
        """Per-partition ``d0`` fixed by the first batch; raises before data."""
        if self._density is None:
            raise RuntimeError("no data yet: thresholds are fixed by the first batch")
        return dict(self._density)

    def update(self, relation: Relation, sink=None) -> None:
        """Absorb one batch of tuples (schema must cover every partition).

        With ``sink`` (a :class:`~repro.resilience.sink.RowSink`), rows
        containing non-finite values are diverted to it instead of
        aborting the batch; without one any non-finite value raises.
        """
        if len(relation) == 0:
            return
        matrices = {
            p.name: relation.matrix(p.attributes) for p in self.partitions
        }
        self.update_arrays(matrices, sink=sink)

    def update_arrays(self, matrices: Mapping[str, np.ndarray], sink=None) -> None:
        """Absorb a batch given as per-partition matrices with equal rows.

        When observability is enabled the update is traced as a
        ``streaming.update`` span and the per-partition scan deltas are
        published to the metrics registry (see ``docs/OBSERVABILITY.md``).
        """
        before = (
            {name: stats.to_dict() for name, stats in self._scan_stats.items()}
            if obs_metrics.metrics_enabled()
            else None
        )
        with span("streaming.update") as update_span:
            self._update_arrays(matrices, sink=sink)
            update_span.set("rows_seen", self._rows_seen)
            update_span.set("points", self._n_points)
        if before is not None:
            for name, stats in self._scan_stats.items():
                stats.publish(name, since=before[name])
            if self._density is not None:
                self.health().publish()

    def _update_arrays(self, matrices: Mapping[str, np.ndarray], sink=None) -> None:
        faults.fire("streaming.update")
        missing = [p.name for p in self.partitions if p.name not in matrices]
        if missing:
            raise ValueError(f"batch lacks matrices for partitions: {missing}")
        arrays = {
            p.name: np.atleast_2d(np.asarray(matrices[p.name], dtype=np.float64))
            for p in self.partitions
        }
        lengths = {arrays[p.name].shape[0] for p in self.partitions}
        if len(lengths) != 1:
            raise ValueError(f"ragged batch: row counts {sorted(lengths)}")
        (n_rows,) = lengths
        if n_rows == 0:
            return

        offered = n_rows
        if sink is None:
            for name, matrix in arrays.items():
                if not np.all(np.isfinite(matrix)):
                    raise ValidationError(
                        f"batch contains non-finite values in {name!r}"
                    )
        else:
            arrays, n_rows = self._divert_bad_rows(arrays, n_rows, sink)
            if n_rows == 0:
                self._rows_seen += offered
                return

        if self._density is None:
            self._initialize(arrays)

        for partition in self.partitions:
            faults.fire("streaming.partition")
            tree = self._trees[partition.name]
            points = arrays[partition.name]
            cross = {
                p.name: arrays[p.name]
                for p in self.partitions
                if p.name != partition.name
            }
            tree.insert_points(points, cross, stats=self._scan_stats[partition.name])
            self._enforce_budget(partition.name)
        self._n_points += n_rows
        self._rows_seen += offered

    def _divert_bad_rows(self, arrays, n_rows: int, sink):
        """Quarantine rows with non-finite values; return the clean rest.

        Row numbers reported to the sink are *stream* positions (offset by
        :attr:`rows_seen`), so quarantine records stay meaningful across
        batches.
        """
        finite = np.ones(n_rows, dtype=bool)
        per_partition = {}
        for partition in self.partitions:
            ok = np.isfinite(arrays[partition.name]).all(axis=1)
            per_partition[partition.name] = ok
            finite &= ok
        bad_indices = np.flatnonzero(~finite)
        for index in bad_indices:
            culprits = [
                name for name, ok in per_partition.items() if not ok[index]
            ]
            values = tuple(
                value
                for partition in self.partitions
                for value in arrays[partition.name][index].tolist()
            )
            sink.divert(
                self._rows_seen + int(index),
                "non-finite value in partition(s) " + ", ".join(culprits),
                values,
            )
        n_good = int(finite.sum())
        sink.note_ok(n_good)
        if n_good == n_rows:
            return arrays, n_rows
        return (
            {name: matrix[finite] for name, matrix in arrays.items()},
            n_good,
        )

    # ------------------------------------------------------------------

    def _initialize(self, matrices: Mapping[str, np.ndarray]) -> None:
        density: Dict[str, float] = {}
        for partition in self.partitions:
            explicit = self._explicit_density.get(partition.name)
            if explicit is not None:
                density[partition.name] = float(explicit)
            else:
                spread = CF.of_points(
                    np.atleast_2d(np.asarray(matrices[partition.name], float))
                ).rms_diameter
                derived = self.config.density_fraction * spread
                density[partition.name] = derived if derived > 0 else 1e-9
        self._density = density
        for partition in self.partitions:
            cross_dimensions = {
                p.name: p.dimension for p in self.partitions if p.name != partition.name
            }
            self._trees[partition.name] = ACFTree(
                dimension=partition.dimension,
                threshold=density[partition.name],
                branching=self.config.birch.branching,
                leaf_capacity=self.config.birch.leaf_capacity,
                cross_dimensions=cross_dimensions,
            )
            self._schedules[partition.name] = ThresholdSchedule(
                growth_factor=self.config.birch.threshold_growth
            )
            self._memory_models[partition.name] = MemoryModel(
                dimension=partition.dimension,
                cross_dimensions=cross_dimensions,
                branching=self.config.birch.branching,
                leaf_capacity=self.config.birch.leaf_capacity,
            )

    def _enforce_budget(self, name: str) -> None:
        budget = self.config.birch.memory_limit_bytes
        if budget is None:
            return
        tree = self._trees[name]
        model = self._memory_models[name]
        attempts = 0
        while (
            model.tree_bytes(*tree.summary_counts()) > budget
            and attempts < self.config.birch.max_rebuilds_per_overflow
        ):
            tree = rebuild_tree(
                tree,
                self._schedules[name].next_threshold(tree),
                stats=self._scan_stats[name],
            )
            attempts += 1
        self._trees[name] = tree

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The miner's complete state as plain built-in types.

        Everything needed for an exact resume: config, partition layout,
        the density thresholds fixed by the first batch, every tree's
        structural state (see :meth:`ACFTree.state_dict` — this also
        quiesces the trees' batch engines so the checkpointed run and a
        resumed run evolve identically from here on), threshold schedules,
        accumulated scan stats, and the row counters.
        """
        return {
            "kind": _CHECKPOINT_KIND,
            "config": asdict(self.config),
            "partitions": [
                {
                    "name": p.name,
                    "attributes": list(p.attributes),
                    "metric": p.metric,
                }
                for p in self.partitions
            ],
            "explicit_density": dict(self._explicit_density),
            "density": dict(self._density) if self._density is not None else None,
            "trees": {
                name: tree.state_dict() for name, tree in self._trees.items()
            },
            "schedules": {
                name: schedule.state_dict()
                for name, schedule in self._schedules.items()
            },
            "scan_stats": {
                name: stats.to_dict() for name, stats in self._scan_stats.items()
            },
            "n_points": self._n_points,
            "rows_seen": self._rows_seen,
        }

    def save_checkpoint(self, path: Union[str, Path]):
        """Write the full state to ``path`` atomically.

        Returns a :class:`~repro.resilience.checkpoint.CheckpointInfo`
        (size and timing, surfaced by the CLI ``--stats``).  A crash
        mid-save leaves any previous checkpoint at ``path`` intact.
        """
        from repro.resilience.checkpoint import write_checkpoint

        info = write_checkpoint(self.state_dict(), path)
        self._last_checkpoint_monotonic = time.monotonic()
        return info

    @classmethod
    def from_checkpoint(cls, path: Union[str, Path]) -> "StreamingDARMiner":
        """Restore a miner from :meth:`save_checkpoint` output.

        The restored miner absorbs subsequent batches with bit-identical
        results to the original: leaf moments, routing decisions and the
        eventual rule set all match an uninterrupted run fed the same
        stream.  Raises the :mod:`repro.resilience.errors` checkpoint
        errors on damaged or incompatible files, and ``ValueError`` on a
        checkpoint whose config asks for rule support counting.
        """
        from repro.resilience.checkpoint import read_checkpoint

        state = read_checkpoint(path)
        if state.get("kind") != _CHECKPOINT_KIND:
            raise CheckpointCorruptError(
                f"{path}: checkpoint holds a {state.get('kind')!r} state, "
                f"not a {_CHECKPOINT_KIND!r}"
            )
        config_state = state.get("config")
        if isinstance(config_state, Mapping):
            _refuse_support_options(
                config_state.get("count_rule_support"),
                config_state.get("rule_support_fraction"),
            )
        try:
            miner = cls._from_state(state)
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointCorruptError(
                f"{path}: checkpoint payload is structurally invalid: {error}"
            ) from error
        return miner

    @classmethod
    def _from_state(cls, state: Mapping[str, object]) -> "StreamingDARMiner":
        config_state = dict(state["config"])  # type: ignore[arg-type]
        # Checkpoints from before Phase II had one engine record the
        # retired engine choice; every value mines the same rules.
        config_state.pop("phase2_engine", None)
        if isinstance(config_state.get("birch"), Mapping):
            # Checkpoints from before the per-point scan option and the
            # scan batch size were retired still record them; neither
            # changes the clusters any more.
            config_state["birch"] = {
                key: value
                for key, value in config_state["birch"].items()
                if key not in ("batch_insert", "scan_chunk_rows")
            }
        config = DARConfig.from_mapping(config_state)
        partitions = [
            AttributePartition(
                name=p["name"],
                attributes=tuple(p["attributes"]),
                metric=p.get("metric", "euclidean"),
            )
            for p in state["partitions"]
        ]
        miner = cls(
            partitions,
            config,
            density_thresholds={
                name: float(value)
                for name, value in state["explicit_density"].items()
            },
        )
        density = state["density"]
        if density is not None:
            miner._density = {name: float(value) for name, value in density.items()}
            miner._trees = {
                name: ACFTree.from_state(tree_state)
                for name, tree_state in state["trees"].items()
            }
            miner._schedules = {
                name: ThresholdSchedule.from_state(schedule_state)
                for name, schedule_state in state["schedules"].items()
            }
            # Memory models carry no evolving state; recreate them exactly
            # as _initialize does.
            for partition in miner.partitions:
                miner._memory_models[partition.name] = MemoryModel(
                    dimension=partition.dimension,
                    cross_dimensions={
                        p.name: p.dimension
                        for p in miner.partitions
                        if p.name != partition.name
                    },
                    branching=config.birch.branching,
                    leaf_capacity=config.birch.leaf_capacity,
                )
            missing = {p.name for p in miner.partitions} - set(miner._trees)
            if missing:
                raise ValueError(f"trees missing for partitions {sorted(missing)}")
        miner._scan_stats = {
            name: ScanStats.from_dict(stats_state)
            for name, stats_state in state["scan_stats"].items()
        }
        miner._n_points = int(state["n_points"])
        miner._rows_seen = int(state["rows_seen"])
        # The checkpoint we just read is, by definition, current.
        miner._last_checkpoint_monotonic = time.monotonic()
        return miner

    # ------------------------------------------------------------------

    def health(self, rules: Optional[Sequence[SLORule]] = None) -> HealthReport:
        """Grade the miner's live state as ``ok`` / ``warn`` / ``crit``.

        Monitors the slow failure modes of a long stream: total leaf
        entries across trees, density-threshold inflation relative to the
        first batch (memory-pressure escalations coarsen summaries), the
        accumulated rebuild count, the quarantine rate (rows offered but
        not absorbed), and — once checkpointing has started — the age of
        the last successful checkpoint.  ``rules`` grades those readings
        (default :data:`repro.obs.slo.HEALTH_PACK`).
        """
        if self._density is None:
            raise RuntimeError("no data yet: health is defined after the first batch")
        readings = {
            "repro_phase1_entry_count": sum(
                tree.summary_counts()[0] for tree in self._trees.values()
            ),
            "repro_phase1_threshold_inflation": max(
                (
                    tree.threshold / self._density[name]
                    if self._density[name] > 0
                    else 1.0
                    for name, tree in self._trees.items()
                ),
                default=1.0,
            ),
            "repro_phase1_rebuilds_total": sum(
                stats.rebuilds for stats in self._scan_stats.values()
            ),
            "repro_quarantined_rows_total": self._rows_seen - self._n_points,
            "repro_rows_seen_total": self._rows_seen,
        }
        if self._last_checkpoint_monotonic is not None:
            readings["repro_checkpoint_age_seconds"] = (
                time.monotonic() - self._last_checkpoint_monotonic
            )
        report = evaluate_pack(HEALTH_PACK if rules is None else rules, readings)
        return report.to_health_report(prefix="", skipped=False)

    def rules(self) -> DARResult:
        """Materialize the current rule set from the live summaries.

        Runs the summary-only Phase II (graph, cliques, assoc sets) on a
        snapshot of each tree's entries.  Cheap relative to the stream —
        the paper's §7.2 point that Phase II cost tracks data complexity,
        not data volume, is exactly what makes an anytime API viable.
        """
        if self._density is None or self._n_points == 0:
            raise RuntimeError("no data absorbed yet")
        frequency_count = max(
            1, math.ceil(self.config.frequency_fraction * self._n_points)
        )
        degree = {
            p.name: self.config.degree_threshold(p.name, self._density[p.name])
            for p in self.partitions
        }

        uid = itertools.count()
        all_clusters: Dict[str, List[Cluster]] = {}
        frequent_clusters: Dict[str, List[Cluster]] = {}
        for partition in self.partitions:
            clusters = [
                Cluster(uid=next(uid), partition=partition, acf=acf.copy())
                for acf in self._trees[partition.name].entries()
            ]
            all_clusters[partition.name] = clusters
            frequent = [c for c in clusters if c.n >= frequency_count]
            if frequent:
                frequent_clusters[partition.name] = frequent

        graph, cliques, rules, phase2 = run_phase2(
            self.config,
            frequent_clusters,
            self._density,
            degree,
            n_clusters=sum(len(g) for g in all_clusters.values()),
            span_attributes={"streaming": True},
        )

        # A streaming run has no single Phase I pass; expose the live
        # per-partition scan instrumentation in the same slot the batch
        # miner uses so downstream reporting is uniform.
        phase1 = {
            p.name: Phase1Stats(
                points_inserted=self._n_points,
                final_entry_count=len(all_clusters[p.name]),
                scan=self._scan_stats[p.name],
            )
            for p in self.partitions
        }

        return DARResult(
            rules=rules,
            frequent_clusters=frequent_clusters,
            all_clusters=all_clusters,
            graph=graph,
            cliques=cliques,
            density_thresholds=dict(self._density),
            degree_thresholds=degree,
            frequency_count=frequency_count,
            phase1=phase1,
            phase2=phase2,
        )
