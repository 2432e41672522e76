"""Immutable, versioned rule snapshots in columnar form.

A :class:`RuleSnapshot` is a ``DARResult`` compiled for serving: rule
measures packed into flat numpy columns (degree, support, CSR-encoded
antecedent/consequent cluster uids with per-consequent degrees), the
rendered ``str(rule)`` descriptions (which double as the deterministic
tie-break key the query engine shares with
:func:`~repro.serve.query.apply_query`), every referenced cluster's
JSON descriptor, and inverted indexes mapping partition names to the
rule ids that mention them on each side.  Rule id = position in the
result's ``rules`` list, so ids are stable across save/load and
comparable against direct ``DARResult`` filtering.

Persistence reuses the resilience layer's versioned+CRC checkpoint
container (:mod:`repro.resilience.checkpoint`): floats round-trip
through JSON ``repr`` exactly, so a loaded snapshot's ``state_dict`` is
bit-identical to the saved one.  :func:`compile_snapshot` is the
any-source entry point — a ``DARResult``, an existing snapshot file, or
a streaming-miner checkpoint (which is restored and asked for its
current rules).
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.checkpoint import read_checkpoint, write_checkpoint
from repro.resilience.errors import CheckpointCorruptError

__all__ = ["SNAPSHOT_KIND", "RuleSnapshot", "compile_snapshot"]

#: The ``kind`` tag distinguishing snapshot checkpoints from streaming ones.
SNAPSHOT_KIND = "rule-snapshot"

#: Bump when the snapshot ``state_dict`` layout changes meaning.
SNAPSHOT_STATE_VERSION = 1

PathLike = Union[str, Path]


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class RuleSnapshot:
    """One compiled, immutable rule set ready for query serving.

    Construct via :meth:`from_result`, :meth:`from_state` or :meth:`load`
    — the constructor takes already-validated columns.  Instances are
    treated as frozen: the publisher swaps whole snapshots instead of
    mutating one, so readers can keep using a reference with no locking.
    """

    def __init__(
        self,
        *,
        version: int,
        created_at: str,
        degree: np.ndarray,
        support: np.ndarray,
        ant_offsets: np.ndarray,
        ant_uids: np.ndarray,
        con_offsets: np.ndarray,
        con_uids: np.ndarray,
        con_degrees: np.ndarray,
        descriptions: List[str],
        clusters: Dict[int, Dict[str, Any]],
        partitions: List[str],
        density_thresholds: Dict[str, float],
        degree_thresholds: Dict[str, float],
        frequency_count: int,
    ):
        self.version = int(version)
        self.created_at = created_at
        self.degree = np.asarray(degree, dtype=np.float64)
        self.support = np.asarray(support, dtype=np.int64)
        self.ant_offsets = np.asarray(ant_offsets, dtype=np.int64)
        self.ant_uids = np.asarray(ant_uids, dtype=np.int64)
        self.con_offsets = np.asarray(con_offsets, dtype=np.int64)
        self.con_uids = np.asarray(con_uids, dtype=np.int64)
        self.con_degrees = np.asarray(con_degrees, dtype=np.float64)
        self.descriptions = list(descriptions)
        self.clusters = dict(clusters)
        self.partitions = list(partitions)
        self.density_thresholds = dict(density_thresholds)
        self.degree_thresholds = dict(degree_thresholds)
        self.frequency_count = int(frequency_count)
        if not (
            len(self.degree)
            == len(self.support)
            == len(self.descriptions)
            == len(self.ant_offsets) - 1
            == len(self.con_offsets) - 1
        ):
            raise ValueError("snapshot columns disagree on the rule count")
        self.antecedent_index: Dict[str, np.ndarray] = {}
        self.consequent_index: Dict[str, np.ndarray] = {}
        self._build_indexes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_result(cls, result, *, version: int = 1) -> "RuleSnapshot":
        """Compile a ``DARResult`` into a snapshot (rule id = list position)."""
        from repro.report.export import cluster_to_dict

        started_span = span("serve.compile", rules=len(result.rules))
        with started_span:
            rules = list(result.rules)
            degree = np.empty(len(rules), dtype=np.float64)
            support = np.empty(len(rules), dtype=np.int64)
            ant_offsets = np.zeros(len(rules) + 1, dtype=np.int64)
            con_offsets = np.zeros(len(rules) + 1, dtype=np.int64)
            ant_uids: List[int] = []
            con_uids: List[int] = []
            con_degrees: List[float] = []
            # Distinct clusters in first-occurrence order; each is
            # described once below, however many rules mention it.
            referenced: Dict[int, Any] = {}
            for i, rule in enumerate(rules):
                degree[i] = float(rule.degree)
                support[i] = -1 if rule.support_count is None else int(rule.support_count)
                for cluster in rule.antecedent:
                    ant_uids.append(cluster.uid)
                    referenced.setdefault(cluster.uid, cluster)
                for cluster in rule.consequent:
                    con_uids.append(cluster.uid)
                    con_degrees.append(float(rule.degrees.get(cluster.uid, rule.degree)))
                    referenced.setdefault(cluster.uid, cluster)
                ant_offsets[i + 1] = len(ant_uids)
                con_offsets[i + 1] = len(con_uids)
            snapshot = cls(
                version=version,
                created_at=_utc_now(),
                degree=degree,
                support=support,
                ant_offsets=ant_offsets,
                ant_uids=np.asarray(ant_uids, dtype=np.int64),
                con_offsets=con_offsets,
                con_uids=np.asarray(con_uids, dtype=np.int64),
                con_degrees=np.asarray(con_degrees, dtype=np.float64),
                descriptions=[str(rule) for rule in rules],
                clusters={
                    uid: cluster_to_dict(cluster)
                    for uid, cluster in referenced.items()
                },
                partitions=sorted(result.density_thresholds),
                density_thresholds={
                    k: float(v) for k, v in result.density_thresholds.items()
                },
                degree_thresholds={
                    k: float(v) for k, v in result.degree_thresholds.items()
                },
                frequency_count=int(result.frequency_count),
            )
        if obs_metrics.metrics_enabled():
            obs_metrics.inc(
                "repro_serve_compiles_total", help="Rule snapshots compiled"
            )
        return snapshot

    def _build_indexes(self) -> None:
        """Derive the partition → rule-id inverted indexes from the CSR
        columns (rebuilt on load — derived state is never persisted)."""
        self.antecedent_index = self._partition_index(self.ant_offsets, self.ant_uids)
        self.consequent_index = self._partition_index(self.con_offsets, self.con_uids)

    def _partition_index(
        self, offsets: np.ndarray, uids: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Partition name → sorted unique ids of the rules whose side
        (given as CSR ``offsets``/``uids``) mentions that partition."""
        rule_ids = np.repeat(np.arange(self.n_rules, dtype=np.int64), np.diff(offsets))
        distinct, inverse = np.unique(uids, return_inverse=True)
        codes: Dict[str, int] = {}
        partition_of = np.array(
            [
                codes.setdefault(self.clusters[int(uid)]["partition"], len(codes))
                for uid in distinct
            ],
            dtype=np.int64,
        )
        per_occurrence = partition_of[inverse]
        return {
            name: np.unique(rule_ids[per_occurrence == code])
            for name, code in codes.items()
        }

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    @property
    def n_rules(self) -> int:
        """How many rules the snapshot holds."""
        return len(self.degree)

    def antecedent_uids(self, rule_id: int) -> Tuple[int, ...]:
        """The antecedent cluster uids of one rule, in rule order."""
        lo, hi = self.ant_offsets[rule_id], self.ant_offsets[rule_id + 1]
        return tuple(int(u) for u in self.ant_uids[lo:hi])

    def consequent_uids(self, rule_id: int) -> Tuple[int, ...]:
        """The consequent cluster uids of one rule, in rule order."""
        lo, hi = self.con_offsets[rule_id], self.con_offsets[rule_id + 1]
        return tuple(int(u) for u in self.con_uids[lo:hi])

    def rule_dict(self, rule_id: int) -> Dict[str, Any]:
        """One rule as a JSON-ready dict (the ``/rules`` response row).

        Matches :func:`repro.report.export.rule_to_dict` plus the stable
        ``id`` and the rendered ``description``.
        """
        if not 0 <= rule_id < self.n_rules:
            raise IndexError(f"no rule with id {rule_id}")
        lo, hi = self.con_offsets[rule_id], self.con_offsets[rule_id + 1]
        support = int(self.support[rule_id])
        return {
            "id": int(rule_id),
            "antecedent": list(self.antecedent_uids(rule_id)),
            "consequent": list(self.consequent_uids(rule_id)),
            "degree": float(self.degree[rule_id]),
            "degrees": {
                str(int(uid)): float(value)
                for uid, value in zip(self.con_uids[lo:hi], self.con_degrees[lo:hi])
            },
            "support_count": None if support < 0 else support,
            "description": self.descriptions[rule_id],
        }

    def describe(self) -> str:
        """One status line (the CLI/serve banner)."""
        return (
            f"snapshot v{self.version}: {self.n_rules} rules over "
            f"{len(self.partitions)} partitions, {len(self.clusters)} clusters, "
            f"compiled {self.created_at}"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to reconstruct the snapshot, as JSON built-ins."""
        return {
            "kind": SNAPSHOT_KIND,
            "state_version": SNAPSHOT_STATE_VERSION,
            "version": self.version,
            "created_at": self.created_at,
            "partitions": list(self.partitions),
            "density_thresholds": dict(self.density_thresholds),
            "degree_thresholds": dict(self.degree_thresholds),
            "frequency_count": self.frequency_count,
            "rules": {
                "degree": [float(v) for v in self.degree],
                "support": [int(v) for v in self.support],
                "ant_offsets": [int(v) for v in self.ant_offsets],
                "ant_uids": [int(v) for v in self.ant_uids],
                "con_offsets": [int(v) for v in self.con_offsets],
                "con_uids": [int(v) for v in self.con_uids],
                "con_degrees": [float(v) for v in self.con_degrees],
                "descriptions": list(self.descriptions),
            },
            "clusters": {str(uid): entry for uid, entry in self.clusters.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RuleSnapshot":
        """Rebuild a snapshot from :meth:`state_dict` output."""
        if state.get("kind") != SNAPSHOT_KIND:
            raise CheckpointCorruptError(
                f"state holds a {state.get('kind')!r} payload, not a "
                f"{SNAPSHOT_KIND!r}"
            )
        if state.get("state_version") != SNAPSHOT_STATE_VERSION:
            raise CheckpointCorruptError(
                f"snapshot state version {state.get('state_version')!r} is not "
                f"supported (this build reads version {SNAPSHOT_STATE_VERSION})"
            )
        columns = state["rules"]
        return cls(
            version=int(state["version"]),
            created_at=str(state["created_at"]),
            degree=np.asarray(columns["degree"], dtype=np.float64),
            support=np.asarray(columns["support"], dtype=np.int64),
            ant_offsets=np.asarray(columns["ant_offsets"], dtype=np.int64),
            ant_uids=np.asarray(columns["ant_uids"], dtype=np.int64),
            con_offsets=np.asarray(columns["con_offsets"], dtype=np.int64),
            con_uids=np.asarray(columns["con_uids"], dtype=np.int64),
            con_degrees=np.asarray(columns["con_degrees"], dtype=np.float64),
            descriptions=list(columns["descriptions"]),
            clusters={int(uid): entry for uid, entry in state["clusters"].items()},
            partitions=list(state["partitions"]),
            density_thresholds=dict(state["density_thresholds"]),
            degree_thresholds=dict(state["degree_thresholds"]),
            frequency_count=int(state["frequency_count"]),
        )

    def save(self, path: PathLike):
        """Persist atomically via the checkpoint container; returns its
        :class:`~repro.resilience.checkpoint.CheckpointInfo`."""
        return write_checkpoint(self.state_dict(), path)

    @classmethod
    def load(cls, path: PathLike) -> "RuleSnapshot":
        """Load a snapshot written by :meth:`save` (CRC-verified)."""
        state = read_checkpoint(path)
        if state.get("kind") != SNAPSHOT_KIND:
            raise CheckpointCorruptError(
                f"{path}: checkpoint holds a {state.get('kind')!r} state, not "
                f"a {SNAPSHOT_KIND!r}"
            )
        return cls.from_state(state)


def compile_snapshot(
    source, *, version: int = 1, existing_version: Optional[int] = None
) -> "RuleSnapshot":
    """Turn any rule source into a :class:`RuleSnapshot`.

    Accepts, in order of directness: a ready snapshot (returned as-is,
    or re-versioned via ``existing_version``), a ``DARResult``, or a
    path to either a snapshot checkpoint or a streaming-miner checkpoint
    (the latter is restored and its current :meth:`rules` compiled).
    Anything else raises ``TypeError``.
    """
    if isinstance(source, RuleSnapshot):
        if existing_version is not None and source.version != existing_version:
            source.version = int(existing_version)
        return source
    if hasattr(source, "rules") and hasattr(source, "density_thresholds"):
        return RuleSnapshot.from_result(source, version=version)
    if isinstance(source, (str, Path)):
        state = read_checkpoint(source)
        kind = state.get("kind")
        if kind == SNAPSHOT_KIND:
            snapshot = RuleSnapshot.from_state(state)
            if existing_version is not None:
                snapshot.version = int(existing_version)
            return snapshot
        if kind == "streaming-darminer":
            from repro.core.streaming import StreamingDARMiner

            miner = StreamingDARMiner.from_checkpoint(source)
            return RuleSnapshot.from_result(miner.rules(), version=version)
        raise CheckpointCorruptError(
            f"{source}: checkpoint holds a {kind!r} state; expected a "
            f"{SNAPSHOT_KIND!r} or 'streaming-darminer' checkpoint"
        )
    raise TypeError(
        "compile_snapshot needs a DARResult, a RuleSnapshot, or a checkpoint "
        f"path, got {type(source).__name__!r}"
    )
