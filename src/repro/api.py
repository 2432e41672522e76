"""The stable high-level entrypoint: :func:`repro.mine`.

One call runs both phases of the paper's algorithm with sensible
defaults and returns the full :class:`~repro.core.miner.DARResult`.  The
facade is intentionally tiny — everything it does is also reachable
through :class:`~repro.core.miner.DARMiner` — but its signature is the
compatibility contract: scripts, the CLI and the examples all go through
it, so the deeper modules stay free to refactor.

Quickstart::

    import repro

    relation, _ = repro.make_planted_rule_relation(seed=7)
    result = repro.mine(relation)
    for rule in result.rules_sorted()[:5]:
        print(rule)

``config`` accepts either a :class:`~repro.core.config.DARConfig` or a
plain mapping of its fields (forwarded to
:meth:`~repro.core.config.DARConfig.from_mapping`), so JSON/TOML-driven
runs need no imports beyond ``repro`` itself.

To watch a mine run, wrap the call with :mod:`repro.obs`
(``obs.enable()`` / ``obs.get_tracer().to_chrome(...)``) — every phase
of the pipeline underneath this facade is instrumented; see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Union

from repro.core.config import DARConfig
from repro.core.miner import DARResult
from repro.data.columnar import ColumnStore
from repro.data.relation import AttributePartition, Relation

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.resilience.guard import GuardPolicy

__all__ = ["mine"]


def mine(
    relation: Union[Relation, ColumnStore],
    *,
    config: Optional[Union[DARConfig, Mapping[str, Any]]] = None,
    partitions: Optional[Sequence[AttributePartition]] = None,
    targets: Optional[Sequence[str]] = None,
    policy: Optional["GuardPolicy"] = None,
    engine: str = "serial",
    workers: Optional[int] = None,
) -> DARResult:
    """Mine distance-based association rules from ``relation``.

    Equivalent to ``DARMiner(config).mine(relation, partitions, targets)``
    on a clean run, but wrapped in the graceful-degradation ladder of
    :func:`repro.resilience.guard.guarded_mine`: bad input fails fast
    with a precise :class:`~repro.resilience.errors.ValidationError`,
    memory exhaustion escalates the density thresholds and retries
    (recorded in ``result.phase2.events``), and a structurally corrupt
    result is never returned.

    ``relation`` may also be a memory-mapped
    :class:`~repro.data.columnar.ColumnStore` (from
    ``load_csv(..., out_of_core=True)`` or the
    :class:`~repro.data.columnar.ColumnStore` constructors): Phase I then
    scans it chunk by chunk so datasets larger than RAM mine in bounded
    memory, and a columnar backend failure degrades to an in-memory
    retry (recorded in ``result.phase2.events``).  Either engine mines a
    store; parallel workers map its column files read-only.

    ``config`` — a :class:`DARConfig`, a mapping of its fields, or ``None``
    for the paper's defaults.  ``partitions`` — the attribute partitioning
    (default: one partition per interval attribute).  ``targets`` — names
    of partitions rules may conclude about (the Section 5.2 N:1
    application); ``None`` mines all consequents.  ``policy`` — a
    :class:`~repro.resilience.guard.GuardPolicy` tuning the ladder.

    ``engine="parallel"`` fans the Phase I partition scans out over
    ``workers`` processes via :class:`repro.parallel.ParallelDARMiner`
    (Phase II runs in process on every engine); results are bit-identical
    to the serial engine, and a worker-pool failure degrades to serial
    with the event recorded in ``result.phase2.events``.  The worker
    count resolves in a fixed order (see
    :func:`repro.parallel.executor.resolve_workers`): an explicit
    positive ``workers`` wins; ``None`` or 0 means *auto* — the
    ``REPRO_WORKERS`` environment variable when set, else
    ``os.cpu_count()``, else 1.
    """
    from repro.resilience.guard import guarded_mine

    if config is None:
        config = DARConfig()
    elif isinstance(config, Mapping):
        config = DARConfig.from_mapping(config)
    elif not isinstance(config, DARConfig):
        raise TypeError(
            f"config must be a DARConfig or a mapping of its fields, "
            f"got {type(config).__name__}"
        )
    return guarded_mine(
        relation,
        config=config,
        partitions=partitions,
        targets=targets,
        policy=policy,
        engine=engine,
        workers=workers,
    )
