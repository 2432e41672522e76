"""The unified rule-query surface: ``RuleQuery``, ``apply_query``, ``QueryEngine``.

One query vocabulary serves three callers: ``DARResult.rules(...)`` on a
fresh mining result, :class:`QueryEngine` over a compiled
:class:`~repro.serve.snapshot.RuleSnapshot`, and the HTTP query-string
parser of :mod:`repro.serve.http`.  All three accept the same frozen
:class:`RuleQuery`, so an answer computed from columnar snapshot arrays
is, rule-id for rule-id, the answer the source result would give — a
property the serve test suite checks by construction.

:func:`apply_query` is the reference semantics: it composes the existing
post-processing primitives (:func:`~repro.core.postprocess.filter_by_consequent`,
:func:`~repro.core.postprocess.filter_by_antecedent`,
:func:`~repro.core.postprocess.prune_redundant`,
:func:`~repro.core.postprocess.select_rules`) in a fixed order —
targets, antecedents, degree band, redundancy pruning, support, final
``(degree, -support, str(rule))`` ranking, top-k.  :class:`QueryEngine`
mirrors that order over snapshot columns and memoizes answers in a
thread-safe LRU cache, publishing ``repro_serve_*`` cache-hit and latency
metrics through :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlencode

from repro.core.postprocess import (
    filter_by_antecedent,
    filter_by_consequent,
    irredundant,
    prune_redundant,
    select_rules,
)
from repro.obs import metrics as obs_metrics

__all__ = ["RuleQuery", "QueryAnswer", "QueryEngine", "apply_query"]


def _as_name_tuple(value: Union[str, Iterable[str]], label: str) -> Tuple[str, ...]:
    """Normalize a partition-name constraint to a sorted, deduplicated tuple."""
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    else:
        names = [str(name) for name in value]
    if not names:
        raise ValueError(f"{label}, when given, must name at least one partition")
    return tuple(sorted(set(names)))


@dataclass(frozen=True)
class RuleQuery:
    """One declarative rule query — the argument every query surface takes.

    Fields mirror the post-processing vocabulary the CLI and
    :mod:`repro.core.postprocess` grew organically; a ``RuleQuery`` is
    hashable (tuples only), so it doubles as the :class:`QueryEngine`
    cache key.  ``targets``/``antecedents`` accept a comma-separated
    string or any iterable of partition names and are canonicalized to
    sorted tuples; numeric bounds are validated eagerly so a bad query
    fails at construction, not mid-serve.
    """

    targets: Optional[Tuple[str, ...]] = None
    antecedents: Optional[Tuple[str, ...]] = None
    min_degree: Optional[float] = None
    max_degree: Optional[float] = None
    min_support: Optional[int] = None
    top_k: Optional[int] = None
    prune_redundant: bool = False

    def __post_init__(self) -> None:
        if self.targets is not None:
            object.__setattr__(self, "targets", _as_name_tuple(self.targets, "targets"))
        if self.antecedents is not None:
            object.__setattr__(
                self, "antecedents", _as_name_tuple(self.antecedents, "antecedents")
            )
        for name in ("min_degree", "max_degree"):
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a non-negative finite number")
            object.__setattr__(self, name, value)
        if (
            self.min_degree is not None
            and self.max_degree is not None
            and self.min_degree > self.max_degree
        ):
            raise ValueError("min_degree cannot exceed max_degree")
        if self.min_support is not None:
            object.__setattr__(self, "min_support", int(self.min_support))
            if self.min_support < 0:
                raise ValueError("min_support must be non-negative")
        if self.top_k is not None:
            object.__setattr__(self, "top_k", int(self.top_k))
            if self.top_k < 1:
                raise ValueError("top_k must be at least 1")
        object.__setattr__(self, "prune_redundant", bool(self.prune_redundant))

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------

    @classmethod
    def coerce(
        cls,
        query: Optional["RuleQuery"] = None,
        kwargs: Optional[Mapping[str, Any]] = None,
    ) -> "RuleQuery":
        """The one ``(query, **kwargs)`` normalization every surface shares.

        Accepts a ready :class:`RuleQuery`, bare keyword arguments, or
        nothing (the match-everything query).  Passing both a query
        object and keywords is ambiguous and raises.
        """
        kwargs = dict(kwargs or {})
        if query is not None:
            if kwargs:
                raise ValueError(
                    "pass either a RuleQuery or keyword filters, not both"
                )
            if not isinstance(query, cls):
                raise TypeError(
                    f"expected a RuleQuery, got {type(query).__name__!r}"
                )
            return query
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(
                f"unknown query field(s) {unknown}; accepted: {sorted(known)}"
            )
        return cls(**kwargs)

    @classmethod
    def from_query_string(cls, query_string: str) -> "RuleQuery":
        """Parse an HTTP query string (``targets=a,b&top_k=5``) into a query.

        List-valued fields take comma-separated values (a repeated
        parameter also works); ``prune_redundant`` accepts
        ``1/true/yes/on`` (and their negations).  Unknown parameters
        raise ``ValueError`` naming the accepted ones, which the HTTP
        layer maps to a 400 response.
        """
        merged: Dict[str, str] = {}
        for key, value in parse_qsl(query_string, keep_blank_values=True):
            merged[key] = f"{merged[key]},{value}" if key in merged else value
        kwargs: Dict[str, Any] = {}
        for key, value in merged.items():
            if key in ("targets", "antecedents"):
                kwargs[key] = value
            elif key in ("min_degree", "max_degree"):
                kwargs[key] = _parse_number(key, value, float)
            elif key in ("min_support", "top_k"):
                kwargs[key] = _parse_number(key, value, int)
            elif key == "prune_redundant":
                kwargs[key] = _parse_bool(key, value)
            else:
                accepted = sorted(f.name for f in fields(cls))
                raise ValueError(
                    f"unknown query parameter {key!r}; accepted: {accepted}"
                )
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The non-default constraints as plain built-ins (JSON-ready)."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None or value is False:
                continue
            out[spec.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_query_string(self) -> str:
        """The query as an HTTP query string; round-trips through
        :meth:`from_query_string`."""
        pairs = []
        for name, value in self.to_dict().items():
            if isinstance(value, list):
                pairs.append((name, ",".join(value)))
            elif isinstance(value, bool):
                pairs.append((name, "1"))
            else:
                pairs.append((name, repr(value) if isinstance(value, float) else str(value)))
        return urlencode(pairs)

    @property
    def is_unconstrained(self) -> bool:
        """True when the query matches every rule (no filters, no cap)."""
        return not self.to_dict()


def _parse_number(key: str, value: str, kind: type):
    """Parse one numeric query-string parameter, naming it on failure."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"query parameter {key!r} must be a {kind.__name__}, "
                         f"got {value!r}")


def _parse_bool(key: str, value: str) -> bool:
    """Parse one boolean query-string parameter (``1/true/yes/on`` etc.)."""
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on", ""):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"query parameter {key!r} must be a boolean, got {value!r}")


def apply_query(rules: Iterable, query: Optional[RuleQuery] = None, **kwargs) -> List:
    """Filter and rank ``rules`` per ``query`` — the reference semantics.

    Stage order is fixed and shared with :class:`QueryEngine`: consequent
    targets, antecedent restriction, ``min_degree``, redundancy pruning,
    then :func:`~repro.core.postprocess.select_rules` for ``max_degree``,
    ``min_support``, the canonical strongest-first ordering and ``top_k``.
    Accepts the same ``(query, **kwargs)`` forms as every other surface.
    """
    resolved = RuleQuery.coerce(query, kwargs)
    selected = list(rules)
    if resolved.targets is not None:
        selected = filter_by_consequent(selected, resolved.targets)
    if resolved.antecedents is not None:
        selected = filter_by_antecedent(selected, resolved.antecedents)
    if resolved.min_degree is not None:
        selected = [rule for rule in selected if rule.degree >= resolved.min_degree]
    if resolved.prune_redundant:
        selected = prune_redundant(selected)
    return select_rules(
        selected,
        max_degree=resolved.max_degree,
        min_support=resolved.min_support,
        top_k=resolved.top_k,
    )


@dataclass(frozen=True)
class QueryAnswer:
    """One :class:`QueryEngine` answer: matching rule ids plus provenance.

    ``ids`` are snapshot rule ids (positions in the compile-order rule
    list), already ranked strongest-first and truncated to ``top_k``.
    ``version`` names the snapshot that produced the answer and
    ``cached`` whether it came from the LRU cache; ``seconds`` is this
    call's latency (near-zero for hits).
    """

    ids: Tuple[int, ...]
    version: int
    total_rules: int
    cached: bool
    seconds: float
    snapshot: Any = field(repr=False, compare=False, default=None)

    def __len__(self) -> int:
        return len(self.ids)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """The matching rules rendered as JSON-ready dicts, in rank order."""
        if self.snapshot is None:
            raise RuntimeError("answer is detached from its snapshot")
        return [self.snapshot.rule_dict(rule_id) for rule_id in self.ids]


class QueryEngine:
    """Answers :class:`RuleQuery` instances over one immutable snapshot.

    The engine never touches :class:`~repro.core.rules.DistanceRule`
    objects: it filters the snapshot's columnar arrays with the same
    stage order as :func:`apply_query` and the same tie-breaking keys
    (the stored ``str(rule)`` descriptions), so the returned ids match a
    direct filter of the source ``DARResult`` exactly.  Answers are
    memoized in a thread-safe LRU keyed by the (hashable) query; the
    snapshot is immutable, so cached answers never go stale.
    """

    def __init__(self, snapshot, cache_size: int = 256):
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.snapshot = snapshot
        self.cache_size = cache_size
        self._cache: "OrderedDict[RuleQuery, Tuple[int, ...]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------

    def query(self, query: Optional[RuleQuery] = None, **kwargs) -> QueryAnswer:
        """Answer one query, serving from the LRU cache when possible."""
        resolved = RuleQuery.coerce(query, kwargs)
        started = time.perf_counter()
        with self._lock:
            cached_ids = self._cache.get(resolved)
            if cached_ids is not None:
                self._cache.move_to_end(resolved)
                self._hits += 1
        if cached_ids is not None:
            seconds = time.perf_counter() - started
            self._publish(cache="hit", seconds=seconds)
            return QueryAnswer(
                ids=cached_ids,
                version=self.snapshot.version,
                total_rules=self.snapshot.n_rules,
                cached=True,
                seconds=seconds,
                snapshot=self.snapshot,
            )
        ids = tuple(self._evaluate(resolved))
        with self._lock:
            self._misses += 1
            if self.cache_size:
                self._cache[resolved] = ids
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    obs_metrics.inc(
                        "repro_serve_cache_evictions_total",
                        help="Query-cache entries evicted by the LRU policy",
                    )
        seconds = time.perf_counter() - started
        self._publish(cache="miss", seconds=seconds)
        return QueryAnswer(
            ids=ids,
            version=self.snapshot.version,
            total_rules=self.snapshot.n_rules,
            cached=False,
            seconds=seconds,
            snapshot=self.snapshot,
        )

    # ------------------------------------------------------------------

    def _evaluate(self, query: RuleQuery) -> List[int]:
        """The uncached path: mirror :func:`apply_query` over columns."""
        import numpy as np

        snap = self.snapshot
        mask = np.ones(snap.n_rules, dtype=bool)
        if query.targets is not None:
            # consequent ⊆ targets  ⇔  the rule's consequent mentions no
            # partition outside the target set — exclusion via the
            # inverted index is exact and touches only non-target lists.
            allowed = set(query.targets)
            for name, ids in snap.consequent_index.items():
                if name not in allowed:
                    mask[ids] = False
        if query.antecedents is not None:
            allowed = set(query.antecedents)
            for name, ids in snap.antecedent_index.items():
                if name not in allowed:
                    mask[ids] = False
        if query.min_degree is not None:
            mask &= snap.degree >= query.min_degree
        selected = [int(i) for i in np.nonzero(mask)[0]]
        if query.prune_redundant:
            selected = self._prune_redundant_ids(selected)
        if query.max_degree is not None:
            max_degree = query.max_degree
            selected = [i for i in selected if snap.degree[i] <= max_degree]
        if query.min_support is not None:
            support = snap.support
            if any(support[i] < 0 for i in selected):
                raise ValueError(
                    "min_support filtering needs support counts; mine with "
                    "DARConfig(count_rule_support=True)"
                )
            min_support = query.min_support
            selected = [i for i in selected if support[i] >= min_support]
        selected.sort(key=self._rank_key)
        if query.top_k is not None:
            selected = selected[: query.top_k]
        return selected

    def _rank_key(self, rule_id: int):
        """The canonical ``(degree, -support, description)`` ordering key."""
        snap = self.snapshot
        support = int(snap.support[rule_id])
        return (
            float(snap.degree[rule_id]),
            -max(support, 0),
            snap.descriptions[rule_id],
        )

    def _prune_redundant_ids(self, ids: List[int]) -> List[int]:
        """Mirror :func:`~repro.core.postprocess.prune_redundant` on ids."""
        snap = self.snapshot
        ordered = sorted(
            ids,
            key=lambda i: (
                len(snap.antecedent_uids(i)),
                float(snap.degree[i]),
                snap.descriptions[i],
            ),
        )
        return [
            ordered[position]
            for position in irredundant(
                (
                    frozenset(snap.consequent_uids(i)),
                    frozenset(snap.antecedent_uids(i)),
                    float(snap.degree[i]),
                )
                for i in ordered
            )
        ]

    # ------------------------------------------------------------------

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters (for tests and the health endpoint)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._cache),
                "capacity": self.cache_size,
            }

    def _publish(self, *, cache: str, seconds: float) -> None:
        """Emit per-query cache and latency metrics (no-op when disabled)."""
        if not obs_metrics.metrics_enabled():
            return
        obs_metrics.inc(
            "repro_serve_queries_total",
            help="Rule queries answered, by cache outcome",
            cache=cache,
        )
        obs_metrics.observe(
            "repro_serve_query_seconds",
            seconds,
            help="Rule-query latency per call",
            unit="seconds",
        )
        with self._lock:
            entries = len(self._cache)
        obs_metrics.set_gauge(
            "repro_serve_cache_entries",
            entries,
            help="Entries currently held by the query answer cache",
        )
