"""Rule post-processing: ranking, filtering, redundancy pruning.

A mining run can emit hundreds of overlapping DARs (every sub-clique pair
yields candidates).  These utilities shape the output into what a user
actually reads:

* **target filtering** — the N:1 application of Section 5.2: keep only
  rules whose consequent mentions given target partitions ("an insurance
  agent wants ... associations between driver characteristics and a
  specific variable");
* **redundancy pruning** — a rule is redundant if another kept rule has
  the same consequent, an antecedent that is a subset, and a degree at
  least as good: the shorter rule says strictly more with less;
* **top-k / threshold selection** over the degree ordering (smaller =
  stronger), with the support count as tiebreaker when available.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.rules import DistanceRule

__all__ = [
    "filter_by_consequent",
    "filter_by_antecedent",
    "irredundant",
    "prune_redundant",
    "select_rules",
]


def filter_by_consequent(
    rules: Iterable[DistanceRule], partition_names: Sequence[str]
) -> List[DistanceRule]:
    """Rules whose consequent partitions are exactly a subset of ``partition_names``.

    This is target-attribute mining: pass ``["claims"]`` to get every rule
    that concludes something about claims (and nothing else).
    """
    targets = set(partition_names)
    if not targets:
        raise ValueError("at least one target partition is required")
    return [
        rule
        for rule in rules
        if {c.partition.name for c in rule.consequent} <= targets
    ]


def filter_by_antecedent(
    rules: Iterable[DistanceRule], partition_names: Sequence[str]
) -> List[DistanceRule]:
    """Rules whose antecedent uses only the given partitions."""
    allowed = set(partition_names)
    if not allowed:
        raise ValueError("at least one antecedent partition is required")
    return [
        rule
        for rule in rules
        if {c.partition.name for c in rule.antecedent} <= allowed
    ]


def prune_redundant(rules: Iterable[DistanceRule]) -> List[DistanceRule]:
    """Drop rules implied by a kept rule with a smaller antecedent.

    Rule S is redundant given rule R when they share the consequent
    clusters, R's antecedent clusters are a proper subset of S's, and R's
    degree is at most S's: whatever S asserts, R asserts of more tuples
    with at least the same strength.  Output order is strongest-first.
    """
    ordered = sorted(
        rules, key=lambda rule: (len(rule.antecedent), rule.degree, str(rule))
    )
    entries = ((r.consequent_uids, r.antecedent_uids, r.degree) for r in ordered)
    kept = [ordered[position] for position in irredundant(entries)]
    kept.sort(key=lambda rule: (rule.degree, str(rule)))
    return kept


def irredundant(entries: Iterable[Tuple[frozenset, frozenset, float]]) -> List[int]:
    """Positions of the ``(consequent uids, antecedent uids, degree)``
    entries, in :func:`prune_redundant`'s order, that no earlier kept
    entry makes redundant.  Kept entries are bucketed by consequent, so
    each is compared only with those of its own consequent."""
    kept: List[int] = []
    by_consequent: Dict[frozenset, List[Tuple[frozenset, float]]] = {}
    for position, (consequent, antecedent, degree) in enumerate(entries):
        bucket = by_consequent.setdefault(consequent, [])
        if not any(
            kept_antecedent < antecedent and kept_degree <= degree + 1e-12
            for kept_antecedent, kept_degree in bucket
        ):
            bucket.append((antecedent, degree))
            kept.append(position)
    return kept


def select_rules(
    rules: Iterable[DistanceRule],
    max_degree: Optional[float] = None,
    min_support: Optional[int] = None,
    top_k: Optional[int] = None,
) -> List[DistanceRule]:
    """Threshold and truncate, strongest (smallest degree) first.

    ``min_support`` requires rules to carry post-scan support counts
    (``DARConfig.count_rule_support=True``); asking for it on uncounted
    rules raises rather than silently keeping everything.
    """
    selected = list(rules)
    if max_degree is not None:
        selected = [rule for rule in selected if rule.degree <= max_degree]
    if min_support is not None:
        if any(rule.support_count is None for rule in selected):
            raise ValueError(
                "min_support filtering needs support counts; mine with "
                "DARConfig(count_rule_support=True)"
            )
        selected = [
            rule for rule in selected if (rule.support_count or 0) >= min_support
        ]
    selected.sort(
        key=lambda rule: (rule.degree, -(rule.support_count or 0), str(rule))
    )
    if top_k is not None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        selected = selected[:top_k]
    return selected
