"""Distance-based association rules (Dfn 5.1, 5.2, 5.3).

A DAR ``C_X1 ... C_Xx => C_Y1 ... C_Yy`` asserts that tuples whose ``X_i``
values fall in the antecedent clusters have ``Y_j`` values *close to* the
consequent clusters.  Its interest measures replace the classical pair:

* the *degree of association* — the worst-case image distance
  ``D(C_Yj[Yj], C_Xi[Yj])`` — replaces confidence (smaller is stronger);
* the density conditions between co-antecedent (and co-consequent)
  clusters replace support on the combined itemset; the frequency
  threshold survives only on the individual clusters (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.cluster import Cluster

__all__ = ["DistanceRule", "RuleList", "validate_rule_partitions"]


def validate_rule_partitions(
    antecedent: Tuple[Cluster, ...], consequent: Tuple[Cluster, ...]
) -> None:
    """Dfn 5.3 requires all X_i and Y_j to be pairwise disjoint attribute sets.

    With named partitions, disjointness is simply name uniqueness across
    both sides.  Raises ``ValueError`` on violation or on an empty side.
    """
    if not antecedent or not consequent:
        raise ValueError("both rule sides must be non-empty")
    names = [cluster.partition.name for cluster in antecedent + consequent]
    if len(set(names)) != len(names):
        raise ValueError(f"rule partitions are not pairwise disjoint: {names}")


@dataclass(frozen=True)
class DistanceRule:
    """A DAR with its measured degree of association.

    ``degree`` is the maximum image distance over all (antecedent,
    consequent) cluster pairs — the rule "holds with degree D0" for any
    ``D0 >= degree``.  ``degrees`` records the per-consequent detail and
    ``support_count`` is filled only when the optional post-scan of
    Section 6.2 is enabled.
    """

    antecedent: Tuple[Cluster, ...]
    consequent: Tuple[Cluster, ...]
    degree: float
    degrees: Dict[int, float] = field(default_factory=dict, compare=False, hash=False)
    support_count: Optional[int] = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        validate_rule_partitions(self.antecedent, self.consequent)
        if self.degree < 0:
            raise ValueError("degree of association cannot be negative")

    @property
    def arity(self) -> Tuple[int, int]:
        """(x, y) — antecedent and consequent cluster counts."""
        return len(self.antecedent), len(self.consequent)

    @property
    def is_one_to_one(self) -> bool:
        """Whether the rule has exactly one cluster on each side."""
        return self.arity == (1, 1)

    @property
    def antecedent_uids(self) -> frozenset:
        """Uids of the antecedent clusters."""
        return frozenset(cluster.uid for cluster in self.antecedent)

    @property
    def consequent_uids(self) -> frozenset:
        """Uids of the consequent clusters."""
        return frozenset(cluster.uid for cluster in self.consequent)

    def key(self) -> Tuple[frozenset, frozenset]:
        """The rule's identity: its antecedent and consequent uid sets."""
        return self.antecedent_uids, self.consequent_uids

    def __str__(self) -> str:
        """The rule's description, rendered once: it is both the ranking
        tie-break and the snapshot's stored description."""
        label = self.__dict__.get("_label")
        if label is None:
            label = self.__dict__["_label"] = _describe(
                " & ".join(map(str, self.antecedent)),
                " & ".join(map(str, self.consequent)),
                self.degree,
                self.support_count,
            )
        return label

    @classmethod
    def formed(cls, antecedent, consequent, degree, degrees, lhs, rhs):
        """A rule described from its sides' labels rendered already:
        ``lhs``/``rhs`` are the sides' cluster labels joined by ``" & "``."""
        rule = cls(antecedent, consequent, degree, degrees)
        rule.__dict__["_label"] = _describe(lhs, rhs, degree, None)
        return rule

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceRule):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def _describe(lhs: str, rhs: str, degree: float, support: Optional[int]) -> str:
    counted = "" if support is None else f", support={support}"
    return f"{lhs} => {rhs} (degree={degree:.4g}{counted})"


class RuleList(list):
    """A rule list that is also the unified query surface.

    ``DARResult.rules`` is one of these: it behaves exactly like the
    plain list it always was (iteration, indexing, ``len``), and calling
    it filters through :func:`repro.serve.query.apply_query` — the same
    semantics the snapshot query engine and the HTTP endpoint use::

        result.rules(RuleQuery(targets=("claims",), top_k=5))
        result.rules(targets="claims", top_k=5)       # keyword form
    """

    def __call__(self, query=None, **kwargs) -> "RuleList":
        """Filter and rank per a :class:`~repro.serve.query.RuleQuery`."""
        from repro.serve.query import apply_query

        return RuleList(apply_query(self, query, **kwargs))
