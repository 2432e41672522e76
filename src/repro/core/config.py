"""Configuration for the distance-based association rule miner.

The thresholds mirror the paper's notation:

* ``d0[X]`` — per-partition *density* (diameter) thresholds of Dfn 4.2,
  which also gate clustering-graph edges (Dfn 6.1);
* ``s0`` — the *frequency* threshold, expressed as a fraction of ``|r|``
  (the paper's experiments use 3%);
* ``D0[Y]`` — per-partition *degree of association* thresholds of
  Dfn 5.1/5.3.

Each threshold may be given explicitly per partition; otherwise it is
derived from the data: ``d0[X] = density_fraction x`` (RMS diameter of the
whole column), and ``D0[Y] = degree_factor x d0[Y]``.  Phase II uses
``phase2_leniency x d0`` for graph edges — the paper reports that "using a
more lenient (higher) threshold in Phase II produces a better set of
rules" (Section 6.2).

The cluster-distance metric is named ``metric`` everywhere (config field,
``image_distance``, ``build_clustering_graph``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.birch.birch import BirchOptions

__all__ = ["DARConfig"]


@dataclass(frozen=True)
class DARConfig:
    """All knobs of the two-phase DAR miner."""

    frequency_fraction: float = 0.03
    density_fraction: float = 0.15
    density_thresholds: Mapping[str, float] = field(default_factory=dict)
    degree_factor: float = 2.0
    degree_thresholds: Mapping[str, float] = field(default_factory=dict)
    phase2_leniency: float = 2.0
    metric: str = "d2"
    max_antecedent: int = 3
    max_consequent: int = 2
    max_antecedent_candidates: int = 32
    use_density_pruning: bool = True
    pruning_diameter_factor: float = 2.0
    count_rule_support: bool = False
    rule_support_fraction: Optional[float] = None
    birch: BirchOptions = field(default_factory=BirchOptions)

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency_fraction <= 1.0:
            raise ValueError("frequency_fraction must be in (0, 1]")
        if self.density_fraction <= 0:
            raise ValueError("density_fraction must be positive")
        if self.degree_factor <= 0:
            raise ValueError("degree_factor must be positive")
        if self.phase2_leniency < 1.0:
            raise ValueError("phase2_leniency must be at least 1 (more lenient)")
        if self.metric not in ("d1", "d2"):
            raise ValueError("metric must be 'd1' or 'd2'")
        if self.max_antecedent < 1 or self.max_consequent < 1:
            raise ValueError("rule arity bounds must be at least 1")
        if self.max_antecedent_candidates < 1:
            raise ValueError("max_antecedent_candidates must be at least 1")
        if self.pruning_diameter_factor <= 0:
            raise ValueError("pruning_diameter_factor must be positive")
        if self.rule_support_fraction is not None and not (
            0.0 <= self.rule_support_fraction <= 1.0
        ):
            raise ValueError("rule_support_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "DARConfig":
        """Build a config from a plain mapping (parsed JSON/TOML/YAML).

        Accepts exactly the constructor's keywords; ``birch`` may itself be a
        mapping of :class:`~repro.birch.birch.BirchOptions` fields.
        Unknown keys raise a ``ValueError`` naming the offending key and
        the accepted ones, so a typo in a config file fails loudly instead
        of being silently dropped.
        """
        data = dict(mapping)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown DARConfig key(s) {unknown}; accepted keys: "
                f"{sorted(known)}"
            )
        birch = data.get("birch")
        if isinstance(birch, Mapping):
            birch_known = {f.name for f in fields(BirchOptions)}
            birch_unknown = sorted(set(birch) - birch_known)
            if birch_unknown:
                raise ValueError(
                    f"unknown BirchOptions key(s) {birch_unknown}; accepted "
                    f"keys: {sorted(birch_known)}"
                )
            data["birch"] = BirchOptions(**birch)
        return cls(**data)

    def with_thresholds(
        self,
        *,
        density: Optional[Mapping[str, float]] = None,
        degree: Optional[Mapping[str, float]] = None,
    ) -> "DARConfig":
        """A copy with explicit per-partition ``d0`` / ``D0`` thresholds.

        New entries are merged over any already-configured ones.  Every
        value must be a positive finite number; violations name the
        partition so sweep scripts fail with an actionable message.
        """
        def checked(kind: str, mapping: Mapping[str, float]) -> dict:
            out = {}
            for name, value in mapping.items():
                if not isinstance(name, str):
                    raise ValueError(
                        f"{kind} threshold keys must be partition names, "
                        f"got {name!r}"
                    )
                number = float(value)
                if not (number > 0 and math.isfinite(number)):
                    raise ValueError(
                        f"{kind} threshold for {name!r} must be a positive "
                        f"finite number, got {value!r}"
                    )
                out[name] = number
            return out

        updates = {}
        if density is not None:
            updates["density_thresholds"] = {
                **dict(self.density_thresholds),
                **checked("density", density),
            }
        if degree is not None:
            updates["degree_thresholds"] = {
                **dict(self.degree_thresholds),
                **checked("degree", degree),
            }
        if not updates:
            raise ValueError("with_thresholds needs density=... and/or degree=...")
        return replace(self, **updates)

    # ------------------------------------------------------------------
    # Threshold resolution
    # ------------------------------------------------------------------

    def density_threshold(self, partition_name: str, derived: float) -> float:
        """``d0`` for a partition: the explicit value, else the derived one."""
        return float(self.density_thresholds.get(partition_name, derived))

    def degree_threshold(self, partition_name: str, density: float) -> float:
        """``D0`` for a consequent partition, defaulting to
        ``degree_factor x d0``."""
        explicit = self.degree_thresholds.get(partition_name)
        if explicit is not None:
            return float(explicit)
        return self.degree_factor * density

    def with_birch(self, birch: BirchOptions) -> "DARConfig":
        """A copy with different Phase I options (convenience for sweeps)."""
        return replace(self, birch=birch)
