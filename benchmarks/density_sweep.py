"""E7 at 30 attributes: Phase II output and rules-stage time over d0.

The clique count of §7.2 is a knife-edge in the density threshold.  This
script mines the 30-attribute run (``DARMiner`` over every attribute of
the ``make_scaled_wbcd`` surrogate, 5 % outliers, seed 42, one partition
per attribute, 3 % frequency, ``max_antecedent=2``, ``max_consequent=1``)
at 20K tuples for each ``density_fraction`` in 0.15, 0.2, 0.25 and 0.3,
and prints one row per setting: frequent clusters, graph edges,
non-trivial cliques, rules, the Phase II and rules-stage seconds
(``Phase2Stats``) and a digest of the rule list (descriptions, ``repr``
degrees, per-consequent degrees, order), so two checkouts can be compared
setting by setting.  Run from the repository root::

    PYTHONPATH=src python benchmarks/density_sweep.py

The table is also written to ``benchmarks/results/density_sweep.txt``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZE = 20_000
DENSITY_FRACTIONS = (0.15, 0.2, 0.25, 0.3)


def rule_digest(rules) -> str:
    """sha256 over every rule's description, degrees and list position."""
    digest = hashlib.sha256()
    for rule in rules:
        degrees = [(uid, repr(value)) for uid, value in rule.degrees.items()]
        digest.update(f"{rule}|{rule.degree!r}|{degrees}\n".encode())
    return digest.hexdigest()[:16]


def mine_once(density_fraction: float) -> dict:
    """Mine the 30-attribute run at one ``density_fraction``."""
    from repro.core.config import DARConfig
    from repro.core.miner import DARMiner
    from repro.data.relation import AttributePartition
    from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like

    base = make_wbcd_like(seed=42)
    relation = make_scaled_wbcd(SIZE, outlier_fraction=0.05, seed=42, base=base)
    partitions = [AttributePartition(name, (name,)) for name in base.schema.names]
    config = DARConfig(
        frequency_fraction=0.03,
        density_fraction=density_fraction,
        max_antecedent=2,
        max_consequent=1,
    )
    result = DARMiner(config).mine(relation, partitions)
    stats = result.phase2
    return {
        "density_fraction": density_fraction,
        "frequent": stats.n_frequent_clusters,
        "edges": stats.n_edges,
        "non_trivial_cliques": stats.n_non_trivial_cliques,
        "rules": len(result.rules),
        "phase2_s": round(stats.seconds, 3),
        "rules_s": round(stats.rules_seconds, 3),
        "digest": rule_digest(result.rules),
    }


def main() -> int:
    rows = []
    for fraction in DENSITY_FRACTIONS:
        row = mine_once(fraction)
        rows.append(row)
        print(json.dumps(row), flush=True)
    columns = list(rows[0])
    lines = [
        f"E7 density sweep - 30 WBCD attributes, {SIZE:,} tuples "
        "(benchmarks/density_sweep.py)",
        " | ".join(columns),
        " | ".join("---" for _ in columns),
    ]
    lines += [" | ".join(str(row[name]) for name in columns) for row in rows]
    text = "\n".join(lines) + "\n"
    (ROOT / "benchmarks" / "results" / "density_sweep.txt").write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
