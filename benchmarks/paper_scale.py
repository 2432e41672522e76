"""E5 at paper scale: Phase I over all 30 WBCD attributes, capped and not.

The paper's Figure 6 scans a WBCD-derived relation of up to 0.5M tuples
over 30 attributes under a 5 MB Phase I memory cap.  This script mines the
30-attribute run (``DARMiner`` over every attribute of the
``make_scaled_wbcd`` surrogate, 5 % outliers, seed 42, one partition per
attribute, 3 % frequency, ``max_antecedent=2``, ``max_consequent=1``) at
one size and cap, and prints one row: Phase I seconds (summed over the
partitions) and their scan / flush / split layers, the Phase II seconds
by stage (extract, graph, cliques, rules, postscan), rebuilds, the largest
modelled tree, the ACF census (``Phase2Stats.n_clusters``), frequent
clusters and rules.  Every layer time is read from the stats, which read
it from the span bracketing the layer.

One configuration, measured in a process of its own for its peak RSS::

    PYTHONPATH=src python tools/peak_rss.py \\
        python benchmarks/paper_scale.py --size 100000 --cap 5m

The whole table (every size, capped and uncapped, one process each),
written to ``benchmarks/results/paper_scale.txt``::

    PYTHONPATH=src python benchmarks/paper_scale.py --table
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP_BYTES = 5 * 2**20  # the paper's 5 MB cap
SIZES = (25_000, 100_000, 500_000)


def workload(size: int, capped: bool):
    """The 30-attribute run's ``(relation, partitions, config)``."""
    from repro.birch.birch import BirchOptions
    from repro.core.config import DARConfig
    from repro.data.relation import AttributePartition
    from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like

    base = make_wbcd_like(seed=42)
    relation = make_scaled_wbcd(size, outlier_fraction=0.05, seed=42, base=base)
    partitions = [AttributePartition(name, (name,)) for name in base.schema.names]
    config = DARConfig(
        frequency_fraction=0.03,
        max_antecedent=2,
        max_consequent=1,
        birch=BirchOptions(memory_limit_bytes=CAP_BYTES if capped else None),
    )
    return relation, partitions, config


def mine_once(size: int, capped: bool) -> dict:
    """Mine the 30-attribute run once; return the row's measurements."""
    from repro.core.miner import DARMiner

    relation, partitions, config = workload(size, capped)
    started = time.perf_counter()
    result = DARMiner(config).mine(relation, partitions)
    scans = [s.scan for s in result.phase1.values()]
    return {
        "tuples": size,
        "cap": "5 MB" if capped else "none",
        "phase1_s": round(sum(s.seconds for s in result.phase1.values()), 2),
        **{
            f"{layer}_s": round(sum(getattr(s, f"seconds_{layer}") for s in scans), 2)
            for layer in ("scan", "flush", "split")
        },
        **{
            f"{stage}_s": round(seconds, 3)
            for stage, seconds in result.phase2.stage_breakdown().items()
        },
        "mine_s": round(time.perf_counter() - started, 2),
        "rebuilds": sum(s.rebuilds for s in result.phase1.values()),
        "max_tree_kb": round(
            max(s.final_tree_bytes for s in result.phase1.values()) / 1024, 1
        ),
        "census": result.phase2.n_clusters,
        "frequent": result.phase2.n_frequent_clusters,
        "rules": len(result.rules),
    }


def run_table() -> str:
    """Each configuration in its own ``tools/peak_rss.py`` process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rows = []
    for size in SIZES:
        for cap in ("5m", "none"):
            done = subprocess.run(
                [sys.executable, str(ROOT / "tools" / "peak_rss.py"), sys.executable,
                 __file__, "--size", str(size), "--cap", cap],
                capture_output=True, text=True, env=env, check=True,
            )
            row = json.loads(done.stdout.strip().splitlines()[-1])
            row["peak_rss_mb"] = float(
                re.search(r"peak_rss_mb=([\d.]+)", done.stderr).group(1)
            )
            rows.append(row)
            print(json.dumps(row), flush=True)
    columns = ["tuples", "cap", "phase1_s", "scan_s", "flush_s", "split_s",
               "extract_s", "graph_s", "cliques_s", "rules_s", "postscan_s",
               "peak_rss_mb", "rebuilds", "max_tree_kb", "census", "frequent", "rules"]
    lines = [
        "E5 at paper scale - 30 WBCD attributes, 3% frequency "
        "(benchmarks/paper_scale.py --table)",
        " | ".join(columns),
        " | ".join("---" for _ in columns),
    ]
    lines += [" | ".join(str(row[name]) for name in columns) for row in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, help="tuples of one configuration")
    parser.add_argument("--cap", choices=("5m", "none"), default="5m")
    parser.add_argument("--table", action="store_true", help="run every size")
    args = parser.parse_args(argv)
    if args.table:
        text = run_table()
        out = ROOT / "benchmarks" / "results" / "paper_scale.txt"
        out.write_text(text)
        print(text)
        return 0
    if args.size is None:
        parser.error("give --size (one configuration) or --table")
    print(json.dumps(mine_once(args.size, args.cap == "5m")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
