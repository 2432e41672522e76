"""Serial vs the worker pool on the 30-attribute E5 run (paper_scale.py).

Mines :func:`paper_scale.workload` (30 WBCD attributes, 5 MB cap by
default) with ``DARMiner``, ``ParallelDARMiner(workers=1)`` and
``ParallelDARMiner(workers=2)``, in that order, ``--repeats`` times in one
process, and prints one JSON line per mine with its wall seconds, its
Phase II seconds (``result.phase2.seconds``) and its rule count.  Every
mode must give the same rules; the script exits 1 if not::

    PYTHONPATH=src python benchmarks/parallel_scale.py --size 25000 --repeats 3

Pointing ``PYTHONPATH`` at another checkout's ``src`` times that tree with
the same workload, which is how before/after pairs are taken.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from paper_scale import workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=25_000)
    parser.add_argument("--cap", choices=("5m", "none"), default="5m")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.core.miner import DARMiner
    from repro.parallel import ParallelDARMiner

    relation, partitions, config = workload(args.size, args.cap == "5m")
    modes = {
        "serial": lambda: DARMiner(config),
        "workers=1": lambda: ParallelDARMiner(config, workers=1),
        "workers=2": lambda: ParallelDARMiner(config, workers=2),
    }
    listings = set()
    for repeat in range(args.repeats):
        for mode, make in modes.items():
            started = time.perf_counter()
            result = make().mine(relation, partitions)
            seconds = time.perf_counter() - started
            listings.add(tuple(f"{rule} {rule.degree!r}" for rule in result.rules))
            print(json.dumps({
                "repeat": repeat, "mode": mode, "mine_s": round(seconds, 3),
                "phase2_s": round(result.phase2.seconds, 3),
                "rules": len(result.rules),
            }), flush=True)
    if len(listings) != 1:
        print("rule listings differ between modes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
