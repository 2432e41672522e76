"""Generate one input family for one seed, with its reference answers.

Run before any measuring process starts, so the generator's arrays never
count toward a measured peak RSS::

    python3 ledgerbench/inputs.py --family tall --seed 1 --out DIR

Writes the CSV(s) the program reads and ``expected.json``: the digests of
the reference rule sets (see ``workloads.snapshot_digest``).  The
references are computed by the same program version from the generator's
in-memory relation, not from the CSV, so they also check that the CSV
round trip is exact:

* ``tall``: an in-memory mine under the out-of-core workload's 64 KiB
  budget (the out-of-core scan must be bit-identical to it);
* ``stream``: a replay of the same batches through a fresh
  ``StreamingDARMiner``, one digest per batch of each stream.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads


def _reference(result) -> str:
    from repro.serve.snapshot import compile_snapshot

    return workloads.snapshot_digest(compile_snapshot(result))


def generate(family: str, seed: int, out: Path) -> None:
    import numpy as np

    import repro
    from repro.birch.birch import BirchOptions
    from repro.core.config import DARConfig
    from repro.data.io import save_csv
    from repro.data.relation import default_partitions

    shape = workloads.FAMILIES[family]
    expected = {}
    if family == "stream":
        expected["streams"] = []
        for stream in range(workloads.STREAMS):
            relation, _ = repro.make_clustered_relation(
                seed=workloads.stream_seed(seed, stream), **shape
            )
            directory = out / f"stream-{stream}"
            directory.mkdir()
            miner = repro.StreamingDARMiner(default_partitions(relation.schema))
            bounds = np.linspace(0, len(relation), workloads.STREAM_BATCHES + 1).astype(int)
            batches = []
            for index in range(workloads.STREAM_BATCHES):
                batch = relation.take(np.arange(bounds[index], bounds[index + 1]))
                save_csv(batch, directory / f"batch-{index:02d}.csv")
                miner.update(batch)
                batches.append(_reference(miner.rules()))
            expected["streams"].append(batches)
    else:
        relation, _ = repro.make_clustered_relation(seed=seed, **shape)
        save_csv(relation, out / "relation.csv")
        budget = DARConfig(
            birch=BirchOptions(memory_limit_bytes=workloads.OUTOFCORE_BUDGET_BYTES)
        )
        expected["budget"] = _reference(repro.mine(relation, config=budget))
    (out / "expected.json").write_text(json.dumps(expected, indent=1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", required=True, choices=sorted(workloads.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    generate(args.family, args.seed, args.out)


if __name__ == "__main__":
    main()
