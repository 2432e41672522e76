"""Workload definitions shared by the input generator, the probes and the
measuring process.

Nothing here imports ``repro`` at module level: ``run.py`` reads these
specs without paying for the program's import.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from pathlib import Path

#: Input families.
FAMILIES = {
    "tall": {"n_modes": 4, "points_per_mode": 25_000, "n_attributes": 3},
    "stream": {"n_modes": 8, "points_per_mode": 1_500, "n_attributes": 7},
}

#: Batches each ``stream`` relation is cut into, each its own CSV.
STREAM_BATCHES = 10
#: Streams per ``stream`` seed, each from its own sub-seed, replayed in
#: turn, one per iteration.  The rule count of a stream, and with it the
#: cost of a refresh, differs by about a tenth between seeds; averaging
#: three streams keeps that from setting the run-to-run spread.
STREAMS = 3

#: Phase I memory budget of ``tall_outofcore`` (and of its in-memory
#: reference mine, which must give bit-identical rules).
OUTOFCORE_BUDGET_BYTES = 64 * 1024

#: ``family``: which inputs it reads.  ``min_iterations``: iterations every
#: run makes however slow it is.  ``tail_pct``: the reported tail
#: percentile, the highest with at least ten samples beyond it at the
#: minimum query count (``min_iterations`` x operations per iteration x
#: queries per operation: 5 x 1 x 20 on ``tall_outofcore``, 3 x 10 x 10 on
#: ``stream_refresh``), so it stays fixed when the program gets faster and
#: a run makes more iterations.  Why each workload exists, and which layers
#: it stresses and bypasses, is recorded in ``BENCHMARK.json`` and
#: ``README.md``.
WORKLOADS = {
    "tall_outofcore": {
        "family": "tall",
        "min_iterations": 5,
        "tail_pct": 90.0,
    },
    "stream_refresh": {
        "family": "stream",
        "min_iterations": 3,
        "tail_pct": 96.0,
    },
}


def stream_seed(seed: int, stream: int) -> int:
    """Generator seed of one of the ``STREAMS`` streams of ``seed``."""
    return STREAMS * seed + stream


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (the sample a reader can point at)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def source_digest(src: Path) -> str:
    """Short digest of the program's sources under ``src``.

    Inputs and reference answers are cached per program version, so each
    version is checked against references it computed itself.
    """
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def input_dir(cache: Path, family: str, seed: int, version: str) -> Path:
    """Where the inputs of ``family`` for ``seed`` are cached for one
    program version."""
    return cache / f"{family}-{seed}-{version}"


def snapshot_digest(snapshot) -> str:
    """Digest of a served rule set, read through the public ``rule_dict``.

    Covers each rule's description, degree, per-consequent degrees (in
    consequent order) and support; order-insensitive, so it names the rule
    set rather than the order it was compiled in.
    """
    rows = []
    for rule_id in range(snapshot.n_rules):
        row = snapshot.rule_dict(rule_id)
        degrees = [row["degrees"][str(uid)] for uid in row["consequent"]]
        rows.append(
            f"{row['description']}|{row['degree']!r}|{degrees!r}|"
            f"{row['support_count']}"
        )
    rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def query_pool(family: str, names):
    """The distinct queries of a family, as ``RuleQuery`` keyword dicts.

    Fixed shapes over the attribute names, so that the work a query does
    follows the data of the seed and not a seeded choice of questions.
    ``tall``: 20 queries, most capped by ``top_k`` as a page of answers
    would be.  ``stream``: 10 uncapped queries over one or two targets, so
    each cold answer ranks hundreds of rules.  (No ``prune_redundant``:
    over every rule it costs more than linear time in the rule count,
    which differs between seeds by about a tenth; it made the tail swing
    by a third from seed to seed.)
    """
    names = list(names)
    singles = [[name] for name in names]
    pairs = [list(pair) for pair in itertools.combinations(names, 2)]
    if family == "stream":
        return [{"targets": t} for t in singles + pairs[:3]]
    shapes = [
        {"targets": t, **extra}
        for t in singles + pairs + [names]
        for extra in ({"top_k": 10}, {"top_k": 5}, {"top_k": 25}, {"min_degree": 1.0},
                      {"antecedents": [n for n in names if n not in t][:2]}, {})
        if extra.get("antecedents") != []
    ]
    return shapes[:20]
