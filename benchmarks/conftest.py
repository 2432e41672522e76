"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
the same rows/series the paper reports (through
:class:`repro.report.tables.Table`), in addition to the pytest-benchmark
timing.  Tables are printed with capture disabled so they appear in the
tee'd bench log, and are also written under ``benchmarks/results/``.

Set ``REPRO_BENCH_SCALE`` (float, default 1) to grow or shrink the data
sizes of the scaling experiments.  End-to-end timings split by layer
come from ``ledgerbench/`` (see ``ledgerbench/README.md``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1"))


@pytest.fixture
def emit(capsys):
    """Print a Table live (uncaptured) and persist it to results/."""

    def _emit(table, filename: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = table.render()
        (RESULTS_DIR / filename).write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _emit
