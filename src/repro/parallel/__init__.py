"""Parallel mining across cores.

Phase I of the paper's two-phase pipeline is embarrassingly parallel: it
clusters each attribute partition independently.  This package fans those
scans out over a process pool while staying *decision-identical* to the
serial engine — the equivalence suite pins bit-identical rules.  Phase II
works on summaries alone (Thm 6.1), so it runs in process on every path.

Layering (what vs. where):

* :mod:`repro.parallel.tasks` — task descriptions and the worker entry
  point (*what to compute*); a task names the on-disk file region of
  every partition matrix (:class:`~repro.parallel.tasks.MatrixFile`),
  which the worker maps read-only, so no row data is pickled;
* :mod:`repro.parallel.executor` — the process pool (*where it runs*);
* :mod:`repro.parallel.miner` — :class:`ParallelDARMiner`, the
  coordinator that merges worker results.

Entry points: ``repro.mine(relation, engine="parallel", workers=N)`` or
``repro mine data.csv --workers N`` on the command line; both accept an
in-memory relation or a :class:`~repro.data.columnar.ColumnStore`
(``--out-of-core``).  Pool failures
degrade to the serial engine through the resilience ladder
(:func:`repro.resilience.guard.guarded_mine`), recorded in
``result.phase2.events``.
"""

from repro.parallel.executor import ProcessPoolBackend
from repro.parallel.miner import ParallelDARMiner
from repro.parallel.tasks import (
    KILL_WORKER_ENV,
    MatrixFile,
    Phase1Task,
    run_phase1_task,
)

__all__ = [
    "ProcessPoolBackend",
    "ParallelDARMiner",
    "KILL_WORKER_ENV",
    "MatrixFile",
    "Phase1Task",
    "run_phase1_task",
]
