"""Parallel mining across cores.

The paper's two-phase pipeline is embarrassingly parallel: Phase I
clusters each attribute partition independently, and Phase II's blocked
pairwise kernel decomposes into independent row tiles.  This package
fans both out over a process pool while staying *decision-identical* to
the serial engine — the equivalence suite pins bit-identical rules.

Layering (what vs. where):

* :mod:`repro.parallel.tasks` — task descriptions and worker entry
  points (*what to compute*); a task names the on-disk file region of
  every partition matrix (:class:`~repro.parallel.tasks.MatrixFile`),
  which the worker maps read-only, so no row data is pickled;
* :mod:`repro.parallel.executor` — the interchangeable backends
  (*where it runs*): serial in-process, or a process pool;
* :mod:`repro.parallel.kernel` — the tiled Phase II kernel;
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

from repro.parallel.executor import (
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.parallel.kernel import ParallelPhase2Kernel
from repro.parallel.miner import ParallelDARMiner
from repro.parallel.tasks import (
    KILL_WORKER_ENV,
    MatrixFile,
    Phase1Task,
    Phase2Tile,
    run_phase1_task,
    run_phase2_tile,
)

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ParallelPhase2Kernel",
    "ParallelDARMiner",
    "KILL_WORKER_ENV",
    "MatrixFile",
    "Phase1Task",
    "Phase2Tile",
    "run_phase1_task",
    "run_phase2_tile",
]
