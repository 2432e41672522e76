"""The process pool that runs Phase I tasks: *where* they run.

The task layer (:mod:`repro.parallel.tasks`) describes *what* to compute;
:class:`ProcessPoolBackend` fans those tasks out over a
``concurrent.futures.ProcessPoolExecutor`` and returns their results in
submission order, so the coordinator's merge does not depend on which
worker finished first.  A ``workers=1`` mine never builds one: it runs the
serial miner's own loops in process.

Failure semantics: infrastructure failures (a worker process dying →
``BrokenProcessPool``, the pool failing to start, an OS error in the
pool) surface as :class:`~repro.resilience.errors.WorkerPoolError`, the
class the degradation ladder catches to retry serially.  Errors raised
*by the task itself* (``ValidationError`` on bad data, for instance)
propagate unchanged — they would recur on the serial engine, so masking
them as pool trouble would send the ladder down a pointless rung.

Fault points: ``parallel.pool`` fires when the process pool is created,
``parallel.worker`` fires at each worker-task entry, and ``pool.submit``
fires before each task submission (see :mod:`repro.resilience.faults`);
all convert an :class:`~repro.resilience.errors.InjectedFault` into
:class:`WorkerPoolError` so crash tests exercise the same recovery path
as real worker death.

A failed pool raises on its first failure, and the degradation
ladder's serial fallback is the recovery.
:class:`ProcessPoolBackend` can bound each task with a per-task timeout,
so a hung worker becomes a ``WorkerPoolError`` instead of a hung mine
(``task_timeout_seconds`` on :class:`~repro.resilience.guard.GuardPolicy`).
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

from repro.resilience import faults
from repro.resilience.errors import InjectedFault, ReproError, WorkerPoolError

__all__ = ["ProcessPoolBackend", "resolve_workers"]

#: Environment override for the automatic worker count (a positive int).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker-count request to a concrete positive integer.

    Resolution order (first match wins):

    1. an explicit positive ``workers`` argument is used as-is;
    2. ``workers=None`` or ``workers=0`` means *auto*: the
       ``REPRO_WORKERS`` environment variable, when set, must be a
       positive integer and wins;
    3. otherwise ``os.cpu_count()`` (falling back to 1 where the
       interpreter cannot tell).

    Negative requests and malformed ``REPRO_WORKERS`` values raise
    ``ValueError`` — silently mining serially when the caller asked for
    parallelism would hide a configuration bug.
    """
    if workers is not None:
        workers = int(workers)
        if workers < 0:
            raise ValueError(
                f"workers must be non-negative (0 = auto), got {workers}"
            )
        if workers > 0:
            return workers
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a positive integer, got {env!r}"
            )
        if value < 1:
            raise ValueError(
                f"{WORKERS_ENV} must be a positive integer, got {env!r}"
            )
        return value
    return os.cpu_count() or 1


class ProcessPoolBackend:
    """Fan tasks out over a ``ProcessPoolExecutor``.

    The executor is created lazily on ``__enter__`` and shut down with
    ``cancel_futures=True`` on ``__exit__``, so an interrupt (or any
    exception unwinding through the ``with`` block) cannot leave orphan
    worker processes or queued tasks behind.

    ``task_timeout`` bounds each task's wall time so a wedged worker
    surfaces as a pool failure rather than a hang.
    """

    def __init__(self, workers: int, *, task_timeout: Optional[float] = None):
        if workers < 2:
            raise ValueError(
                "ProcessPoolBackend needs at least 2 workers; a "
                "single-worker mine runs the serial loops in process"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        self.n_workers = workers
        self.task_timeout = task_timeout
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def __enter__(self) -> "ProcessPoolBackend":
        try:
            faults.fire("parallel.pool")
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.n_workers
            )
        except InjectedFault as error:
            raise WorkerPoolError(f"worker pool failed to start: {error}") from error
        except OSError as error:
            raise WorkerPoolError(
                f"could not start {self.n_workers} worker processes: {error}"
            ) from error
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the pool, cancelling anything still queued (idempotent)."""
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def map_tasks(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> List[Any]:
        """Submit every task; gather results in submission order.

        A dead worker (``BrokenProcessPool``), an injected ``parallel.*``
        or ``pool.submit`` fault, or a task outliving ``task_timeout``
        raises :class:`WorkerPoolError` on the first failure.  Other
        :class:`~repro.resilience.errors.ReproError` subclasses (data
        errors raised inside the task) propagate as themselves.
        """
        if self._executor is None:
            raise WorkerPoolError(
                "worker pool is not running (use the backend as a context "
                "manager)"
            )
        futures = []
        results: List[Any] = []
        try:
            for task in tasks:
                faults.fire("pool.submit")
                futures.append(self._executor.submit(fn, task))
            for future in futures:
                results.append(future.result(timeout=self.task_timeout))
        except InjectedFault as error:
            raise WorkerPoolError(f"worker task failed: {error}") from error
        except ReproError:
            raise
        except concurrent.futures.TimeoutError as error:
            # The wedged worker is still holding the pool: abandon the
            # executor without waiting (shutdown(wait=True) would hang on
            # the very task that just timed out).
            executor = self._executor
            self._executor = None
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            raise WorkerPoolError(
                f"a worker task exceeded its {self.task_timeout:g}s timeout"
            ) from error
        except BrokenProcessPool as error:
            raise WorkerPoolError(
                f"a worker process died mid-task: {error}"
            ) from error
        except OSError as error:
            raise WorkerPoolError(f"worker pool I/O failure: {error}") from error
        finally:
            for future in futures:
                future.cancel()
        return results
