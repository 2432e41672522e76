"""Deterministic fault injection for crash-safety tests.

The production code is instrumented with named *fault points* — cheap
:func:`fire` calls at the places where a real deployment dies: between
per-partition tree updates mid-batch, at Phase II kernel construction,
and between a checkpoint's temp-file write and its atomic rename.  With no
injector installed a fault point is one dict lookup; tests install a
:class:`FaultInjector` to make a chosen point raise
:class:`~repro.resilience.errors.InjectedFault` after a chosen number of
hits, which is how the suite kills scans mid-stream at exact, reproducible
positions.

Instrumented points:

==========================  ====================================================
``streaming.update``        start of ``StreamingDARMiner.update_arrays``
``streaming.partition``     before each per-partition tree insert (mid-batch)
``phase2.kernel``           before every miner's Phase II kernel is built
``checkpoint.replace``      after the temp checkpoint is written, before rename
``parallel.pool``           worker-pool creation in the parallel coordinator
``parallel.worker``         entry of each parallel worker task (inherited
                            across ``fork``, so the fault fires inside the
                            worker process)
``pool.submit``             before each task submission to the process pool
``serve.request``           inside the HTTP handler, while the request counts
                            as in flight (latency/failure injection; never
                            fires for the ``/healthz``/``/metrics`` routes)
``publisher.refresh``       start of ``SnapshotPublisher.refresh`` (refresh
                            failure injection)
``columnar.matrix``         entry of ``ColumnStore.matrix`` (out-of-core
                            backend failure; exercises the guard ladder's
                            materialize-and-retry rung)
==========================  ====================================================

Beyond crashing, a plan can model *latency* two ways: ``slow_at`` sleeps
per hit, and ``block_at`` parks every hit on a :class:`Gate` until the
test releases it — the deterministic way to hold N requests in flight
concurrently without a single real sleep.

The module also carries the file- and row-corruption helpers the
checkpoint and quarantine tests use: :func:`truncate_file`,
:func:`flip_byte` and :func:`poison_csv`.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Sequence, Union

from repro.resilience.errors import InjectedFault

__all__ = [
    "FAIL_AT_ENV",
    "FaultPlan",
    "FaultInjector",
    "Gate",
    "fire",
    "install",
    "install_from_env",
    "uninstall",
    "injected",
    "truncate_file",
    "flip_byte",
    "poison_csv",
]

PathLike = Union[str, Path]

#: Environment switch for arming fault points from outside the process:
#: ``REPRO_FAIL_AT=point[:after][,point2[:after2]...]`` (see
#: :func:`install_from_env`).  The CI postmortem smoke test uses this to
#: crash a real CLI run at an exact position without touching test code.
FAIL_AT_ENV = "REPRO_FAIL_AT"


class Gate:
    """A release-controlled barrier fault plans can park threads on.

    Each waiter blocks on an internal event until :meth:`release`; the
    test side synchronizes with :meth:`wait_for_waiters` (condition
    variable, no polling), so a concurrency drill can assert "exactly K
    requests are now held in flight" before acting.  ``max_wait``
    bounds each parked thread so a buggy test cannot deadlock the
    suite.
    """

    def __init__(self, max_wait: float = 30.0):
        self.max_wait = max_wait
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._waiters = 0
        self._total = 0

    @property
    def waiters(self) -> int:
        """Threads currently parked on the gate."""
        with self._lock:
            return self._waiters

    @property
    def total_arrivals(self) -> int:
        """Threads that have ever reached the gate (parked or passed)."""
        with self._lock:
            return self._total

    def wait_for_waiters(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` threads are parked; ``False`` on timeout."""
        with self._changed:
            return self._changed.wait_for(
                lambda: self._waiters >= count, timeout=timeout
            )

    def release(self) -> None:
        """Let every current and future arrival through."""
        self._event.set()
        with self._changed:
            self._changed.notify_all()

    def arrive(self) -> None:
        """Park the calling thread until release (the plan-side hook)."""
        with self._changed:
            self._total += 1
            self._waiters += 1
            self._changed.notify_all()
        try:
            self._event.wait(timeout=self.max_wait)
        finally:
            with self._changed:
                self._waiters -= 1
                self._changed.notify_all()


class FaultPlan:
    """One scheduled failure: trip after ``after`` hits, ``times`` times.

    ``after=0`` trips on the very first hit; ``times=None`` keeps tripping
    on every hit once armed (a hard outage rather than a transient one).
    A plan with ``delay_seconds > 0`` models a *slowdown* instead of a
    crash: each trip sleeps rather than raising — the tool the regression
    tests use to make a scenario measurably slower on demand.  A plan
    with a :class:`Gate` parks the thread instead.
    """

    def __init__(self, after: int = 0, times: Optional[int] = 1,
                 message: str = "injected fault",
                 delay_seconds: float = 0.0,
                 gate: Optional[Gate] = None):
        if after < 0:
            raise ValueError("after must be non-negative")
        if times is not None and times < 1:
            raise ValueError("times must be positive (or None for 'always')")
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        self.after = after
        self.times = times
        self.message = message
        self.delay_seconds = delay_seconds
        self.gate = gate
        self.hits = 0
        self.trips = 0

    def hit(self, point: str) -> None:
        """Register a hit at ``point``; raise, sleep or park when armed."""
        self.hits += 1
        if self.hits <= self.after:
            return
        if self.times is not None and self.trips >= self.times:
            return
        self.trips += 1
        if self.gate is not None:
            self.gate.arrive()
            return
        if self.delay_seconds > 0:
            time.sleep(self.delay_seconds)
            return
        error = InjectedFault(f"{point}: {self.message} (hit {self.hits})")
        # Log the trip and cut a postmortem bundle while the pre-crash
        # rings are still intact.  Imported lazily: faults must stay
        # importable with zero repro.obs cost.
        from repro.obs import flight as obs_flight
        from repro.obs import log as obs_log

        obs_log.warn(
            "fault.trip", point=point, hits=self.hits, trips=self.trips
        )
        obs_flight.dump_on_error(f"fault-{point}", error)
        raise error


class FaultInjector:
    """A set of named fault plans, installed process-wide for a test."""

    def __init__(self) -> None:
        self._plans: Dict[str, FaultPlan] = {}

    def fail_at(self, point: str, *, after: int = 0, times: Optional[int] = 1,
                message: str = "injected fault") -> "FaultInjector":
        """Arm ``point`` to raise after ``after`` prior hits (chainable)."""
        self._plans[point] = FaultPlan(after=after, times=times, message=message)
        return self

    def slow_at(self, point: str, seconds: float, *, after: int = 0,
                times: Optional[int] = None) -> "FaultInjector":
        """Arm ``point`` to sleep ``seconds`` per hit instead of raising.

        ``times=None`` (the default) slows *every* hit once armed — the
        shape of a genuine performance regression.
        """
        self._plans[point] = FaultPlan(
            after=after, times=times, delay_seconds=seconds,
            message=f"injected delay of {seconds}s",
        )
        return self

    def block_at(self, point: str, *, after: int = 0,
                 times: Optional[int] = None,
                 max_wait: float = 30.0) -> Gate:
        """Arm ``point`` to park each hit on a :class:`Gate`; returns it.

        The returned gate is the test's handle: ``wait_for_waiters(K)``
        to synchronize with K threads held at the point, ``release()``
        to let them (and all later arrivals) through.  This is how the
        drain tests hold requests in flight deterministically, with no
        sleeps.
        """
        gate = Gate(max_wait=max_wait)
        self._plans[point] = FaultPlan(
            after=after, times=times, gate=gate,
            message="gated (blocked until release)",
        )
        return gate

    def hits(self, point: str) -> int:
        """Hits recorded at ``point`` (0 if unarmed)."""
        plan = self._plans.get(point)
        return plan.hits if plan is not None else 0

    def fire(self, point: str) -> None:
        """Trigger the plan armed at ``point``, if any."""
        plan = self._plans.get(point)
        if plan is not None:
            plan.hit(point)


_ACTIVE: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    """Clear the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = None


def fire(point: str) -> None:
    """Production-side hook: a no-op unless a test installed an injector."""
    if _ACTIVE is not None:
        _ACTIVE.fire(point)


def install_from_env(env: Optional[Mapping[str, str]] = None) -> Optional[FaultInjector]:
    """Arm fault points named by ``REPRO_FAIL_AT`` and install the injector.

    The variable holds comma-separated ``point[:after]`` entries —
    ``REPRO_FAIL_AT=streaming.partition:3`` trips
    ``streaming.partition`` after 3 clean hits, exactly like
    ``FaultInjector().fail_at("streaming.partition", after=3)``.  Returns
    the installed injector, or ``None`` when the variable is unset or
    empty (nothing is installed).  A malformed entry raises
    ``ValueError`` rather than silently running fault-free: an armed CI
    crash drill must never pass because of a typo.
    """
    raw = (env if env is not None else os.environ).get(FAIL_AT_ENV, "").strip()
    if not raw:
        return None
    injector = FaultInjector()
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        point, _, after_text = entry.partition(":")
        point = point.strip()
        if not point:
            raise ValueError(f"{FAIL_AT_ENV}: empty fault point in {raw!r}")
        after = 0
        if after_text:
            try:
                after = int(after_text)
            except ValueError:
                raise ValueError(
                    f"{FAIL_AT_ENV}: bad hit count {after_text!r} in {entry!r}"
                ) from None
        injector.fail_at(
            point, after=after, message=f"armed via {FAIL_AT_ENV}"
        )
    install(injector)
    return injector


@contextmanager
def injected(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for the duration of a ``with`` block."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


# ----------------------------------------------------------------------
# File and row corruption helpers
# ----------------------------------------------------------------------


def truncate_file(path: PathLike, keep_bytes: int) -> None:
    """Chop ``path`` down to its first ``keep_bytes`` bytes in place."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(keep_bytes, 0)])


def flip_byte(path: PathLike, offset: int) -> None:
    """XOR one byte of ``path`` (negative offsets count from the end)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: cannot flip a byte of an empty file")
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def poison_csv(
    path: PathLike,
    out_path: PathLike,
    rows: Sequence[int],
    mode: str = "text",
) -> None:
    """Copy a CSV, corrupting the given 0-based *data* rows.

    Data rows are counted after the header lines (the ``#`` schema line,
    if present, and the column-name row).  Modes: ``"text"`` replaces the
    first cell with unparseable text, ``"nan"`` with a NaN literal,
    ``"short"`` drops the row's last cell.
    """
    if mode not in ("text", "nan", "short"):
        raise ValueError(f"unknown poison mode {mode!r}")
    wanted = set(rows)
    lines = Path(path).read_text().splitlines(keepends=True)
    out = []
    data_index = 0
    for i, line in enumerate(lines):
        is_header = line.startswith("#") or (i == 0) or (
            i == 1 and lines[0].startswith("#")
        )
        if is_header or not line.strip():
            out.append(line)
            continue
        if data_index in wanted:
            ending = "\n" if line.endswith("\n") else ""
            cells = line.rstrip("\n").split(",")
            if mode == "text":
                cells[0] = "<<poisoned>>"
            elif mode == "nan":
                cells[0] = "nan"
            else:  # short
                cells = cells[:-1]
            out.append(",".join(cells) + ending)
        else:
            out.append(line)
        data_index += 1
    Path(out_path).write_text("".join(out))
