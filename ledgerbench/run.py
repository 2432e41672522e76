"""The repository benchmark: CSV -> rules -> snapshot -> queries.

::

    python3 ledgerbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--fault POINT:SECONDS]

Run from the repository root.  Steps, each in its own process:

1. generate the workload's inputs and reference answers from the seed,
   once per seed and program version, into ``.bench_cache/``
   (``inputs.py``);
2. with ``--trace 0``, time the set-up of a fresh interpreter several
   times (``probe.py``), half before and half after step 3, and report
   the median as ``setup_s``;
3. measure the workload for ``--seconds`` (``measure.py``).

Prints every metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its ``per_layer``
metrics with ``--trace 1``.  Exits 1 when an output was wrong, and 2 when
the program's sources are not there.

``--fault POINT:SECONDS`` arms ``repro.resilience.faults`` to sleep at a
fault point on every hit; ``selfcheck.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Fresh interpreters timed for ``setup_s``, half of them before the
#: measuring process and half after, so one busy phase of the host does
#: not set the median (after one untimed probe that lets the file cache
#: and bytecode settle).
SETUP_PROBES = 16
#: Every run must end within this many seconds.
RUN_LIMIT = 175.0
#: Time kept back from the measuring process for the probes after it.
PROBE_RESERVE = 30.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(CACHE / "tmp")
    return env


def ensure_inputs(family: str, seed: int) -> Path:
    """Generate the inputs of ``family`` for ``seed`` unless this version
    of the program has already generated them."""
    target = workloads.input_dir(CACHE, family, seed, workloads.source_digest(SRC / "repro"))
    if (target / "expected.json").exists():
        return target
    partial = CACHE / f".{target.name}.{os.getpid()}"
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--family", family,
         "--seed", str(seed), "--out", str(partial)],
        env=child_env(), check=True, timeout=600,
    )
    try:
        os.rename(partial, target)
    except OSError:  # another run generated the same inputs first
        shutil.rmtree(partial, ignore_errors=True)
    return target


def time_setup(workload: str, seed: int, inputs: Path) -> float:
    """Seconds from starting a fresh interpreter to the workload ready."""
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload,
         "--seed", str(seed), "--inputs", str(inputs)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
    )
    watchdog = threading.Timer(60.0, probe.kill)
    watchdog.start()
    try:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdin.close()
        probe.wait()
    finally:
        watchdog.cancel()
        probe.stdout.close()
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", help="POINT:SECONDS slowdown (self-check only)")
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    inputs = ensure_inputs(workloads.WORKLOADS[args.workload]["family"], args.seed)
    setup = []
    if not args.trace:
        time_setup(args.workload, args.seed, inputs)
        setup = [time_setup(args.workload, args.seed, inputs)
                 for _ in range(SETUP_PROBES // 2)]

    command = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--inputs", str(inputs)]
    if args.fault:
        command += ["--fault", args.fault]
    child = subprocess.run(
        command, stdout=subprocess.PIPE, env=child_env(), text=True,
        timeout=max(10.0, RUN_LIMIT - PROBE_RESERVE - (time.monotonic() - started)),
    )
    if setup:
        setup += [time_setup(args.workload, args.seed, inputs)
                  for _ in range(SETUP_PROBES - len(setup))]
    lines = child.stdout.strip().splitlines()
    if not lines:
        print(f"error: the measuring process printed nothing (exit {child.returncode})",
              file=sys.stderr)
        return 1
    measured = json.loads(lines[-1])
    metrics = measured["metrics"]
    problems = list(measured["problems"])
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if not args.trace:
        attempted = measured["attempted"]
        metrics["ok_ratio"] = (attempted - measured["failed"]) / attempted
    names = [entry["name"] for entry in wanted]
    if metrics and sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    correct = measured["correct"] and not problems

    for entry in wanted:
        if entry["name"] in metrics:
            print(f"{entry['name']:34s} {metrics[entry['name']]:14.6g} {entry['unit']}")
    for key, value in measured["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in wanted if entry["name"] in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
