"""Self-check of the ledger: injected slowdowns must land where predicted.

::

    python3 ledgerbench/selfcheck.py [--seed N] [--seconds S]

Runs ``run.py`` with and without ``--fault`` (a sleep at a fault point of
``repro.resilience.faults``) and asserts:

* ``serve.request`` lands in ``serve.http`` on ``tall_outofcore`` (traced)
  and raises ``tall_outofcore``'s ``query_p50_ms``, while
  ``stream_refresh``, which has no HTTP, never hits it and stays within
  its bounds;
* ``streaming.update`` lands in ``core.streaming`` on ``stream_refresh``
  (traced) and raises its ``time_to_serve_s`` (the freshness of each
  batch), while ``tall_outofcore`` never hits it and stays within its
  bounds;
* on every workload the layer self times plus ``bench.unattributed_s``
  sum to the traced wall time within ``measure.LEDGER_TOLERANCE``;
* a hook whose target no longer exists is reported as absent while the
  other hooks still wrap.

Exits 1 if any assertion fails.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Injected delays (seconds per hit) and the share of each that must show.
#: The HTTP delay is large enough (2 s per iteration of 20 requests) that
#: the leak allowance below exceeds the run-to-run noise of
#: ``tall_outofcore``'s CPU-bound layers.
HTTP_DELAY = 0.1
UPDATE_DELAY = 0.5
MUST_SHOW = 0.8
#: Largest share of the injected time per operation that may appear in a
#: layer other than the predicted one.
MAY_LEAK = 0.25
#: Mirrors ``measure.LEDGER_TOLERANCE`` without importing the program.
LEDGER_TOLERANCE = 0.005


def run(workload, seed, seconds, trace, fault=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        command += ["--fault", fault]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith("# ") and ": " in line:
            key, _, value = line[2:].partition(": ")
            info[key] = json.loads(value)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return values, info


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, message):
        print(f"{'PASS' if ok else 'FAIL'}  {message}", flush=True)
        self.failures += not ok


ABSENT_PROBE = """
import json, tracer
t = tracer.Tracer()
t.install(tracer.HOOKS + [
    ("gone", "op", "repro.no_such_module", "function", None),
    ("gone", "op", "repro.api", "NoSuchClass.method", None),
])
import repro
wrapped = getattr(repro.mine, "__wrapped__", None) is not None
t.uninstall()
restored = getattr(repro.mine, "__wrapped__", None) is None
print(json.dumps({"absent": t.absent, "layers": t.absent_layers(),
                  "wrapped": wrapped, "restored": restored}))
"""


def check_absent_hooks(checks):
    """A hook whose target is gone is reported, and the rest still wrap."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", ABSENT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
    checks.expect(
        result.get("layers") == ["gone"] and len(result.get("absent", [])) == 2
        and result.get("wrapped") and result.get("restored"),
        f"missing hook targets are reported as an absent layer, the others still wrap: {result or done.stderr}",
    )


def layer_times(values):
    """Per-layer self times (seconds per operation), not rates."""
    return {name: value for name, value in values.items()
            if name.endswith("_s") and not name.endswith("_per_s")
            and name != "bench.unattributed_s"}


def main() -> int:
    parser = argparse.ArgumentParser(description="Check that injected slowdowns land as predicted.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    seed, seconds = args.seed, args.seconds
    bounds = {entry["name"]: entry for entry in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    checks = Checks()
    check_absent_hooks(checks)

    def within_bounds(workload, base, faulted):
        for name, value in faulted.items():
            entry = bounds[name]
            worse = (value - base[name]) if entry["better"] == "lower" else (base[name] - value)
            checks.expect(
                worse <= entry["bound"] * abs(base[name]),
                f"{workload} {name}: {base[name]:.6g} -> {value:.6g} (bound {entry['bound']:.0%})",
            )

    def landed(workload, metric, base, faulted, rise, injected_per_op):
        """``metric`` rose by most of ``rise``; no other layer time took
        more than a small share of the time injected per operation."""
        checks.expect(
            faulted[metric] - base[metric] >= MUST_SHOW * rise,
            f"{workload} {metric} rose {base[metric]:.6g} -> {faulted[metric]:.6g} "
            f"(expected +{rise:.6g})",
        )
        base_times, faulted_times = layer_times(base), layer_times(faulted)
        for name, value in faulted_times.items():
            if name != metric:
                checks.expect(
                    value - base_times[name] <= MAY_LEAK * injected_per_op,
                    f"{workload} {name} unmoved: {base_times[name]:.6g} -> {value:.6g} s",
                )

    traced = {}
    for workload in ("tall_outofcore", "stream_refresh"):
        traced[workload], _ = run(workload, seed, seconds, 1)
        error = traced[workload]["trace.ledger_error_ratio"]
        checks.expect(error <= LEDGER_TOLERANCE,
                      f"{workload} ledger closes: self times + bench.unattributed_s "
                      f"within {error:.3%} of traced wall time (tolerance {LEDGER_TOLERANCE:.1%})")

    # serve.request: serve.http on tall_outofcore; stream_refresh has no HTTP.
    fault = f"serve.request:{HTTP_DELAY}"
    faulted, _ = run("tall_outofcore", seed, seconds, 1, fault)
    requests = traced["tall_outofcore"]["serve.http.requests"]
    landed("tall_outofcore", "serve.http.overhead_p50_ms", traced["tall_outofcore"], faulted,
           HTTP_DELAY * 1e3, requests * HTTP_DELAY)
    tall_base, _ = run("tall_outofcore", seed, seconds, 0)
    faulted, _ = run("tall_outofcore", seed, seconds, 0, fault)
    checks.expect(faulted["query_p50_ms"] - tall_base["query_p50_ms"] >= MUST_SHOW * HTTP_DELAY * 1e3,
                  f"tall_outofcore query_p50_ms rose {tall_base['query_p50_ms']:.6g} -> "
                  f"{faulted['query_p50_ms']:.6g} ms (expected +{HTTP_DELAY * 1e3:g})")
    stream_base, _ = run("stream_refresh", seed, seconds, 0)
    faulted, info = run("stream_refresh", seed, seconds, 0, fault)
    checks.expect(info.get("fault_hits") == 0, f"stream_refresh never hits serve.request ({info.get('fault_hits')} hits)")
    within_bounds("stream_refresh", stream_base, faulted)

    # streaming.update: core.streaming on stream_refresh; tall_outofcore never streams.
    fault = f"streaming.update:{UPDATE_DELAY}"
    faulted, _ = run("stream_refresh", seed, seconds, 1, fault)
    landed("stream_refresh", "core.streaming.update_s", traced["stream_refresh"], faulted,
           UPDATE_DELAY, UPDATE_DELAY)
    faulted, _ = run("stream_refresh", seed, seconds, 0, fault)
    checks.expect(faulted["time_to_serve_s"] - stream_base["time_to_serve_s"] >= MUST_SHOW * UPDATE_DELAY,
                  f"stream_refresh time_to_serve_s rose {stream_base['time_to_serve_s']:.6g} -> "
                  f"{faulted['time_to_serve_s']:.6g} s (expected +{UPDATE_DELAY:g})")
    faulted, info = run("tall_outofcore", seed, seconds, 0, fault)
    checks.expect(info.get("fault_hits") == 0, f"tall_outofcore never hits streaming.update ({info.get('fault_hits')} hits)")
    within_bounds("tall_outofcore", tall_base, faulted)

    print(f"{checks.failures} failed" if checks.failures else "all checks passed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
