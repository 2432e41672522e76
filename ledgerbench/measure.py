"""The measuring process: one workload, one seed, in a fresh interpreter.

::

    python3 ledgerbench/measure.py --workload W --seed S --seconds N \\
        --trace 0|1 --inputs DIR [--fault POINT:SECONDS]

``run.py`` starts it after the inputs exist and prints its result.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics`` (values without units) and
``info``.

The program is driven only through its public API, and called through
module attributes (``repro.mine``, ``repro_io.load_csv``) so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import repro
import repro.data.io as repro_io
import repro.serve.snapshot as repro_snapshot
from repro.birch.birch import BirchOptions
from repro.core.config import DARConfig
from repro.data.relation import default_partitions
from repro.resilience import faults
from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher
from repro.serve.query import QueryEngine, RuleQuery

import workloads
from tracer import NullTracer, Tracer

#: Largest tolerated gap between the summed self times and the traced
#: wall time, as a share of that wall time.
LEDGER_TOLERANCE = 0.005


class Workload:
    """Set-up, one iteration, and the checks every iteration must pass."""

    def __init__(self, name: str, seed: int, inputs: Path):
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.seed = seed
        self.inputs = inputs
        self.expected = json.loads((inputs / "expected.json").read_text())
        self.tracer = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: Counts of each operation of the first iteration over each input
        #: (``str(key)`` -> list); every later one must repeat them exactly.
        self.counts = {}
        self.version = 0

    def setup(self) -> None:
        self.publisher = SnapshotPublisher()

    def teardown(self) -> None:
        pass

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def check_counts(self, key, ops) -> None:
        observed = [op["counts"] for op in ops]
        known = self.counts.get(str(key), [])
        shared = min(len(observed), len(known))
        if observed[:shared] != known[:shared]:
            self.check(False, f"counts changed between iterations: {observed} != {known}")
        if len(observed) > len(known):
            self.counts[str(key)] = observed

    def check_repeatable(self) -> None:
        """The counts must equal those of every earlier run of this seed
        (on the inputs both runs reached)."""
        path = self.inputs / f"counts-{self.name}.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        for key in recorded.keys() & self.counts.keys():
            self.check(recorded[key] == self.counts[key],
                       f"counts {self.counts[key]} differ from an earlier run's {recorded[key]}")
        if self.counts.keys() - recorded.keys():
            partial = path.with_name(f"{path.name}.{os.getpid()}")
            partial.write_text(json.dumps({**self.counts, **recorded}))
            os.replace(partial, path)

    def iteration(self, limit=None):
        raise NotImplementedError


def _column_names(csv_path: Path):
    """Attribute names from the header row of a ``save_csv`` file."""
    with csv_path.open() as handle:
        handle.readline()
        return handle.readline().strip().split(",")


def _rule_counts(result) -> dict:
    return {
        "rules": len(result.rules),
        "edges": result.graph.n_edges if result.graph is not None else 0,
        "cliques": len(result.cliques),
        "rebuilds": sum(getattr(s, "rebuilds", 0) for s in (result.phase1 or {}).values()),
    }


class TallOutOfCore(Workload):
    """The tall CSV spilled into a fresh directory per iteration ->
    ``repro.mine`` under the Phase I memory budget -> compile -> swap into
    a running ``RuleServer`` -> queries over one keep-alive HTTP
    connection."""

    def setup(self) -> None:
        super().setup()
        self.csv = self.inputs / "relation.csv"
        self.config = DARConfig(
            birch=BirchOptions(memory_limit_bytes=workloads.OUTOFCORE_BUDGET_BYTES)
        )
        self.spill_root = self.inputs.parent / f"spill-{os.getpid()}"
        self.queries = [RuleQuery(**q) for q in workloads.query_pool("tall", _column_names(self.csv))]
        self.paths = [f"/rules?{q.to_query_string()}" for q in self.queries]
        self.server = RuleServer(self.publisher, port=0).start()
        host, port = self.server.address
        self.connection = http.client.HTTPConnection(host, port, timeout=60)

    def teardown(self) -> None:
        self.connection.close()
        self.server.shutdown()
        shutil.rmtree(self.spill_root, ignore_errors=True)

    def iteration(self, limit=None):
        self.version += 1
        spill = self.spill_root / f"{self.version:04d}"
        with self.tracer.span("bench", "iteration"):
            started = time.perf_counter()
            relation = repro_io.load_csv(self.csv, out_of_core=True, spill_dir=spill)
            result = repro.mine(relation, config=self.config)
            rules_s = time.perf_counter() - started
            snapshot = repro_snapshot.compile_snapshot(result, version=self.version)
            self.publisher.swap(snapshot)
            latencies, ends, loop_s = self.ask()
            serve_s = ends[0] - started
            counts = _rule_counts(result)
            counts["cache_hits"] = self.publisher.engine.cache_info()["hits"]
            counts["chunks"] = -(-len(relation) // relation.chunk_rows)
            relation.close()
            shutil.rmtree(spill)
            with self.tracer.paused():
                self.verify(snapshot)
        ops = [{"rules_s": rules_s, "serve_s": serve_s, "latencies": latencies,
                "loop_s": loop_s, "counts": counts}]
        self.check_counts(0, ops)
        return ops

    def ask(self):
        latencies = []
        ends = []
        self.responses = []
        started = time.perf_counter()
        for path in self.paths:
            with self.tracer.span("serve.http", "request", remote=True):
                before = time.perf_counter()
                self.connection.request("GET", path)
                response = self.connection.getresponse()
                body = response.read()
                after = time.perf_counter()
            latencies.append(after - before)
            ends.append(after)
            self.responses.append((response.status, body))
        return latencies, ends, time.perf_counter() - started

    def verify(self, snapshot) -> None:
        """The rule set equals the reference; every HTTP answer equals a
        fresh ``QueryEngine`` on the same snapshot."""
        self.check(
            workloads.snapshot_digest(snapshot) == self.expected["budget"],
            f"iteration {self.version}: rule set differs from the in-memory mine "
            "under the same budget",
        )
        reference = QueryEngine(snapshot)
        for query, (status, body) in zip(self.queries, self.responses):
            ok = status == 200
            if ok:
                payload = json.loads(body)
                ok = (
                    payload["snapshot_version"] == snapshot.version
                    and [row["id"] for row in payload["rules"]] == list(reference.query(query).ids)
                )
            self.check(ok, f"HTTP answer to {query} differs from QueryEngine (status {status})")


class _RulesProbe:
    """Hands a streaming miner to ``SnapshotPublisher.refresh`` and notes
    when its rules were ready, which splits freshness into time-to-rules
    and the rest."""

    def __init__(self, miner):
        self.miner = miner
        self.result = None
        self.ready = None

    def rules(self):
        self.result = self.miner.rules()
        self.ready = time.perf_counter()
        return self.result


class StreamRefresh(Workload):
    """Batches arrive as CSVs; each is absorbed, the snapshot refreshed,
    then queried cold through the library.  An iteration replays one
    stream of the seed into a fresh miner, the streams in turn."""

    def setup(self) -> None:
        super().setup()
        self.turn = 0
        self.streams = [
            sorted((self.inputs / f"stream-{stream}").glob("batch-*.csv"))
            for stream in range(workloads.STREAMS)
        ]
        self.queries = [RuleQuery(**q) for q in
                        workloads.query_pool("stream", _column_names(self.streams[0][0]))]

    def library_queries(self):
        """Closed loop of library queries; returns latencies and loop time."""
        latencies = []
        ends = []
        started = time.perf_counter()
        for query in self.queries:
            before = time.perf_counter()
            answer = self.publisher.query(query)
            after = time.perf_counter()
            latencies.append(after - before)
            ends.append(after)
            self.check(answer.version == self.publisher.version, "answer from a stale snapshot")
        return latencies, ends, time.perf_counter() - started

    def iteration(self, limit=None):
        """The next stream, or with ``limit`` the first batches of the first."""
        ops = []
        stream = 0
        if limit is None:
            stream = self.turn % len(self.streams)
            self.turn += 1
        miner = None
        with self.tracer.span("bench", "iteration"):
            for index, path in enumerate(self.streams[stream][:limit]):
                started = time.perf_counter()
                relation = repro_io.load_csv(path)
                if miner is None:
                    miner = repro.StreamingDARMiner(default_partitions(relation.schema))
                miner.update(relation)
                probe = _RulesProbe(miner)
                snapshot = self.publisher.refresh(probe)
                latencies, ends, loop_s = self.library_queries()
                counts = _rule_counts(probe.result)
                counts["cache_hits"] = self.publisher.engine.cache_info()["hits"]
                ops.append({"rules_s": probe.ready - started, "serve_s": ends[0] - started,
                            "latencies": latencies, "loop_s": loop_s, "counts": counts})
                with self.tracer.paused():
                    self.check(
                        workloads.snapshot_digest(snapshot)
                        == self.expected["streams"][stream][index],
                        f"stream {stream} batch {index}: rule set differs from the replay reference",
                    )
        self.check_counts(stream, ops)
        return ops


WORKLOAD_CLASSES = {
    "tall_outofcore": TallOutOfCore,
    "stream_refresh": StreamRefresh,
}


def make(name: str, seed: int, inputs: Path) -> Workload:
    return WORKLOAD_CLASSES[name](name, seed, inputs)


def run_for(workload: Workload, seconds: float, min_iterations: int):
    """Whole iterations until ``seconds`` would be exceeded (at least
    ``min_iterations``); returns the operations and per-iteration walls."""
    ops = []
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        ops.extend(workload.iteration())
        walls.append(time.perf_counter() - started)
        enough = len(walls) >= min_iterations
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            return ops, walls


def end_to_end(workload: Workload, ops) -> dict:
    latencies = [value for op in ops for value in op["latencies"]]
    return {
        "time_to_rules_s": statistics.fmean(op["rules_s"] for op in ops),
        "time_to_serve_s": statistics.fmean(op["serve_s"] for op in ops),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_tail_ms": workloads.percentile(latencies, workload.spec["tail_pct"]) * 1e3,
        "query_qps": len(latencies) / sum(op["loop_s"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, n_ops: int, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the spans of the traced phase.

    Times and counts are per pipeline operation, so the layer times add
    up to the traced wall time of one operation.
    """
    self_times = tracer.self_times()
    by_op = {}
    by_layer = {}
    attrs = {}
    durations = {}
    for (layer, op, start, end, _, extra), own in zip(tracer.spans, self_times):
        by_op[(layer, op)] = by_op.get((layer, op), 0.0) + own
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        durations.setdefault((layer, op), []).append((end - start, own, extra or {}))
        for key, value in (extra or {}).items():
            attrs[(layer, op, key)] = attrs.get((layer, op, key), 0) + value

    def per_op(layer, op):
        return by_op.get((layer, op), 0.0) / n_ops

    def total(layer, op, key):
        return attrs.get((layer, op, key), 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    core_rules = total("core", "mine", "rules") + total("core.streaming", "rules", "rules")
    core_frequent = (total("core", "mine", "frequent_clusters")
                     + total("core.streaming", "rules", "frequent_clusters"))
    engine = durations.get(("serve.query", "query"), [])
    misses = [d for d, _, extra in engine if not extra.get("cached", False)]
    requests = durations.get(("serve.http", "request"), [])
    wall = sum(traced_walls)
    accounted = sum(self_times)

    def med(values, scale):
        return statistics.median(values) * scale if values else 0.0

    return {
        "data.io.load_s": per_op("data.io", "load"),
        "data.io.rows_per_s": ratio(total("data.io", "load", "rows"), by_op.get(("data.io", "load"), 0.0)),
        "data.columnar.spill_s": per_op("data.columnar", "spill"),
        "data.columnar.bytes_per_row": ratio(total("data.io", "load", "bytes"),
                                             total("data.io", "load", "rows")),
        "data.columnar.chunks": total("data.io", "load", "chunks") / n_ops,
        "birch.fit_s": per_op("birch", "fit"),
        "birch.points_per_s": ratio(total("birch", "fit", "points"), by_op.get(("birch", "fit"), 0.0)),
        "birch.rebuilds": total("birch", "fit", "rebuilds") / n_ops,
        "birch.splits": total("birch", "fit", "splits") / n_ops,
        "birch.absorbed_ratio": ratio(total("birch", "fit", "absorbed"), total("birch", "fit", "points")),
        "birch.leaf_entries": total("birch", "fit", "leaf_entries") / n_ops,
        "core.kernel_s": per_op("core", "kernel"),
        "core.cliques_s": per_op("core", "cliques"),
        "core.mine_self_s": per_op("core", "mine"),
        "core.frequent_clusters": core_frequent / n_ops,
        "core.edges": total("core", "kernel", "edges") / n_ops,
        "core.skipped_ratio": ratio(total("core", "kernel", "skipped"), total("core", "kernel", "comparisons")),
        "core.cliques": total("core", "cliques", "n") / n_ops,
        "core.rules": core_rules / n_ops,
        "core.streaming.update_s": per_op("core.streaming", "update"),
        "core.streaming.rules_s": per_op("core.streaming", "rules"),
        "resilience.guard_self_s": by_layer.get("resilience.guard", 0.0) / n_ops,
        "resilience.guard_events": tracer.counts["guard_events"] / n_ops,
        "serve.snapshot.compile_s": per_op("serve.snapshot", "compile"),
        "serve.snapshot.rules_per_s": ratio(total("serve.snapshot", "compile", "rules"),
                                            by_op.get(("serve.snapshot", "compile"), 0.0)),
        "serve.publisher.refresh_self_s": per_op("serve.publisher", "refresh"),
        "serve.query.engine_p50_us": med([d for d, _, _ in engine], 1e6),
        "serve.query.miss_p50_ms": med(misses, 1e3),
        "serve.query.cache_hit_ratio": ratio(len(engine) - len(misses), len(engine)),
        "serve.query.cache_hits": (len(engine) - len(misses)) / n_ops,
        "serve.http.overhead_p50_ms": med([own for _, own, _ in requests], 1e3),
        "serve.http.requests": len(requests) / n_ops,
        "bench.unattributed_s": by_layer.get("bench", 0.0) / n_ops,
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "trace.ledger_error_ratio": abs(accounted - wall) / wall,
        "trace.absent_hooks": float(len(tracer.absent)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Measure one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--fault", help="POINT:SECONDS, a slowdown at a repro fault point")
    args = parser.parse_args()

    workload = make(args.workload, args.seed, args.inputs)
    injector = None
    info = {"tail_pct": workload.spec["tail_pct"]}
    try:
        workload.setup()
        if args.fault:
            point, _, delay = args.fault.rpartition(":")
            injector = faults.FaultInjector().slow_at(point, float(delay))
            faults.install(injector)
        # Warm-up: lazy imports, first-call set-up and the HTTP connection.
        workload.iteration(limit=3)
        minimum = workload.spec["min_iterations"]
        if args.trace:
            half = max(1, minimum // 2)
            _, untraced_walls = run_for(workload, args.seconds / 2, half)
            tracer = Tracer()
            tracer.install()
            workload.tracer = tracer
            ops, walls = run_for(workload, args.seconds / 2, half)
            tracer.uninstall()
            metrics = per_layer(tracer, len(ops), walls, untraced_walls)
            info["absent_layers"] = tracer.absent_layers()
            info["absent_hooks"] = tracer.absent
            if metrics["trace.ledger_error_ratio"] > LEDGER_TOLERANCE:
                workload.check(False, (
                    f"ledger does not close: self times miss the traced wall time by "
                    f"{metrics['trace.ledger_error_ratio']:.2%} (tolerance {LEDGER_TOLERANCE:.1%})"
                ))
        else:
            ops, walls = run_for(workload, args.seconds, minimum)
            metrics = end_to_end(workload, ops)
        workload.check_repeatable()
        info.update(
            iterations=len(walls),
            operations=len(ops),
            queries=sum(len(op["latencies"]) for op in ops),
            counts=workload.counts,
        )
        if injector is not None:
            info["fault_hits"] = injector.hits(point)
    except Exception:
        traceback.print_exc()
        workload.check(False, "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        metrics = {}
    finally:
        faults.uninstall()
        workload.teardown()
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "info": info,
        "problems": workload.problems,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
