"""Command-line interface: mine rules from CSV relations.

Subcommands:

* ``mine``      — distance-based association rules (the paper's algorithm)
* ``baseline``  — the Srikant–Agrawal quantitative-rule baseline
* ``generate``  — write a synthetic workload to CSV
* ``describe``  — schema and per-column statistics of a relation
* ``snapshot``  — compile a versioned, queryable rule snapshot
* ``serve``     — serve a rule snapshot over HTTP (``/rules``,
  ``/healthz``, ``/metrics``)
* ``slo``       — evaluate SLO rule packs against saved or live metrics

Examples::

    python -m repro generate planted /tmp/claims.csv --seed 7
    python -m repro mine /tmp/claims.csv --count-support --top-k 10
    python -m repro mine /tmp/claims.csv --target claims --prune-redundant
    python -m repro mine /tmp/claims.csv --report /tmp/run.html
    python -m repro mine /tmp/claims.csv --metrics-out /tmp/metrics.prom
    python -m repro mine /tmp/dirty.csv --lenient --quarantine /tmp/bad.jsonl
    python -m repro mine /tmp/big.csv --checkpoint /tmp/run.ckpt --checkpoint-every 50000
    python -m repro mine /tmp/big.csv --resume /tmp/run.ckpt --checkpoint-every 50000
    python -m repro mine /tmp/huge.csv --out-of-core --chunk-rows 65536 --memory-budget 64m
    python -m repro baseline /tmp/claims.csv --min-support 0.15
    python -m repro snapshot /tmp/claims.csv --out /tmp/rules.snap
    python -m repro serve --snapshot /tmp/rules.snap --port 8765
    python -m repro serve --snapshot /tmp/rules.snap --log - --slo-pack default
    python -m repro mine /tmp/claims.csv --log /tmp/mine.jsonl --postmortem-dir /tmp/pm
    python -m repro slo check --metrics /tmp/metrics.prom --fail-on crit

CSV files use the schema-header format of :mod:`repro.data.io` (written by
``generate`` and by :func:`repro.data.io.save_csv`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.api import mine as mine_relation
from repro.core.config import DARConfig
from repro.data.io import load_csv, load_plain_csv, save_csv
from repro.data.relation import Relation
from repro.data.synthetic import make_clustered_relation, make_planted_rule_relation
from repro.data.wbcd import make_scaled_wbcd, make_wbcd_like
from repro.mixed.miner import MixedDARConfig, MixedDARMiner
from repro.obs.trace import span
from repro.quantitative.qar import QARConfig, QARMiner
from repro.report.describe import describe_rule
from repro.resilience import faults
from repro.resilience.errors import ReproError
from repro.serve.query import RuleQuery, apply_query

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distance-based association rules over interval data "
        "(Miller & Yang, SIGMOD 1997)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser("mine", help="mine distance-based rules from a CSV")
    mine.add_argument("csv", help="relation file written by repro (schema header)")
    mine.add_argument("--frequency", type=float, default=0.03,
                      help="frequency threshold s0 as a fraction (default 0.03)")
    mine.add_argument("--density-fraction", type=float, default=0.15,
                      help="d0 as a fraction of each column's spread (default 0.15)")
    mine.add_argument("--degree-factor", type=float, default=2.0,
                      help="D0 = degree-factor x d0 (default 2.0)")
    mine.add_argument("--metric", choices=("d1", "d2"), default="d2",
                      help="cluster distance for Phase II (default d2)")
    mine.add_argument("--workers", type=int, default=1, metavar="N",
                      help="mine with N worker processes (default 1: "
                      "serial; 0 = auto, resolving REPRO_WORKERS then "
                      "the machine's core count); falls back to serial "
                      "automatically if the pool fails, and is not "
                      "supported together with --mixed or "
                      "--checkpoint/--resume")
    mine.add_argument("--count-support", action="store_true",
                      help="post-scan: count classical support per rule")
    mine.add_argument("--mixed", action="store_true",
                      help="include nominal attributes (Section 8 extension)")
    mine.add_argument("--target", default=None,
                      help="comma-separated consequent partitions to keep")
    mine.add_argument("--prune-redundant", action="store_true",
                      help="drop rules implied by stronger shorter rules")
    mine.add_argument("--top-k", type=int, default=None,
                      help="print only the k strongest rules")
    mine.add_argument("--max-degree", type=float, default=None,
                      help="keep rules with degree at most this")
    mine.add_argument("--stats", action="store_true",
                      help="print per-partition Phase I scan statistics, "
                      "quarantine counts, degradation events and "
                      "checkpoint timings")
    mine.add_argument("--json", action="store_true",
                      help="emit the full result as JSON (not with --mixed)")
    mine.add_argument("--drop-missing", action="store_true",
                      help="drop tuples with missing values before mining")
    mine.add_argument("--impute-mean", action="store_true",
                      help="replace numeric NaNs with the column mean")
    mine.add_argument("--lenient", action="store_true",
                      help="quarantine unparseable/bad rows instead of "
                      "aborting the load")
    mine.add_argument("--quarantine", metavar="PATH", default=None,
                      help="write quarantined rows to this JSONL file "
                      "(implies --lenient)")
    mine.add_argument("--max-bad-fraction", type=float, default=0.05,
                      help="lenient mode: abort once this fraction of rows "
                      "is bad (default 0.05)")
    mine.add_argument("--out-of-core", action="store_true",
                      help="spill the CSV to a memory-mapped columnar "
                      "store and mine it chunk by chunk, so files larger "
                      "than RAM mine in bounded memory (serial engine "
                      "only; not with --mixed, --checkpoint/--resume or "
                      "the cleaning flags)")
    mine.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                      help="out-of-core spill/scan granularity in rows "
                      "(default 65536; requires --out-of-core)")
    mine.add_argument("--spill-dir", metavar="DIR", default=None,
                      help="directory for the spilled column store "
                      "(default: a temp dir removed afterwards; requires "
                      "--out-of-core)")
    mine.add_argument("--memory-budget", metavar="BYTES", default=None,
                      help="Phase I tree byte budget per partition; "
                      "accepts k/m/g suffixes (e.g. 64m).  Works with or "
                      "without --out-of-core; budgeted runs produce "
                      "bit-identical rules either way")
    mine.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="mine via the streaming engine, checkpointing "
                      "state to PATH every --checkpoint-every rows")
    mine.add_argument("--checkpoint-every", metavar="N", type=int,
                      default=10_000,
                      help="rows per streaming batch/checkpoint "
                      "(default 10000)")
    mine.add_argument("--resume", metavar="PATH", default=None,
                      help="resume a streaming mine from this checkpoint "
                      "file (continues checkpointing to the same path "
                      "unless --checkpoint overrides it)")
    mine.add_argument("--trace", metavar="PATH", default=None,
                      help="record spans for the whole run and write them "
                      "to PATH (.jsonl for JSON lines, anything else for "
                      "Chrome chrome://tracing JSON)")
    mine.add_argument("--metrics", action="store_true",
                      help="record counters/gauges/histograms and print "
                      "the metrics table after the rules")
    mine.add_argument("--report", metavar="PATH", default=None,
                      help="write a self-contained HTML run report "
                      "(span waterfall, metrics, health) to PATH; "
                      "implies tracing and metrics for the run")
    mine.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the run's metrics as Prometheus text "
                      "exposition to PATH (implies --metrics recording; "
                      "the stderr table still needs --metrics)")
    mine.add_argument("--log", metavar="PATH", default=None,
                      help="emit structured JSONL logs to PATH "
                      "('stderr' or '-' for standard error)")
    mine.add_argument("--log-level", default="info",
                      choices=("debug", "info", "warn", "error"),
                      help="minimum level recorded by --log (default: info)")
    mine.add_argument("--postmortem-dir", metavar="DIR", default=None,
                      help="arm the flight recorder: on a crash, write a "
                      "postmortem bundle (.tar.gz with recent logs/spans/"
                      "metrics, health, config) into DIR; implies tracing, "
                      "metrics and in-memory logging for the run")

    baseline = commands.add_parser(
        "baseline", help="Srikant-Agrawal quantitative rules (equi-depth)"
    )
    baseline.add_argument("csv")
    baseline.add_argument("--min-support", type=float, default=0.1)
    baseline.add_argument("--min-confidence", type=float, default=0.5)
    baseline.add_argument("--partial-completeness", type=float, default=3.0)
    baseline.add_argument("--top-k", type=int, default=None)

    generate = commands.add_parser("generate", help="write a synthetic workload")
    generate.add_argument(
        "workload", choices=("planted", "clustered", "wbcd", "wbcd-scaled")
    )
    generate.add_argument("out", help="output CSV path")
    generate.add_argument("--size", type=int, default=None,
                          help="tuples (wbcd-scaled/clustered; see docs for defaults)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--modes", type=int, default=4,
                          help="clustered: number of modes")
    generate.add_argument("--attributes", type=int, default=3,
                          help="clustered: number of attributes")

    describe = commands.add_parser("describe", help="schema and column statistics")
    describe.add_argument("csv")
    describe.add_argument("--sketch", action="store_true",
                          help="print a text histogram per numeric column")

    snapshot = commands.add_parser(
        "snapshot", help="compile a versioned, queryable rule snapshot"
    )
    snapshot.add_argument("source",
                          help="relation CSV (mined with the flags below), "
                          "a streaming checkpoint, or an existing "
                          "rule-snapshot file")
    snapshot.add_argument("--out", required=True, metavar="PATH",
                          help="snapshot output path (versioned, "
                          "CRC-checked container)")
    # Mining flags default to None so a flag given with a checkpoint
    # source is detected and refused; CSV sources fall back to the
    # DARConfig defaults.
    snapshot.add_argument("--frequency", type=float, default=None,
                          help="frequency threshold s0 as a fraction "
                          "(default 0.03; CSV sources only)")
    snapshot.add_argument("--density-fraction", type=float, default=None,
                          help="d0 as a fraction of each column's spread "
                          "(default 0.15; CSV sources only)")
    snapshot.add_argument("--degree-factor", type=float, default=None,
                          help="D0 = degree-factor x d0 (default 2.0; "
                          "CSV sources only)")
    snapshot.add_argument("--metric", choices=("d1", "d2"), default=None,
                          help="cluster distance for Phase II (default d2; "
                          "CSV sources only)")
    snapshot.add_argument("--count-support", action="store_true",
                          default=None,
                          help="count classical support per rule so "
                          "min_support queries work (CSV sources only)")
    snapshot.add_argument("--target", default=None,
                          help="comma-separated consequent partitions to "
                          "mine toward (CSV sources only)")

    serve = commands.add_parser(
        "serve", help="serve a rule snapshot over HTTP "
        "(/rules, /healthz, /metrics)"
    )
    serve.add_argument("--snapshot", required=True, metavar="PATH",
                       help="rule-snapshot file (repro snapshot), a "
                       "streaming checkpoint, or a relation CSV to mine "
                       "with default thresholds")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default 8765; 0 binds an ephemeral "
                       "port, printed in the startup banner)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="query answers kept in the LRU cache "
                       "(default 256)")
    serve.add_argument("--read-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="socket read timeout per request, the "
                       "anti-slow-loris bound (default 30)")
    serve.add_argument("--log", metavar="PATH", default=None,
                       help="emit structured JSONL logs (one access-log "
                       "record per request) to PATH ('stderr' or '-' for "
                       "standard error)")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warn", "error"),
                       help="minimum level recorded by --log (default: info)")
    serve.add_argument("--postmortem-dir", metavar="DIR", default=None,
                       help="arm the flight recorder: dump a postmortem "
                       "bundle into DIR on shutdown or crash")
    serve.add_argument("--slo-pack", metavar="PATH", default=None,
                       help="evaluate this SLO rule pack (JSON/TOML) on "
                       "every /healthz; 'default' selects the built-in "
                       "serving pack")
    serve.add_argument("--drain-seconds", type=float, default=5.0,
                       metavar="SECONDS",
                       help="how long shutdown waits for in-flight "
                       "requests before closing (default 5)")

    slo = commands.add_parser(
        "slo", help="evaluate SLO rule packs against recorded metrics"
    )
    slo_commands = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_commands.add_parser(
        "check",
        help="evaluate a rule pack; exit non-zero when it is violated",
    )
    slo_check.add_argument("--pack", metavar="PATH", default=None,
                           help="SLO rule pack (JSON or TOML); omit or pass "
                           "'default' for the built-in serving pack")
    slo_check.add_argument("--metrics", metavar="PATH", default=None,
                           help="Prometheus text file to evaluate against "
                           "(e.g. the output of `repro mine --metrics-out`)")
    slo_check.add_argument("--url", metavar="URL", default=None,
                           help="scrape a running server's /metrics "
                           "endpoint instead of reading a file")
    slo_check.add_argument("--fail-on", choices=("warn", "crit"),
                           default="crit",
                           help="violation severity that makes the exit "
                           "code non-zero (default: crit)")
    slo_check.add_argument("--json", action="store_true",
                           help="print the report as JSON instead of the "
                           "per-rule verdict lines")

    return parser


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + rename.

    Output artifacts (traces, metrics dumps) must never exist half
    written: an interrupt between open and close would otherwise leave a
    truncated file that looks like a complete export.
    """
    import os
    from pathlib import Path

    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)


def _parse_bytes(text: str) -> int:
    """Parse a byte count with an optional ``k``/``m``/``g`` suffix.

    Accepts ``65536``, ``64k``, ``128M``, ``2g`` (case-insensitive,
    powers of 1024).  Raises ``ValueError`` with the offending text on
    anything else, so CLI errors name the bad flag value.
    """
    raw = text.strip().lower()
    factor = 1
    for suffix, scale in (("k", 1024), ("m", 1024**2), ("g", 1024**3)):
        if raw.endswith(suffix):
            raw, factor = raw[: -len(suffix)], scale
            break
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid byte count {text!r}; expected an integer with an "
            f"optional k/m/g suffix (e.g. 65536, 64k, 128m)"
        ) from None
    if value <= 0:
        raise ValueError(f"byte count must be positive, got {text!r}")
    return value * factor


def _load_relation(path: str, sink=None) -> Relation:
    """Load a repro CSV, falling back to plain-CSV schema inference.

    ``sink`` (lenient mode) only applies to the schema-header format;
    plain CSVs load strictly because kind inference over corrupt cells is
    ill-defined.
    """
    try:
        return load_csv(path, sink=sink)
    except ValueError as error:
        if "schema header" not in str(error):
            raise
        return load_plain_csv(path)


def _mine_streaming(relation: Relation, config: DARConfig, args):
    """Mine via :class:`StreamingDARMiner` with periodic checkpoints.

    Feeds ``relation`` in ``--checkpoint-every``-row batches, saving a
    checkpoint after each.  With ``--resume`` the miner state is restored
    from the checkpoint file and already-absorbed rows are skipped, so a
    killed run picks up exactly where its last checkpoint left it; the
    final result is identical to the uninterrupted run's.  Returns the
    result, the checkpoint infos, and the miner itself (whose
    :meth:`~repro.core.streaming.StreamingDARMiner.health` report feeds
    ``--stats`` and ``--report``).
    """
    from repro.core.streaming import StreamingDARMiner
    from repro.data.relation import default_partitions

    every = args.checkpoint_every
    if every < 1:
        raise ValueError("--checkpoint-every must be at least 1")
    if args.resume:
        miner = StreamingDARMiner.from_checkpoint(args.resume)
    else:
        miner = StreamingDARMiner(default_partitions(relation.schema), config)
    path = args.checkpoint or args.resume
    matrices = {
        p.name: relation.matrix(p.attributes) for p in miner.partitions
    }
    n = len(relation)
    position = miner.rows_seen
    if position > n:
        raise ValueError(
            f"checkpoint has already seen {position} rows but {args.csv} "
            f"holds only {n}; did the input file change?"
        )
    infos = []
    while position < n:
        end = min(position + every, n)
        miner.update_arrays(
            {name: matrix[position:end] for name, matrix in matrices.items()}
        )
        if path is not None:
            infos.append(miner.save_checkpoint(path))
        position = end
    return miner.rules(), infos, miner


def _cmd_mine(args: argparse.Namespace) -> int:
    """Run ``mine``, wiring up observability when any of its flags are set.

    The tracer, logger and registry are reset first, so repeated
    in-process invocations (tests, notebooks) start from a clean slate
    and the exported numbers describe exactly this run.  ``--report``
    implies tracing + metrics (the dashboard needs both) and
    ``--metrics-out`` implies metrics recording.  ``--log``
    turns on the structured JSONL logger; ``--postmortem-dir`` arms the
    flight recorder (implying tracing, metrics and sink-less logging, so
    a bundle has spans, log records and a registry snapshot to carry)
    and dumps a bundle if the run crashes.
    """
    wants_obs = (
        args.trace or args.metrics or args.report or args.metrics_out
        or args.log or args.postmortem_dir
    )
    if not wants_obs:
        return _run_mine(args)

    from repro import obs

    tracer = obs.get_tracer()
    tracer.clear()
    obs.get_logger().clear()
    obs.get_registry().reset()
    obs.enable(
        trace=bool(args.trace or args.report or args.postmortem_dir),
        metrics=bool(
            args.metrics or args.report or args.metrics_out
            or args.postmortem_dir
        ),
        # The postmortem window is the tracer and logger rings, so an
        # armed run records both (the logger without a sink).
        log=bool(args.postmortem_dir),
    )
    if args.log:
        obs.enable_logging(level=args.log_level, path=args.log)
    if args.postmortem_dir:
        obs.enable_flight(
            directory=args.postmortem_dir,
            config={"command": "mine", "csv": args.csv},
        )
    capture: dict = {}
    try:
        with span("cli.mine", csv=args.csv):
            status = _run_mine(args, capture=capture)
    except Exception as error:
        # Cut the bundle while the recorders still hold the crash window
        # (the finally below switches them off).
        obs.dump_on_error("cli-mine", error)
        raise
    finally:
        obs.disable()
        obs.disable_flight()
    # Diagnostics go to stderr (like the trace confirmation) so that
    # ``--json`` stdout stays machine-parseable under ``--metrics``.
    if args.metrics:
        print("\n# metrics", file=sys.stderr)
        print(obs.get_registry().to_table(), file=sys.stderr)
    if args.trace:
        if str(args.trace).endswith(".jsonl"):
            _atomic_write_text(args.trace, tracer.to_jsonl())
            n_spans = len(tracer.spans())
        else:
            import json

            document = tracer.chrome_trace()
            _atomic_write_text(args.trace, json.dumps(document))
            n_spans = len(document["traceEvents"])
        print(f"# trace: {n_spans} spans written to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        _atomic_write_text(args.metrics_out, obs.get_registry().to_prometheus())
        print(f"# metrics written to {args.metrics_out}", file=sys.stderr)
    if args.report:
        from repro.report.dashboard import render_run_report, write_report

        health = capture.get("health")
        document = render_run_report(
            title=f"repro mine — {args.csv}",
            result=capture.get("result"),
            spans=tracer.spans(),
            metrics=obs.get_registry().snapshot(),
            health=health.to_dict() if health is not None else None,
            metadata={"input": args.csv},
        )
        write_report(document, args.report)
        print(f"# report written to {args.report}", file=sys.stderr)
    return status


def _result_health(result, n_rows: int, sink):
    """A :class:`~repro.obs.slo.HealthReport` for a finished batch mine.

    Batch mines have no live miner to interrogate, so the readings come
    from the result's Phase I diagnostics — leaf entries and rebuilds per
    partition, threshold inflation from each partition's escalation
    history — and the quarantine rate from the load sink; the streaming
    health pack grades them.
    """
    from repro.obs.slo import HEALTH_PACK, evaluate_pack

    phase1 = getattr(result, "phase1", None) or {}
    inflation = []
    for stats in phase1.values():
        history = getattr(stats, "threshold_history", None) or []
        if len(history) >= 2 and history[0] > 0:
            inflation.append(history[-1] / history[0])
    quarantined = sink.n_quarantined if sink is not None else 0
    readings = {
        "repro_phase1_entry_count": sum(
            stats.final_entry_count for stats in phase1.values()
        ),
        "repro_phase1_threshold_inflation": max(inflation, default=1.0),
        "repro_phase1_rebuilds_total": sum(
            stats.rebuilds for stats in phase1.values()
        ),
        "repro_quarantined_rows_total": quarantined,
        "repro_rows_seen_total": n_rows + quarantined,
    }
    return evaluate_pack(HEALTH_PACK, readings).to_health_report(
        prefix="", skipped=False
    )


def _run_mine(args: argparse.Namespace, capture: Optional[dict] = None) -> int:
    out_of_core = getattr(args, "out_of_core", False)
    if not out_of_core:
        for flag, name in ((args.chunk_rows, "--chunk-rows"),
                           (args.spill_dir, "--spill-dir")):
            if flag is not None:
                raise ValueError(f"{name} requires --out-of-core")
    else:
        if args.mixed:
            raise ValueError(
                "--out-of-core does not support --mixed (nominal images "
                "are mined from the in-memory relation)"
            )
        if args.checkpoint or args.resume:
            raise ValueError(
                "--out-of-core is not supported together with "
                "--checkpoint/--resume (the streaming engine keeps its "
                "own bounded state; spilling as well would double the I/O)"
            )
        if args.drop_missing or args.impute_mean:
            raise ValueError(
                "--drop-missing/--impute-mean rewrite columns in memory, "
                "which defeats --out-of-core; clean the CSV first or use "
                "--lenient to quarantine bad rows during the spill"
            )
    sink = None
    if args.lenient or args.quarantine is not None:
        from repro.resilience.sink import ErrorBudget, Quarantine

        sink = Quarantine(
            path=args.quarantine,
            budget=ErrorBudget(max_fraction=args.max_bad_fraction),
        )
    if out_of_core:
        # No plain-CSV fallback here: spilling needs the typed schema
        # header up front (kind inference would mean a second pass).
        relation = load_csv(
            args.csv,
            sink=sink,
            out_of_core=True,
            chunk_rows=args.chunk_rows,
            spill_dir=args.spill_dir,
        )
    else:
        relation = _load_relation(args.csv, sink=sink)
    if sink is not None:
        sink.close()
    if args.drop_missing and args.impute_mean:
        raise ValueError("choose one of --drop-missing / --impute-mean")
    if args.drop_missing:
        from repro.data.cleaning import drop_missing

        relation = drop_missing(relation)
    elif args.impute_mean:
        from repro.data.cleaning import impute_mean

        relation = impute_mean(relation)
    config = DARConfig(
        frequency_fraction=args.frequency,
        density_fraction=args.density_fraction,
        degree_factor=args.degree_factor,
        metric=args.metric,
        count_rule_support=args.count_support,
    )
    if args.memory_budget is not None:
        from repro.birch.birch import BirchOptions

        config = config.with_birch(
            BirchOptions(memory_limit_bytes=_parse_bytes(args.memory_budget))
        )
    targets = args.target.split(",") if args.target else None
    workers = getattr(args, "workers", 1)
    if workers is None:
        workers = 1
    if workers < 0:
        raise ValueError("--workers must be non-negative (0 = auto)")
    if workers == 0:
        from repro.parallel.executor import resolve_workers

        workers = resolve_workers(0)
    checkpoint_infos = []
    stream_miner = None
    if args.checkpoint or args.resume:
        if args.mixed:
            raise ValueError(
                "--checkpoint/--resume use the streaming engine, which does "
                "not support --mixed"
            )
        if workers > 1:
            raise ValueError(
                "--workers is not supported together with "
                "--checkpoint/--resume (the streaming engine is serial)"
            )
        if args.count_support:
            raise ValueError(
                "--count-support is not supported together with "
                "--checkpoint/--resume (the streaming engine keeps no "
                "tuples to rescan)"
            )
        result, checkpoint_infos, stream_miner = _mine_streaming(
            relation, config, args
        )
        if targets:
            result.rules = result.rules(RuleQuery(targets=tuple(targets)))
    elif args.mixed:
        if args.json:
            raise ValueError("--json is not supported together with --mixed")
        if workers > 1:
            raise ValueError(
                "--workers is not supported together with --mixed (the "
                "mixed miner has no parallel engine); drop --workers to "
                "mine mixed data serially"
            )
        result = MixedDARMiner(MixedDARConfig(base=config)).mine_mixed(relation)
    else:
        # Targets go into the miner itself (skips non-target assoc sets).
        result = mine_relation(
            relation,
            config=config,
            targets=targets,
            engine="parallel" if workers > 1 else "serial",
            workers=workers,
        )

    health = None
    try:
        health = (
            stream_miner.health()
            if stream_miner is not None
            else _result_health(result, len(relation), sink)
        )
    except Exception:  # health is advisory — never fail the mine over it
        health = None
    if capture is not None:
        capture["result"] = result
        capture["health"] = health

    if args.json:
        from repro.report.export import result_to_json

        print(result_to_json(result))
        return 0

    # One query object drives all display-side filtering; targets are
    # already applied inside the (non-mixed) miner, so they only appear
    # here for the mixed path.
    rules = apply_query(
        list(result.rules),
        RuleQuery(
            targets=tuple(targets) if (args.mixed and targets) else None,
            prune_redundant=args.prune_redundant,
            max_degree=args.max_degree,
            top_k=args.top_k,
        ),
    )

    print(f"# {len(relation)} tuples, frequency bar {result.frequency_count}")
    for name in sorted(result.density_thresholds):
        print(
            f"# partition {name}: d0={result.density_thresholds[name]:.6g} "
            f"D0={result.degree_thresholds[name]:.6g}"
        )
    if args.stats:
        if out_of_core:
            print(
                f"# columnar: {len(relation)} rows in {relation.directory} "
                f"(chunk_rows={relation.chunk_rows}, "
                f"{relation.n_bytes} bytes on disk)"
            )
        phase1 = getattr(result, "phase1", None) or {}
        for name in sorted(phase1):
            scan = phase1[name].scan
            if scan is not None:
                print(f"# scan {name}: {scan.describe()}")
        phase2 = getattr(result, "phase2", None)
        if phase2 is not None:
            print(
                f"# phase2: {phase2.n_clusters} clusters "
                f"({phase2.n_frequent_clusters} frequent), "
                f"{phase2.n_cliques} cliques in {phase2.seconds:.3f}s"
            )
            breakdown = " ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in phase2.stage_breakdown().items()
            )
            print(
                f"# phase2 stages: {breakdown} "
                f"({phase2.comparisons} comparisons, "
                f"{phase2.comparisons_skipped} pruned)"
            )
            for event in getattr(phase2, "events", []):
                print(f"# degradation: {event}")
        if sink is not None:
            print(f"# quarantine: {sink.summary()}")
        if health is not None:
            for line in health.describe().splitlines():
                print(f"# {line}")
        if checkpoint_infos:
            total_bytes = sum(info.n_bytes for info in checkpoint_infos)
            total_seconds = sum(info.seconds for info in checkpoint_infos)
            print(
                f"# checkpoints: {len(checkpoint_infos)} written to "
                f"{checkpoint_infos[-1].path} "
                f"({total_bytes} bytes, {total_seconds:.3f}s total)"
            )
    print(f"# rules: {len(rules)}")
    for rule in rules:
        if args.mixed:
            print(str(rule))
        else:
            print(describe_rule(rule))
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    relation = _load_relation(args.csv)
    config = QARConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        partial_completeness=args.partial_completeness,
    )
    result = QARMiner(config).mine(relation)
    rules = result.rules[: args.top_k] if args.top_k else result.rules
    print(f"# {len(relation)} tuples; intervals per attribute:")
    for name, intervals in sorted(result.intervals.items()):
        print(f"#   {name}: {len(intervals)} base intervals (depth {result.depth[name]})")
    print(f"# rules: {len(rules)}")
    for rule in rules:
        print(str(rule))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.workload == "planted":
        relation, _ = make_planted_rule_relation(seed=args.seed)
    elif args.workload == "clustered":
        points_per_mode = (args.size or 800) // max(args.modes, 1)
        relation, _ = make_clustered_relation(
            n_modes=args.modes,
            points_per_mode=max(points_per_mode, 1),
            n_attributes=args.attributes,
            seed=args.seed,
        )
    elif args.workload == "wbcd":
        relation = make_wbcd_like(n_tuples=args.size or 500, seed=args.seed)
    else:  # wbcd-scaled
        relation = make_scaled_wbcd(args.size or 10_000, seed=args.seed)
    save_csv(relation, args.out)
    print(f"wrote {len(relation)} tuples x {relation.arity} attributes to {args.out}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    relation = _load_relation(args.csv)
    print(f"{args.csv}: {len(relation)} tuples, {relation.arity} attributes")
    for attribute in relation.schema:
        column = relation.column(attribute.name)
        if attribute.kind.is_numeric and len(relation):
            stats = (
                f"min={column.min():.6g} max={column.max():.6g} "
                f"mean={column.mean():.6g} std={column.std():.6g}"
            )
            if getattr(args, "sketch", False) and np.all(np.isfinite(column)):
                from repro.report.ascii import histogram

                print(f"  {attribute.name} [{attribute.kind.value}]: {stats}")
                for line in histogram(column, bins=8, width=40).splitlines():
                    print(f"      {line}")
                continue
        elif len(relation):
            values, counts = np.unique(column.astype(str), return_counts=True)
            order = np.argsort(-counts)
            top = ", ".join(
                f"{values[i]}({counts[i]})" for i in order[:4]
            )
            stats = f"{len(values)} distinct: {top}"
        else:
            stats = "(empty)"
        print(f"  {attribute.name} [{attribute.kind.value}]: {stats}")
    return 0


def _is_checkpoint_file(path: str) -> bool:
    """Whether ``path`` starts with the repro checkpoint magic bytes."""
    from repro.resilience.checkpoint import MAGIC

    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _snapshot_source(path: str, config: Optional[DARConfig] = None,
                     targets: Optional[Sequence[str]] = None,
                     mining_flags: Sequence[str] = ()):
    """Resolve a ``snapshot``/``serve`` source argument.

    A checkpoint file (rule snapshot or streaming miner state) passes
    through as its path for :func:`repro.serve.compile_snapshot` to
    dispatch on; anything else is loaded as a relation CSV and mined.
    ``mining_flags`` names the mining flags the user set: a checkpoint
    is already mined, so they are refused rather than dropped.
    """
    if _is_checkpoint_file(path):
        if mining_flags:
            raise ValueError(
                f"{', '.join(mining_flags)}: mining flags apply to CSV "
                f"sources only, and {path} is a checkpoint"
            )
        return path
    relation = _load_relation(path)
    return mine_relation(relation, config=config, targets=targets)


#: ``repro snapshot`` mining flags: (argparse dest, DARConfig field, flag).
_SNAPSHOT_MINING_FLAGS = (
    ("frequency", "frequency_fraction", "--frequency"),
    ("density_fraction", "density_fraction", "--density-fraction"),
    ("degree_factor", "degree_factor", "--degree-factor"),
    ("metric", "metric", "--metric"),
    ("count_support", "count_rule_support", "--count-support"),
)


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Compile ``source`` into a versioned rule snapshot at ``--out``."""
    from repro.serve import compile_snapshot

    chosen = {}
    flags = []
    for dest, field, flag in _SNAPSHOT_MINING_FLAGS:
        value = getattr(args, dest)
        if value is not None:
            chosen[field] = value
            flags.append(flag)
    if args.target is not None:
        flags.append("--target")
    targets = args.target.split(",") if args.target else None
    snapshot = compile_snapshot(
        _snapshot_source(
            args.source, config=DARConfig(**chosen), targets=targets,
            mining_flags=flags,
        )
    )
    info = snapshot.save(args.out)
    print(
        f"# snapshot v{snapshot.version}: {snapshot.n_rules} rules over "
        f"{len(snapshot.partitions)} partition(s) -> {args.out} "
        f"({info.n_bytes} bytes)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve ``--snapshot`` over HTTP until SIGINT/SIGTERM.

    Metrics recording is enabled for the process so ``/metrics`` exports
    live ``repro_serve_*`` series.  The startup banner (flushed, on
    stdout) names the bound address — under ``--port 0`` it is the only
    way for a supervisor to learn the real port.  SIGINT/SIGTERM set a
    stop event; the server thread is then shut down and joined, so a
    signalled process exits 0 with the listening socket closed.
    """
    import signal
    import threading

    from repro import obs
    from repro.obs.metrics import enable_metrics, get_registry
    from repro.serve import RuleServer, SnapshotPublisher

    if args.cache_size < 1:
        raise ValueError("--cache-size must be at least 1")
    get_registry().reset()
    enable_metrics()
    obs.publish_build_info()
    if args.log:
        obs.enable_logging(level=args.log_level, path=args.log)
    if args.postmortem_dir:
        obs.enable_tracing()
        obs.enable_logging()
        obs.enable_flight(
            directory=args.postmortem_dir,
            config={"command": "serve", "snapshot": args.snapshot},
        )
    slo_pack = None
    if args.slo_pack:
        from repro.obs import slo as obs_slo

        slo_pack = (
            obs_slo.default_pack()
            if args.slo_pack == "default"
            else obs_slo.load_pack(args.slo_pack)
        )
    publisher = SnapshotPublisher(
        _snapshot_source(args.snapshot), cache_size=args.cache_size
    )
    with RuleServer(
        publisher, host=args.host, port=args.port,
        read_timeout_seconds=args.read_timeout,
        drain_seconds=args.drain_seconds,
        slo_pack=slo_pack,
    ) as server:
        # Handlers go in before the banner: a supervisor may signal as
        # soon as it has read the port.
        stop = threading.Event()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, lambda *_: stop.set())
        server.start()
        host, port = server.address
        print(
            f"# serving {publisher.snapshot.n_rules} rules "
            f"(snapshot v{publisher.version}) on http://{host}:{port}",
            flush=True,
        )
        if slo_pack is not None:
            print(f"# slo pack: {len(slo_pack)} rule(s) on /healthz", flush=True)
        print("# endpoints: /rules /healthz /metrics", flush=True)
        stop.wait()
    print("# shut down cleanly", file=sys.stderr)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Run ``slo check``: evaluate a rule pack, exit non-zero on violation.

    The metrics to judge come from exactly one of ``--metrics`` (a saved
    Prometheus text file, e.g. ``repro mine --metrics-out``) or ``--url``
    (a live server, scraped once).  The exit code is the report's
    :meth:`~repro.obs.slo.SLOReport.exit_code` under ``--fail-on``: 0
    while healthy, 1 once the worst status reaches the chosen severity —
    which is what lets CI gate on SLO compliance.
    """
    from repro.obs import slo as obs_slo

    if (args.metrics is None) == (args.url is None):
        raise ValueError("give exactly one of --metrics or --url")
    if args.metrics is not None:
        from pathlib import Path

        text = Path(args.metrics).read_text(encoding="utf-8")
    else:
        from urllib.request import urlopen

        url = args.url.rstrip("/")
        if not url.endswith("/metrics"):
            url = f"{url}/metrics"
        with urlopen(url, timeout=10) as response:  # noqa: S310
            text = response.read().decode("utf-8")
    if args.pack in (None, "default"):
        rules = obs_slo.default_pack()
    else:
        rules = obs_slo.load_pack(args.pack)
    report = obs_slo.evaluate_pack(rules, obs_slo.parse_prometheus(text))
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return report.exit_code(fail_on=args.fail_on)


_COMMANDS = {
    "mine": _cmd_mine,
    "baseline": _cmd_baseline,
    "generate": _cmd_generate,
    "describe": _cmd_describe,
    "snapshot": _cmd_snapshot,
    "serve": _cmd_serve,
    "slo": _cmd_slo,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    ``REPRO_FAIL_AT`` (see :func:`repro.resilience.faults.install_from_env`)
    arms fault points before the command runs — the CI crash drill's
    switch.  A command failing with a typed error still gets a postmortem
    bundle when the flight recorder is armed, then exits 1 with a
    one-line message.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    faults.install_from_env()
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, ReproError) as error:
        from repro.obs import flight as obs_flight

        obs_flight.dump_on_error("cli-error", error)
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Worker pools and Phase I spill directories are owned by context
        # managers inside the miner, so they are already released by the
        # time the interrupt unwinds to here; output files are written
        # atomically, so none is left half-finished.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
