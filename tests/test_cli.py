"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.io import load_csv, save_csv
from repro.data.relation import Relation, Schema


@pytest.fixture
def planted_csv(tmp_path):
    path = tmp_path / "planted.csv"
    assert main(["generate", "planted", str(path), "--seed", "7"]) == 0
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestGenerate:
    def test_planted(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        assert main(["generate", "planted", str(path)]) == 0
        assert "wrote 450 tuples" in capsys.readouterr().out
        relation = load_csv(path)
        assert relation.schema.names == ("age", "dependents", "claims")

    def test_clustered_with_options(self, tmp_path):
        path = tmp_path / "b.csv"
        assert main([
            "generate", "clustered", str(path),
            "--size", "200", "--modes", "2", "--attributes", "4",
        ]) == 0
        relation = load_csv(path)
        assert relation.arity == 4
        assert len(relation) >= 200

    def test_wbcd(self, tmp_path):
        path = tmp_path / "c.csv"
        assert main(["generate", "wbcd", str(path), "--size", "100"]) == 0
        assert load_csv(path).arity == 30

    def test_bad_output_path(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["generate", "planted", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestDescribe:
    def test_numeric_stats(self, planted_csv, capsys):
        assert main(["describe", planted_csv]) == 0
        out = capsys.readouterr().out
        assert "450 tuples" in out
        assert "age [interval]" in out
        assert "mean=" in out

    def test_nominal_stats(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        relation = Relation(
            Schema.of(job="nominal", pay="interval"),
            {"job": ["a", "a", "b"], "pay": [1.0, 2.0, 3.0]},
        )
        save_csv(relation, path)
        assert main(["describe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 distinct" in out

    def test_missing_file(self, capsys):
        assert main(["describe", "/nonexistent/file.csv"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMine:
    def test_basic_mining(self, planted_csv, capsys):
        assert main(["mine", planted_csv]) == 0
        out = capsys.readouterr().out
        assert "# rules:" in out
        assert "IF " in out and " THEN " in out

    def test_top_k_limits_output(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("IF ") == 3

    def test_count_support_shown(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--count-support", "--top-k", "2"]) == 0
        assert "support=" in capsys.readouterr().out

    def test_target_filtering(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--target", "claims"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("IF "):
                consequent = line.split(" THEN ")[1]
                assert "claims in" in consequent
                assert "age in" not in consequent

    def test_prune_reduces_rule_count(self, planted_csv, capsys):
        assert main(["mine", planted_csv]) == 0
        full = capsys.readouterr().out.count("IF ")
        assert main(["mine", planted_csv, "--prune-redundant"]) == 0
        pruned = capsys.readouterr().out.count("IF ")
        assert pruned <= full

    def test_d1_metric_runs(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--metric", "d1", "--top-k", "1"]) == 0
        assert "IF " in capsys.readouterr().out

    def test_mixed_mining(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        n = 120
        relation = Relation(
            Schema.of(job="nominal", pay="interval"),
            {
                "job": ["dba"] * n + ["mgr"] * n,
                "pay": np.concatenate(
                    [rng.normal(40_000, 800, n), rng.normal(90_000, 800, n)]
                ),
            },
        )
        path = tmp_path / "jobs.csv"
        save_csv(relation, path)
        assert main(["mine", str(path), "--mixed"]) == 0
        out = capsys.readouterr().out
        assert "job=" in out


class TestOutOfCore:
    def test_rules_match_in_memory_mine(self, planted_csv, tmp_path, capsys):
        assert main(["mine", planted_csv, "--memory-budget", "64k"]) == 0
        in_memory = capsys.readouterr().out
        assert main([
            "mine", planted_csv, "--out-of-core", "--chunk-rows", "123",
            "--spill-dir", str(tmp_path / "spill"), "--memory-budget", "64k",
        ]) == 0
        out_of_core = capsys.readouterr().out
        assert out_of_core == in_memory
        assert (tmp_path / "spill" / "manifest.json").exists()

    def test_workers_mine_the_in_memory_serial_rules(self, planted_csv, capsys):
        assert main(["mine", planted_csv]) == 0
        in_memory = capsys.readouterr().out
        assert main([
            "mine", planted_csv, "--out-of-core", "--chunk-rows", "64",
            "--workers", "2",
        ]) == 0
        assert capsys.readouterr().out == in_memory

    def test_stats_shows_columnar_line(self, planted_csv, tmp_path, capsys):
        assert main([
            "mine", planted_csv, "--out-of-core",
            "--spill-dir", str(tmp_path / "spill"), "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "# columnar: 450 rows" in out
        assert "bytes on disk" in out

    def test_lenient_spill_quarantines_bad_rows(self, tmp_path, capsys):
        csv = tmp_path / "dirty.csv"
        csv.write_text("# a:interval\na\n1.0\nnope\n2.0\n3.0\n4.0\n")
        assert main([
            "mine", str(csv), "--out-of-core", "--lenient",
            "--max-bad-fraction", "0.5", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "# columnar: 4 rows" in out
        assert "1 rows quarantined" in out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--chunk-rows", "8"], "requires --out-of-core"),
            (["--spill-dir", "spill"], "requires --out-of-core"),
            (["--out-of-core", "--mixed"], "--mixed"),
            (["--out-of-core", "--checkpoint", "x.ckpt"], "--checkpoint"),
            (["--out-of-core", "--drop-missing"], "--drop-missing"),
            (["--memory-budget", "64q"], "invalid byte count"),
        ],
    )
    def test_flag_interactions_rejected(self, planted_csv, capsys, extra, message):
        assert main(["mine", planted_csv, *extra]) == 1
        assert message in capsys.readouterr().err

    def test_memory_budget_suffixes(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("65536") == 65536
        assert _parse_bytes("64k") == 64 * 1024
        assert _parse_bytes("2M") == 2 * 1024**2
        assert _parse_bytes("1g") == 1024**3
        with pytest.raises(ValueError, match="positive"):
            _parse_bytes("0")


class TestBaseline:
    def test_runs_and_reports_intervals(self, planted_csv, capsys):
        assert main([
            "baseline", planted_csv,
            "--min-support", "0.15", "--partial-completeness", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "base intervals" in out
        assert "# rules:" in out


class TestPlainCsvFallback:
    def test_mine_plain_csv(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(2)
        lines = ["x,y"]
        for cx, cy in ((0.0, 0.0), (50.0, 80.0)):
            for _ in range(60):
                lines.append(f"{cx + rng.normal():.4f},{cy + rng.normal():.4f}")
        path = tmp_path / "plain.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["mine", str(path), "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "IF " in out

    def test_describe_plain_csv(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("name,score\nana,1\nbob,2\n")
        assert main(["describe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "name [nominal]" in out
        assert "score [interval]" in out


class TestJsonOutput:
    def test_json_is_valid_and_complete(self, planted_csv, capsys):
        import json

        assert main(["mine", planted_csv, "--count-support", "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert "rules" in decoded and "clusters" in decoded
        assert decoded["frequency_count"] > 0

    def test_json_with_mixed_rejected(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--mixed", "--json"]) == 1
        assert "not supported" in capsys.readouterr().err


class TestMissingDataFlags:
    @pytest.fixture
    def gappy_csv(self, tmp_path):
        path = tmp_path / "gaps.csv"
        lines = ["x,y"]
        for i in range(60):
            lines.append(f"{i % 3}.0,{(i % 3) * 10}.0")
        lines.append(",5.0")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_unclean_data_fails_loudly(self, gappy_csv, capsys):
        assert main(["mine", gappy_csv]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_drop_missing(self, gappy_csv, capsys):
        assert main(["mine", gappy_csv, "--drop-missing"]) == 0
        assert "# 60 tuples" in capsys.readouterr().out

    def test_impute_mean(self, gappy_csv, capsys):
        assert main(["mine", gappy_csv, "--impute-mean"]) == 0
        assert "# 61 tuples" in capsys.readouterr().out

    def test_both_flags_rejected(self, gappy_csv, capsys):
        assert main(["mine", gappy_csv, "--drop-missing", "--impute-mean"]) == 1
        assert "choose one" in capsys.readouterr().err


class TestDescribeSketch:
    def test_sketch_prints_histograms(self, planted_csv, capsys):
        assert main(["describe", planted_csv, "--sketch"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # histogram bars
        assert out.count("[") > 3  # bin labels


class TestResilienceFlags:
    @pytest.fixture
    def clustered_csv(self, tmp_path):
        path = tmp_path / "clustered.csv"
        assert main([
            "generate", "clustered", str(path),
            "--size", "600", "--modes", "3", "--attributes", "2", "--seed", "5",
        ]) == 0
        return str(path)

    @pytest.fixture
    def poisoned_csv(self, clustered_csv, tmp_path):
        from pathlib import Path

        lines = Path(clustered_csv).read_text().splitlines()
        lines[5] = "bogus," + lines[5].split(",", 1)[1]
        lines[9] = lines[9] + ",extra"
        path = tmp_path / "poisoned.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_strict_mine_fails_on_poisoned_rows(self, poisoned_csv, capsys):
        assert main(["mine", poisoned_csv]) == 1
        err = capsys.readouterr().err
        assert "unparseable value 'bogus'" in err

    def test_lenient_mine_quarantines_and_mines(self, poisoned_csv, tmp_path, capsys):
        quarantine = tmp_path / "bad.jsonl"
        assert main([
            "mine", poisoned_csv,
            "--lenient", "--quarantine", str(quarantine), "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "IF " in out
        assert "# quarantine: 2 rows quarantined" in out
        assert quarantine.exists()
        assert len(quarantine.read_text().splitlines()) == 2

    def test_lenient_budget_abort(self, clustered_csv, tmp_path, capsys):
        from pathlib import Path

        lines = Path(clustered_csv).read_text().splitlines()
        for i in range(2, 200):
            lines[i] = "bad,bad"
        path = tmp_path / "very-poisoned.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main([
            "mine", str(path), "--lenient", "--max-bad-fraction", "0.05",
        ]) == 1
        assert "error budget exceeded" in capsys.readouterr().err

    def test_checkpointed_mine_reports_stats(self, clustered_csv, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "mine", clustered_csv,
            "--checkpoint", str(ckpt), "--checkpoint-every", "200", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "IF " in out
        assert "# checkpoints:" in out
        assert ckpt.exists()

    def test_resume_matches_uninterrupted_run(self, clustered_csv, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "mine", clustered_csv,
            "--checkpoint", str(ckpt), "--checkpoint-every", "150",
        ]) == 0
        full_rules = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("IF ")
        ]

        # Simulate a kill partway through: rebuild a checkpoint covering
        # only the first batches, then resume from it.
        from repro.core.config import DARConfig
        from repro.core.streaming import StreamingDARMiner
        from repro.data.relation import default_partitions

        relation = load_csv(clustered_csv)
        partial = StreamingDARMiner(default_partitions(relation.schema), DARConfig())
        matrices = {
            p.name: np.column_stack([relation.column(a) for a in p.attributes])
            for p in partial.partitions
        }
        for start in (0, 150):
            partial.update_arrays(
                {name: m[start:start + 150] for name, m in matrices.items()}
            )
            partial.save_checkpoint(ckpt)

        assert main([
            "mine", clustered_csv,
            "--resume", str(ckpt), "--checkpoint-every", "150",
        ]) == 0
        resumed_rules = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("IF ")
        ]
        assert resumed_rules == full_rules

    def test_resume_rejects_shrunken_input(self, clustered_csv, tmp_path, capsys):
        from pathlib import Path

        ckpt = tmp_path / "run.ckpt"
        assert main([
            "mine", clustered_csv,
            "--checkpoint", str(ckpt), "--checkpoint-every", "200",
        ]) == 0
        capsys.readouterr()
        lines = Path(clustered_csv).read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:50]) + "\n")
        assert main(["mine", str(short), "--resume", str(ckpt)]) == 1
        assert "already seen" in capsys.readouterr().err

    def test_checkpoint_with_mixed_rejected(self, clustered_csv, tmp_path, capsys):
        assert main([
            "mine", clustered_csv,
            "--checkpoint", str(tmp_path / "x.ckpt"), "--mixed",
        ]) == 1
        assert "does not support --mixed" in capsys.readouterr().err

    def test_checkpoint_with_count_support_rejected(
        self, clustered_csv, tmp_path, capsys
    ):
        assert main([
            "mine", clustered_csv,
            "--checkpoint", str(tmp_path / "x.ckpt"), "--count-support",
        ]) == 1
        assert "--count-support" in capsys.readouterr().err

    def test_resume_with_count_support_rejected(
        self, clustered_csv, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "run.ckpt")
        assert main([
            "mine", clustered_csv,
            "--checkpoint", ckpt, "--checkpoint-every", "200",
        ]) == 0
        capsys.readouterr()
        assert main([
            "mine", clustered_csv, "--resume", ckpt, "--count-support",
        ]) == 1
        assert "--count-support" in capsys.readouterr().err

    def test_corrupt_checkpoint_reported(self, clustered_csv, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        ckpt.write_bytes(b"not a checkpoint at all, just junk bytes here")
        assert main(["mine", clustered_csv, "--resume", str(ckpt)]) == 1
        assert "error:" in capsys.readouterr().err


class TestObservabilityFlags:
    @pytest.fixture
    def clustered_csv(self, tmp_path):
        path = tmp_path / "clustered.csv"
        assert main([
            "generate", "clustered", str(path),
            "--size", "600", "--modes", "3", "--attributes", "2", "--seed", "5",
        ]) == 0
        return str(path)

    def test_metrics_table_matches_stats(self, clustered_csv, capsys):
        assert main(["mine", clustered_csv, "--stats", "--metrics"]) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "# metrics" in captured.err  # diagnostics stay off stdout
        from repro import obs

        registry = obs.get_registry()
        # The registry survives the run (disabled but readable) and its
        # counts equal the authoritative --stats numbers printed above.
        import re

        stats_line = next(
            line for line in out.splitlines() if line.startswith("# phase2:")
        )
        n_cliques = int(re.search(r"(\d+) cliques", stats_line).group(1))
        n_clusters = int(re.search(r"(\d+) clusters", stats_line).group(1))
        assert registry.value("repro_phase2_cliques") == n_cliques
        assert registry.value("repro_phase2_clusters") == n_clusters
        scan_line = next(
            line for line in out.splitlines() if line.startswith("# scan a0:")
        )
        points = int(
            re.search(r"([\d,]+) items", scan_line).group(1).replace(",", "")
        )
        assert registry.value(
            "repro_phase1_points_total", partition="a0"
        ) == points

    def test_trace_chrome_round_trip(self, clustered_csv, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["mine", clustered_csv, "--trace", str(trace_path)]) == 0
        err = capsys.readouterr().err
        assert "spans written" in err
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"cli.mine", "mine", "phase1", "phase2"} <= names
        assert all(event["ph"] == "X" for event in document["traceEvents"])

    def test_trace_jsonl_variant(self, clustered_csv, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(["mine", clustered_csv, "--trace", str(trace_path)]) == 0
        rows = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert any(row["name"] == "cli.mine" for row in rows)

    def test_profile_flag_is_gone(self, clustered_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["mine", clustered_csv, "--profile"])
        assert exit_info.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_json_stays_parseable_with_metrics(self, clustered_csv, capsys):
        import json

        assert main(["mine", clustered_csv, "--json", "--metrics"]) == 0
        captured = capsys.readouterr()
        decoded = json.loads(captured.out)  # metrics table must not pollute
        assert decoded["rules"] is not None
        assert "# metrics" in captured.err

    def test_repeat_runs_do_not_accumulate(self, clustered_csv, capsys):
        from repro import obs

        assert main(["mine", clustered_csv, "--metrics"]) == 0
        capsys.readouterr()
        first = obs.get_registry().value("repro_phase2_runs_total")
        assert main(["mine", clustered_csv, "--metrics"]) == 0
        capsys.readouterr()
        assert obs.get_registry().value("repro_phase2_runs_total") == first == 1

    def test_obs_disabled_after_run(self, clustered_csv, capsys):
        from repro import obs

        assert main(["mine", clustered_csv, "--metrics"]) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_streaming_mine_with_metrics(self, clustered_csv, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert main([
            "mine", clustered_csv,
            "--checkpoint", str(ckpt), "--checkpoint-every", "200",
            "--metrics", "--stats",
        ]) == 0
        assert "repro_checkpoint_writes_total" in capsys.readouterr().err
        from repro import obs

        writes = obs.get_registry().value("repro_checkpoint_writes_total")
        assert writes >= 3  # 600 rows / 200 per checkpoint


class TestRunReportAndMetricsOut:
    @pytest.fixture
    def clustered_csv(self, tmp_path):
        path = tmp_path / "clustered.csv"
        assert main([
            "generate", "clustered", str(path),
            "--size", "400", "--modes", "3", "--attributes", "2", "--seed", "5",
        ]) == 0
        return str(path)

    def test_mine_report_writes_self_contained_html(
        self, clustered_csv, tmp_path, capsys
    ):
        out = tmp_path / "run.html"
        assert main(["mine", clustered_csv, "--report", str(out)]) == 0
        assert "report written" in capsys.readouterr().err
        document = out.read_text()
        assert document.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in document           # span waterfall rendered
        assert "Span waterfall" in document
        assert "<table" in document         # metric table rendered
        assert "health" in document.lower()  # health banner rendered
        assert "http://" not in document and "https://" not in document
        assert "<script" not in document

    def test_metrics_out_writes_prometheus_text(
        self, clustered_csv, tmp_path, capsys
    ):
        out = tmp_path / "metrics.prom"
        assert main(["mine", clustered_csv, "--metrics-out", str(out)]) == 0
        assert "metrics written" in capsys.readouterr().err
        text = out.read_text()
        assert "# TYPE repro_phase2_runs_total counter" in text
        assert "repro_phase1_points_total" in text
        assert text.endswith("\n")

    def test_stats_prints_health_lines(self, clustered_csv, capsys):
        assert main(["mine", clustered_csv, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "# health: OK" in out
        assert "quarantine_rate" in out


class TestWorkers:
    def test_parallel_rules_match_serial(self, planted_csv, capsys):
        assert main(["mine", planted_csv]) == 0
        serial_out = capsys.readouterr().out
        assert main(["mine", planted_csv, "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        serial_rules = [l for l in serial_out.splitlines() if l.startswith("IF")]
        parallel_rules = [l for l in parallel_out.splitlines() if l.startswith("IF")]
        assert parallel_rules == serial_rules
        assert serial_rules

    def test_workers_zero_is_auto(self, planted_csv, monkeypatch, capsys):
        # 0 = auto: resolve REPRO_WORKERS (pinned to 1 here so the
        # single-core CI box stays on the serial engine) and mine fine.
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main(["mine", planted_csv, "--workers", "0"]) == 0
        assert "# rules:" in capsys.readouterr().out

    def test_workers_negative_rejected(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--workers", "-1"]) == 1
        assert "--workers must be non-negative" in capsys.readouterr().err

    def test_workers_incompatible_with_mixed(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "--workers", "2", "--mixed"]) == 1
        assert "--mixed" in capsys.readouterr().err

    def test_workers_incompatible_with_checkpoint(
        self, planted_csv, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "state.ckpt")
        assert main(
            ["mine", planted_csv, "--workers", "2", "--checkpoint", ckpt]
        ) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_parallel_trace_and_metrics_outputs(
        self, planted_csv, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "m.prom"
        assert main([
            "mine", planted_csv, "--workers", "2",
            "--trace", str(trace), "--metrics", "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        import json

        names = [json.loads(line)["name"] for line in trace.read_text().splitlines()]
        assert "phase1.scatter" in names
        assert "repro_parallel_workers 2" in metrics.read_text()
        assert not trace.with_name(trace.name + ".tmp").exists()
        assert not metrics.with_name(metrics.name + ".tmp").exists()

    def test_interrupt_returns_130(self, planted_csv, capsys, monkeypatch):
        from repro import cli as cli_module

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli_module._COMMANDS, "mine", boom)
        assert main(["mine", planted_csv]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestSnapshotCommand:
    def test_snapshot_from_csv(self, planted_csv, tmp_path, capsys):
        out = tmp_path / "rules.snap"
        assert main(["snapshot", planted_csv, "--out", str(out)]) == 0
        banner = capsys.readouterr().out
        assert "# snapshot v1:" in banner
        assert str(out) in banner
        assert out.exists()

    def test_snapshot_from_streaming_checkpoint(
        self, planted_csv, tmp_path, capsys
    ):
        from repro.core.config import DARConfig
        from repro.core.streaming import StreamingDARMiner
        from repro.data.relation import default_partitions

        relation = load_csv(planted_csv)
        miner = StreamingDARMiner(default_partitions(relation.schema), DARConfig())
        miner.update(relation)
        checkpoint = tmp_path / "stream.ckpt"
        miner.save_checkpoint(checkpoint)
        out = tmp_path / "rules.snap"
        assert main(["snapshot", str(checkpoint), "--out", str(out)]) == 0
        assert f"{len(miner.rules().rules)} rules" in capsys.readouterr().out

    @pytest.fixture
    def checkpoint(self, planted_csv, tmp_path):
        from repro.core.config import DARConfig
        from repro.core.streaming import StreamingDARMiner
        from repro.data.relation import default_partitions

        relation = load_csv(planted_csv)
        miner = StreamingDARMiner(default_partitions(relation.schema), DARConfig())
        miner.update(relation)
        path = tmp_path / "stream.ckpt"
        miner.save_checkpoint(path)
        return str(path)

    def _refused(self, checkpoint, tmp_path, capsys, *flags):
        out = tmp_path / "rules.snap"
        assert main(["snapshot", checkpoint, "--out", str(out), *flags]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_checkpoint_source_refuses_count_support(
        self, checkpoint, tmp_path, capsys
    ):
        err = self._refused(checkpoint, tmp_path, capsys, "--count-support")
        assert "--count-support" in err
        assert "CSV sources only" in err

    def test_checkpoint_source_refuses_target(self, checkpoint, tmp_path, capsys):
        err = self._refused(checkpoint, tmp_path, capsys, "--target", "a1")
        assert "--target" in err

    @pytest.mark.parametrize(
        "flag", ["--frequency", "--density-fraction", "--degree-factor"]
    )
    def test_checkpoint_source_refuses_thresholds(
        self, checkpoint, tmp_path, capsys, flag
    ):
        err = self._refused(checkpoint, tmp_path, capsys, flag, "0.5")
        assert flag in err

    def test_checkpoint_source_refuses_metric(self, checkpoint, tmp_path, capsys):
        err = self._refused(checkpoint, tmp_path, capsys, "--metric", "d1")
        assert "--metric" in err

    def test_csv_source_keeps_the_default_thresholds(
        self, planted_csv, tmp_path, capsys
    ):
        bare = tmp_path / "bare.snap"
        explicit = tmp_path / "explicit.snap"
        assert main(["snapshot", planted_csv, "--out", str(bare)]) == 0
        assert main([
            "snapshot", planted_csv, "--out", str(explicit),
            "--frequency", "0.03", "--density-fraction", "0.15",
            "--degree-factor", "2.0", "--metric", "d2",
        ]) == 0
        banners = capsys.readouterr().out.splitlines()
        assert banners[0].split(" -> ")[0] == banners[1].split(" -> ")[0]

    def test_bad_out_path(self, planted_csv, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "rules.snap"
        assert main(["snapshot", planted_csv, "--out", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeRoundTrip:
    def test_http_matches_direct_query(self, planted_csv, tmp_path, capsys):
        """mine -> snapshot -> serve -> HTTP query == DARResult.rules(query)."""
        from repro.api import mine
        from repro.serve import RuleQuery, RuleServer, SnapshotPublisher

        snap = tmp_path / "rules.snap"
        assert main(["snapshot", planted_csv, "--out", str(snap)]) == 0
        capsys.readouterr()
        query = RuleQuery(targets=("claims",), top_k=5)
        expected = mine(load_csv(planted_csv)).rules(query)
        publisher = SnapshotPublisher(str(snap))
        with RuleServer(publisher, port=0).start() as server:
            with urllib.request.urlopen(
                server.url + "/rules?" + query.to_query_string(), timeout=10
            ) as response:
                assert response.status == 200
                payload = json.loads(response.read())
        assert payload["snapshot_version"] == 1
        assert [r["description"] for r in payload["rules"]] == [
            str(rule) for rule in expected
        ]

    @pytest.mark.parametrize(
        "flag", ["--max-inflight", "--rate", "--burst", "--deadline-ms"]
    )
    def test_retired_overload_flags_rejected(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "--snapshot", str(tmp_path / "rules.snap"), flag, "1",
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_subprocess_serve_shuts_down_cleanly(self, planted_csv, tmp_path):
        snap = tmp_path / "rules.snap"
        assert main(["snapshot", planted_csv, "--out", str(snap)]) == 0
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--snapshot", str(snap), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "# serving" in banner
            url = banner.rsplit(" on ", 1)[1].strip()
            with urllib.request.urlopen(url + "/healthz", timeout=10) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            process.communicate()
            raise
        assert process.returncode == 0
        assert "shut down cleanly" in err


class TestLoggingAndPostmortemFlags:
    @pytest.fixture
    def clustered_csv(self, tmp_path):
        path = tmp_path / "clustered.csv"
        assert main([
            "generate", "clustered", str(path),
            "--size", "600", "--modes", "3", "--attributes", "2", "--seed", "5",
        ]) == 0
        return str(path)

    def test_mine_log_writes_jsonl(self, planted_csv, tmp_path, capsys):
        log_path = tmp_path / "mine.jsonl"
        assert main(["mine", planted_csv, "--log", str(log_path)]) == 0
        events = [
            json.loads(line)["event"]
            for line in log_path.read_text().splitlines()
        ]
        assert "mine.start" in events
        assert "mine.done" in events

    def test_bad_log_level_rejected_by_parser(self, planted_csv):
        with pytest.raises(SystemExit):
            main(["mine", planted_csv, "--log-level", "shout"])

    def test_postmortem_bundle_on_injected_crash(
        self, clustered_csv, tmp_path, capsys, monkeypatch
    ):
        import tarfile

        from repro.resilience import faults

        monkeypatch.setenv("REPRO_FAIL_AT", "streaming.partition:5")
        pm = tmp_path / "pm"
        try:
            code = main([
                "mine", clustered_csv,
                "--checkpoint", str(tmp_path / "run.ckpt"),
                "--checkpoint-every", "200",
                "--postmortem-dir", str(pm),
            ])
        finally:
            faults.uninstall()
        assert code == 1
        assert "error:" in capsys.readouterr().err
        (bundle,) = list(pm.glob("*.tar.gz"))
        with tarfile.open(bundle) as archive:
            names = sorted(archive.getnames())
            meta = json.loads(archive.extractfile("meta.json").read())
            events = [
                json.loads(line)
                for line in archive.extractfile("events.jsonl")
            ]
        assert names == [
            "config.json", "events.jsonl", "health.json",
            "meta.json", "metrics.prom",
        ]
        assert "streaming.partition" in meta["reason"]
        # Armed without --log, the window still holds the fault trip.
        assert any(
            e["kind"] == "log" and e["data"]["event"] == "fault.trip"
            for e in events
        )

    def test_postmortem_window_holds_spans_logs_and_verdicts(
        self, clustered_csv, tmp_path, capsys, monkeypatch
    ):
        import tarfile

        from repro.resilience import faults

        monkeypatch.setenv("REPRO_FAIL_AT", "streaming.partition:5")
        pm = tmp_path / "pm"
        try:
            code = main([
                "mine", clustered_csv,
                "--checkpoint", str(tmp_path / "run.ckpt"),
                "--checkpoint-every", "200",
                "--postmortem-dir", str(pm),
                "--log", str(tmp_path / "mine.jsonl"),
            ])
        finally:
            faults.uninstall()
        assert code == 1
        (bundle,) = list(pm.glob("*.tar.gz"))
        with tarfile.open(bundle) as archive:
            events = [
                json.loads(line)
                for line in archive.extractfile("events.jsonl")
            ]
            health = json.loads(archive.extractfile("health.json").read())
        assert {event["kind"] for event in events} == {"span", "log"}
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)
        (trip,) = [
            e for e in events
            if e["kind"] == "log" and e["data"]["event"] == "fault.trip"
        ]
        assert trip["data"]["level"] == "warn"
        assert trip["data"]["point"] == "streaming.partition"
        assert health["status"] == "ok"
        assert {row["rule"] for row in health["results"]} >= {"quarantine_rate"}

    def test_malformed_fail_at_is_an_error(self, planted_csv, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAIL_AT", "streaming.partition:soon")
        with pytest.raises(ValueError, match="bad hit count"):
            main(["mine", planted_csv])


class TestSloCommand:
    HEALTHY = (
        "repro_serve_http_requests_total 100\n"
        'repro_serve_query_seconds_bucket{le="0.01"} 100\n'
        'repro_serve_query_seconds_bucket{le="+Inf"} 100\n'
        "repro_serve_query_seconds_sum 0.1\n"
        "repro_serve_query_seconds_count 100\n"
    )
    OVERLOADED = (
        "repro_serve_http_requests_total 100\n"
        'repro_serve_query_seconds_bucket{le="1"} 0\n'
        'repro_serve_query_seconds_bucket{le="10"} 100\n'
        'repro_serve_query_seconds_bucket{le="+Inf"} 100\n'
        "repro_serve_query_seconds_sum 200\n"
        "repro_serve_query_seconds_count 100\n"
    )

    def _prom(self, tmp_path, text):
        path = tmp_path / "metrics.prom"
        path.write_text(text)
        return str(path)

    def test_healthy_metrics_exit_zero(self, tmp_path, capsys):
        assert main([
            "slo", "check", "--metrics", self._prom(tmp_path, self.HEALTHY),
        ]) == 0
        assert "slo status: ok" in capsys.readouterr().out

    def test_violated_metrics_exit_one(self, tmp_path, capsys):
        assert main([
            "slo", "check", "--metrics", self._prom(tmp_path, self.OVERLOADED),
        ]) == 1
        assert "serve_query_p99_seconds" in capsys.readouterr().out

    def test_json_output_is_parseable(self, tmp_path, capsys):
        assert main([
            "slo", "check", "--json",
            "--metrics", self._prom(tmp_path, self.HEALTHY),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert len(report["results"]) == 3  # the default pack

    def test_fail_on_warn_tightens_the_gate(self, tmp_path, capsys):
        warn_only = self.HEALTHY + (
            "repro_rows_ok_total 100\n"
            "repro_quarantined_rows_total 10\n"
        )
        path = self._prom(tmp_path, warn_only)
        assert main(["slo", "check", "--metrics", path]) == 0
        assert main([
            "slo", "check", "--metrics", path, "--fail-on", "warn",
        ]) == 1

    def test_custom_pack_file(self, tmp_path, capsys):
        pack = tmp_path / "pack.json"
        pack.write_text(json.dumps([
            {"name": "traffic", "metric": "repro_serve_http_requests_total",
             "threshold": 10, "op": ">=", "severity": "crit"},
        ]))
        assert main([
            "slo", "check", "--pack", str(pack),
            "--metrics", self._prom(tmp_path, self.HEALTHY),
        ]) == 0

    def test_metrics_and_url_together_rejected(self, tmp_path, capsys):
        assert main([
            "slo", "check", "--metrics", self._prom(tmp_path, self.HEALTHY),
            "--url", "http://localhost:1",
        ]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_neither_source_rejected(self, capsys):
        assert main(["slo", "check"]) == 1
        assert "exactly one" in capsys.readouterr().err
