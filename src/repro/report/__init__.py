"""Rendering: descriptions, result tables, and self-contained HTML reports."""

from repro.report.ascii import cluster_strip, histogram
from repro.report.dashboard import (
    render_run_report,
    write_report,
)
from repro.report.describe import (
    describe_cluster,
    describe_result,
    describe_rule,
    format_rules,
)
from repro.report.export import (
    cluster_to_dict,
    phase1_stats_to_dict,
    phase2_stats_to_dict,
    result_to_dict,
    result_to_json,
    rule_to_dict,
)
from repro.report.tables import Table

__all__ = [
    "cluster_strip",
    "histogram",
    "describe_cluster",
    "describe_result",
    "describe_rule",
    "format_rules",
    "cluster_to_dict",
    "phase1_stats_to_dict",
    "phase2_stats_to_dict",
    "result_to_dict",
    "result_to_json",
    "rule_to_dict",
    "Table",
    "render_run_report",
    "write_report",
]
