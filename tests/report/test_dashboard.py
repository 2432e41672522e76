"""Parser-level tests for the self-contained HTML run-report dashboard."""

from html.parser import HTMLParser

import pytest

from repro import obs
from repro.api import mine
from repro.data.synthetic import make_planted_rule_relation
from repro.obs.slo import HEALTH_PACK, evaluate_pack
from repro.obs.trace import span
from repro.report.dashboard import (
    render_run_report,
    write_report,
)


class _Audit(HTMLParser):
    """Walk a document, collecting tags, attributes and external refs."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tags = []
        self.external_refs = []
        self.errors = []
        self._open = []

    def handle_starttag(self, tag, attrs):
        self._note(tag, attrs)
        if tag not in ("br", "meta", "link", "img", "input", "hr"):
            self._open.append(tag)

    def handle_startendtag(self, tag, attrs):
        # Self-closing (<rect .../>) — seen but never on the open stack.
        self._note(tag, attrs)

    def handle_endtag(self, tag):
        if self._open and self._open[-1] == tag:
            self._open.pop()
        else:
            self.errors.append(f"unmatched closing tag: {tag}")

    def _note(self, tag, attrs):
        self.tags.append(tag)
        for name, value in attrs:
            value = value or ""
            if name in ("src", "href", "xlink:href") and value.startswith(
                ("http://", "https://", "//")
            ):
                self.external_refs.append(value)


def audit(document: str) -> _Audit:
    parser = _Audit()
    parser.feed(document)
    parser.close()
    return parser


@pytest.fixture(scope="module")
def mined():
    relation, _ = make_planted_rule_relation(seed=3, points_per_mode=60)
    obs.enable(trace=True, metrics=True)
    try:
        with span("cli.run"):
            result = mine(relation)
        spans = obs.get_tracer().spans()
        metrics = obs.get_registry().snapshot()
    finally:
        obs.disable()
        obs.get_tracer().clear()
        obs.get_registry().reset()
    return result, spans, metrics


@pytest.fixture(scope="module")
def run_report(mined):
    result, spans, metrics = mined
    health = evaluate_pack(
        HEALTH_PACK,
        {
            "repro_phase1_entry_count": 12,
            "repro_phase1_threshold_inflation": 1.0,
            "repro_phase1_rebuilds_total": 0,
            "repro_quarantined_rows_total": 3,
            "repro_rows_seen_total": 100,
        },
    ).to_health_report(prefix="", skipped=False)
    return render_run_report(
        title="repro mine — demo",
        result=result,
        spans=spans,
        metrics=metrics,
        health=health.to_dict(),
        metadata={"input": "demo.csv"},
    )


class TestRunReport:
    def test_parses_and_is_self_contained(self, run_report):
        report = audit(run_report)
        assert report.errors == []
        assert report.external_refs == []
        # Self-contained also means no script payloads at all.
        assert "script" not in report.tags
        assert "<!doctype html>" in run_report.lower()

    def test_renders_waterfall_metrics_health(self, run_report):
        report = audit(run_report)
        assert "svg" in report.tags      # waterfall markup
        assert "table" in report.tags    # metric table
        assert "title" in report.tags    # native SVG tooltips
        assert "Span waterfall" in run_report
        assert "repro_kernel" in run_report or "repro_" in run_report
        assert "health" in run_report.lower()
        # The quarantine WARN from the fixture shows as icon + label,
        # never color alone.
        assert "WARN" in run_report

    def test_dark_mode_and_fixed_palette(self, run_report):
        assert "prefers-color-scheme: dark" in run_report
        assert "--cat-phase1" in run_report

    def test_empty_report_renders_placeholders(self):
        document = render_run_report()
        report = audit(document)
        assert report.errors == []
        assert report.external_refs == []
        assert "no spans recorded" in document

    def test_write_report(self, tmp_path, run_report):
        path = write_report(run_report, tmp_path / "out.html")
        assert path.read_text() == run_report

