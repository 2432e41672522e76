"""Self-contained single-file HTML run reports (zero dependencies).

Renders everything the observability layer records — span waterfall,
metric tables, health status, SLO verdicts — into **one** HTML
string with inline CSS and inline SVG: no external stylesheets, no
scripts, no fonts, no network fetches of any kind, so a report written on
an air-gapped production box opens anywhere a browser does.

Two entry points:

* :func:`render_run_report` — one mine's report (``repro mine --report
  out.html``): run metadata, health banner, span waterfall, metrics
  table, top rules.
* :func:`render_serve_page` — the rule server's landing page (``GET /``
  on ``repro serve``): published-snapshot status, health checks, and the
  live ``repro_serve_*`` metric table.

Charts follow fixed mark specs (2px lines, thin rounded bars, hairline
grid, muted ink for text; series colors never carry text) with a
light/dark palette switched purely by CSS ``prefers-color-scheme`` —
the SVG marks reference CSS custom properties, so one document serves
both modes.  Hover details ride native SVG ``<title>`` elements, which
need no JavaScript.
"""

from __future__ import annotations

import html
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = [
    "render_run_report",
    "render_serve_page",
    "write_report",
]

# Categorical palette (validated order — see the dataviz reference): each
# span category keeps a fixed slot so colors follow the entity across
# reports, never the rank.  Light / dark steps of the same hues.
_CATEGORY_SLOTS = ("phase1", "phase2", "streaming", "checkpoint", "mine", "cli")
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4", "#008300")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500", "#d55181", "#008300")
_OTHER_LIGHT, _OTHER_DARK = "#898781", "#898781"

_STATUS_COLOR = {"ok": "#0ca30c", "warn": "#fab219", "crit": "#d03b3b"}
_STATUS_ICON = {"ok": "●", "warn": "▲", "crit": "✖"}

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --cat-other: #898781;
  %LIGHT_SLOTS%
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    %DARK_SLOTS%
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 960px; margin: 0 auto; }
h1 { font-size: 22px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 0 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
section.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 18px; margin: 0 0 16px;
}
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 4px 10px 4px 0; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
thead th { color: var(--ink-3); font-weight: 500; border-bottom: 1px solid var(--grid); }
tbody tr { border-bottom: 1px solid var(--grid); }
tbody tr:last-child { border-bottom: none; }
.badge {
  display: inline-block; padding: 1px 10px; border-radius: 999px;
  border: 1px solid var(--border); font-size: 12px; font-weight: 600;
}
.kv { color: var(--ink-2); font-size: 13px; }
.kv b { color: var(--ink-1); font-weight: 600; }
.legend { color: var(--ink-2); font-size: 12px; margin-top: 8px; }
.legend .key {
  display: inline-block; width: 10px; height: 10px; border-radius: 3px;
  margin: 0 5px 0 14px; vertical-align: baseline;
}
.hero { font-size: 48px; font-weight: 600; line-height: 1.1; }
.hero-label { color: var(--ink-2); font-size: 13px; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; fill: var(--ink-3); }
svg .lbl { fill: var(--ink-2); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _category(name: str) -> str:
    return name.split(".", 1)[0]


def _category_var(category: str) -> str:
    if category in _CATEGORY_SLOTS:
        return f"--cat-{category}"
    return "--cat-other"


def _css() -> str:
    light = " ".join(
        f"--cat-{name}: {color};"
        for name, color in zip(_CATEGORY_SLOTS, _SERIES_LIGHT)
    )
    dark = " ".join(
        f"--cat-{name}: {color};"
        for name, color in zip(_CATEGORY_SLOTS, _SERIES_DARK)
    )
    return _CSS.replace("%LIGHT_SLOTS%", light).replace("%DARK_SLOTS%", dark)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}µs"


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return " ".join(f"{k}={_fmt_value(v)}" for k, v in value.items())
    return str(value)


def _page(title: str, subtitle: str, sections: Sequence[str]) -> str:
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_css()}</style>\n"
        "</head>\n<body>\n<main>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="sub">{_esc(subtitle)}</p>\n'
        f"{body}\n"
        "</main>\n</body>\n</html>\n"
    )


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------


def _status_badge(status: str) -> str:
    color = _STATUS_COLOR.get(status, _STATUS_COLOR["warn"])
    icon = _STATUS_ICON.get(status, "▲")
    return (
        f'<span class="badge"><span style="color:{color}">{icon}</span> '
        f"{_esc(status.upper())}</span>"
    )


def _health_section(report: Mapping[str, Any]) -> str:
    rows = []
    for check in report.get("checks", []):
        rows.append(
            "<tr>"
            f"<td>{_status_badge(str(check.get('status', 'warn')))}</td>"
            f"<td>{_esc(check.get('name', ''))}</td>"
            f'<td class="num">{_fmt_value(check.get("value", ""))}</td>'
            f'<td class="kv">{_esc(check.get("detail", ""))}</td>'
            "</tr>"
        )
    table = (
        "<table><thead><tr><th>status</th><th>check</th>"
        '<th class="num">value</th><th>detail</th></tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>"
        if rows
        else '<p class="kv">(no checks recorded)</p>'
    )
    overall = str(report.get("status", "ok"))
    return (
        '<section class="card"><h2>Health '
        f"{_status_badge(overall)}</h2>{table}</section>"
    )


def _slo_section(report: Mapping[str, Any]) -> str:
    """An SLO panel from an :meth:`~repro.obs.slo.SLOReport.to_dict`."""
    rows = []
    for result in report.get("results", []):
        status = str(result.get("status", "skip"))
        badge = (
            '<span class="badge">– SKIP</span>'
            if status == "skip"
            else _status_badge(status)
        )
        value = result.get("value")
        shown = "absent" if value is None else _fmt_value(value)
        rows.append(
            "<tr>"
            f"<td>{badge}</td>"
            f"<td>{_esc(result.get('rule', ''))}</td>"
            f'<td class="num">{_esc(shown)}</td>'
            f'<td class="kv">want {_esc(result.get("stat", "value"))}'
            f'({_esc(result.get("metric", ""))}) {_esc(result.get("op", "<="))} '
            f'{_esc(result.get("threshold", ""))}</td>'
            f'<td class="kv">{_esc(result.get("detail", ""))}</td>'
            "</tr>"
        )
    table = (
        "<table><thead><tr><th>status</th><th>rule</th>"
        '<th class="num">value</th><th>objective</th><th>detail</th></tr>'
        f"</thead><tbody>{''.join(rows)}</tbody></table>"
        if rows
        else '<p class="kv">(no SLO rules evaluated)</p>'
    )
    overall = str(report.get("status", "ok"))
    return (
        '<section class="card"><h2>SLOs '
        f"{_status_badge(overall)}</h2>{table}</section>"
    )


def _normalize_span(record: Any) -> Dict[str, Any]:
    if isinstance(record, Mapping):
        return dict(record)
    return record.to_dict()


def _waterfall_section(spans: Iterable[Any], max_spans: int = 160) -> str:
    """The span waterfall: one thin bar per span on a shared time axis."""
    records = sorted(
        (_normalize_span(s) for s in spans), key=lambda r: r.get("start", 0.0)
    )
    records = [r for r in records if r.get("end", 0.0)]
    truncated = len(records) - max_spans
    if truncated > 0:
        records = records[:max_spans]
    if not records:
        return (
            '<section class="card"><h2>Span waterfall</h2>'
            '<p class="kv">(no spans recorded — run with tracing enabled)</p>'
            "</section>"
        )

    epoch = min(r["start"] for r in records)
    horizon = max(r["end"] for r in records) - epoch or 1e-9
    depths: Dict[int, int] = {}
    by_id = {r.get("span_id"): r for r in records}
    for r in records:
        depth, parent = 0, r.get("parent_id", 0)
        while parent and parent in by_id:
            depth += 1
            parent = by_id[parent].get("parent_id", 0)
        depths[id(r)] = depth

    width, label_w, row_h, bar_h = 960, 260, 20, 12
    plot_w = width - label_w - 90
    height = len(records) * row_h + 26
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'height="{height}" role="img" aria-label="span waterfall">'
    ]
    # Hairline grid: quarters of the horizon.
    for quarter in range(5):
        x = label_w + plot_w * quarter / 4
        parts.append(
            f'<line x1="{x:.1f}" y1="18" x2="{x:.1f}" y2="{height - 4}" '
            'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="12" text-anchor="middle">'
            f"{_esc(_fmt_seconds(horizon * quarter / 4))}</text>"
        )
    categories_seen: List[str] = []
    for index, r in enumerate(records):
        y = 22 + index * row_h
        x = label_w + (r["start"] - epoch) / horizon * plot_w
        w = max((r["end"] - r["start"]) / horizon * plot_w, 2.0)
        category = _category(str(r.get("name", "")))
        if category not in categories_seen:
            categories_seen.append(category)
        indent = min(depths[id(r)], 8) * 10
        name = str(r.get("name", "?"))
        seconds = r.get("seconds", r["end"] - r["start"])
        attrs = r.get("attributes") or {}
        detail = " ".join(f"{k}={v}" for k, v in list(attrs.items())[:6])
        parts.append(
            f'<text class="lbl" x="{indent + 4}" y="{y + bar_h - 2}">'
            f"{_esc(name[:34])}</text>"
        )
        parts.append(
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{bar_h}" '
            f'rx="4" fill="var({_category_var(category)})">'
            f"<title>{_esc(name)} — {_esc(_fmt_seconds(seconds))}"
            f"{_esc(' | ' + detail if detail else '')}</title></rect>"
        )
        parts.append(
            f'<text x="{x + w + 5:.1f}" y="{y + bar_h - 2}">'
            f"{_esc(_fmt_seconds(seconds))}</text>"
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span class="key" style="background:var({_category_var(c)})"></span>'
        f"{_esc(c)}"
        for c in categories_seen
    )
    note = (
        f'<p class="kv">(showing the first {max_spans} of '
        f"{max_spans + truncated} spans)</p>"
        if truncated > 0
        else ""
    )
    return (
        '<section class="card"><h2>Span waterfall</h2>'
        + "".join(parts)
        + f'<div class="legend">{legend}</div>{note}</section>'
    )


def _metrics_section(snapshot: Mapping[str, Any]) -> str:
    if not snapshot:
        return (
            '<section class="card"><h2>Metrics</h2>'
            '<p class="kv">(no metrics recorded — run with metrics enabled)</p>'
            "</section>"
        )
    rows = "".join(
        f"<tr><td>{_esc(name)}</td>"
        f'<td class="num">{_esc(_fmt_value(value))}</td></tr>'
        for name, value in sorted(snapshot.items())
    )
    return (
        '<section class="card"><h2>Metrics</h2>'
        "<table><thead><tr><th>metric</th>"
        '<th class="num">value</th></tr></thead>'
        f"<tbody>{rows}</tbody></table></section>"
    )


def _rules_section(result: Any, top_k: int = 10) -> str:
    rules = list(getattr(result, "rules", []) or [])
    if not rules:
        return ""
    try:
        from repro.report.describe import describe_rule

        described = [describe_rule(rule) for rule in rules[:top_k]]
    except Exception:
        described = [str(rule) for rule in rules[:top_k]]
    rows = "".join(f"<tr><td><code>{_esc(text)}</code></td></tr>" for text in described)
    more = (
        f'<p class="kv">(+{len(rules) - top_k} more rules)</p>'
        if len(rules) > top_k
        else ""
    )
    return (
        f'<section class="card"><h2>Rules (top {min(top_k, len(rules))})</h2>'
        f"<table><tbody>{rows}</tbody></table>{more}</section>"
    )


def _meta_section(metadata: Mapping[str, Any], hero: Optional[str]) -> str:
    pairs = " · ".join(
        f"{_esc(key)} <b>{_esc(value)}</b>" for key, value in metadata.items()
    )
    hero_html = (
        f'<div class="hero">{_esc(hero)}</div>'
        '<div class="hero-label">rules mined</div>'
        if hero is not None
        else ""
    )
    return f'<section class="card">{hero_html}<p class="kv">{pairs}</p></section>'


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def render_run_report(
    *,
    title: str = "repro run report",
    result: Any = None,
    spans: Optional[Iterable[Any]] = None,
    metrics: Optional[Mapping[str, Any]] = None,
    health: Optional[Mapping[str, Any]] = None,
    slo: Optional[Mapping[str, Any]] = None,
    metadata: Optional[Mapping[str, Any]] = None,
) -> str:
    """One mine's report as a self-contained HTML document string.

    ``spans`` accepts :class:`~repro.obs.trace.Span` objects or their
    ``to_dict`` rows; ``metrics`` is a registry
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; ``health`` a
    :meth:`~repro.obs.slo.HealthReport.to_dict`; ``slo`` an
    :meth:`~repro.obs.slo.SLOReport.to_dict`; ``metadata`` free-form
    key/value pairs for the header card.  Every argument is optional —
    missing sections render an explanatory placeholder, never an error.
    """
    generated = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%SZ")
    meta = dict(metadata or {})
    hero = None
    if result is not None:
        rules = list(getattr(result, "rules", []) or [])
        hero = str(len(rules))
        meta.setdefault("frequency bar", getattr(result, "frequency_count", "?"))
        phase2 = getattr(result, "phase2", None)
        if phase2 is not None:
            meta.setdefault("clusters", getattr(phase2, "n_clusters", "?"))
            meta.setdefault("cliques", getattr(phase2, "n_cliques", "?"))
    sections = [_meta_section(meta, hero)]
    if health is not None:
        sections.append(_health_section(health))
    if slo is not None:
        sections.append(_slo_section(slo))
    sections.append(_waterfall_section(spans or []))
    sections.append(_metrics_section(metrics or {}))
    if result is not None:
        sections.append(_rules_section(result))
    return _page(title, f"generated {generated} · self-contained, no external assets", sections)


def render_serve_page(
    *,
    status: Mapping[str, Any],
    metrics: Optional[Mapping[str, Any]] = None,
    uptime_seconds: float = 0.0,
    title: str = "repro rule server",
) -> str:
    """The rule server's ``GET /`` landing page as a self-contained document.

    ``status`` is a :meth:`~repro.serve.publisher.SnapshotPublisher.to_dict`
    (snapshot version, rule count, created-at, partitions, health report);
    ``metrics`` a registry snapshot filtered to whatever the caller wants
    shown (the server passes the full snapshot).  Renders the same
    light/dark, zero-asset HTML as the run report, so the page
    works from an air-gapped box with nothing but a browser.
    """
    generated = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%SZ")
    version = status.get("version", 0)
    n_rules = status.get("n_rules", 0)
    partitions = status.get("partitions") or ()
    meta: Dict[str, Any] = {
        "snapshot version": version if version else "(none published)",
        "rules": n_rules,
        "uptime": _fmt_seconds(max(float(uptime_seconds), 0.0)),
    }
    if status.get("created_at"):
        meta["compiled at"] = status["created_at"]
    if partitions:
        meta["partitions"] = ", ".join(str(p) for p in partitions)
    sections = [_meta_section(meta, str(n_rules))]
    health = status.get("health")
    if health is not None:
        sections.append(_health_section(health))
    slo = status.get("slo")
    if slo is not None:
        sections.append(_slo_section(slo))
    serve_metrics = {
        name: value
        for name, value in (metrics or {}).items()
        if str(name).startswith("repro_serve_")
    } or dict(metrics or {})
    sections.append(_metrics_section(serve_metrics))
    sections.append(
        '<section class="card"><h2>Endpoints</h2><p class="kv">'
        "<code>GET /rules?targets=...&amp;min_degree=...</code> — query the "
        "published snapshot · <code>GET /healthz</code> — health JSON · "
        "<code>GET /metrics</code> — Prometheus text format</p></section>"
    )
    return _page(
        title,
        f"generated {generated} · snapshot v{version} · "
        "self-contained, no external assets",
        sections,
    )


def write_report(document: str, path: Union[str, Path]) -> Path:
    """Write an HTML document produced by the renderers above to ``path``.

    The write is atomic (temp file + rename) so an interrupt mid-write
    never leaves a truncated report behind.
    """
    import os

    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(document)
    os.replace(tmp, target)
    return target
