"""The observatory's face: one self-contained HTML file + terminal view.

``build_dashboard`` merges everything the snapshot document knows —
metrics, span stats, event counts, residual scorecards, the live
irregularity estimate, alert verdicts, and the ``BENCH_*.json``
trajectory — into one JSON-ready dict.  ``render_html`` turns that dict
into a single dependency-free HTML file (inline CSS + inline SVG, no
scripts, no external assets); ``render_terminal`` is the same content as
one screen of text, and ``watch`` re-renders it periodically.

The HTML follows the house dataviz rules: roles as CSS custom properties
with a ``prefers-color-scheme`` dark block, thin marks on a single axis,
status colors paired with icons and labels (never color alone), and a
table twin next to the chart so every number is readable without it.
"""

from __future__ import annotations

import html
import json
import time
from typing import Any, Callable, Mapping, Optional, Sequence, TextIO

from repro.obs.export import count_by_name, validate_snapshot
from repro.obs.insight.alerts import AlertEngine
from repro.obs.insight.detectors import (
    ESCALATED_METRIC,
    TRANSFER_METRIC,
    live_irregularity,
)
from repro.obs.insight.residuals import (
    BucketScore,
    Scorecard,
    render_scorecards,
    scorecards,
)
from repro.obs.metrics import family_sum

__all__ = [
    "build_dashboard",
    "render_html",
    "render_terminal",
    "watch",
]


def _fmt_bytes(value: float) -> str:
    value = float(value)
    for unit, scale in (("MB", 2 ** 20), ("KB", 2 ** 10)):
        if value >= scale:
            shown = value / scale
            return f"{shown:.0f} {unit}" if shown == int(shown) else f"{shown:.1f} {unit}"
    return f"{value:.0f} B"


def build_dashboard(
    doc: Mapping[str, Any],
    bench: Sequence[tuple[str, Mapping[str, Any]]] = (),
    engine: Optional[AlertEngine] = None,
    warnings: Sequence[str] = (),
) -> dict[str, Any]:
    """Merge a snapshot document into the dashboard's data dict.

    ``bench`` is ``(name, parsed-json)`` pairs from ``BENCH_*.json``
    files; ``engine`` lets a caller keep firing state across refreshes
    (``watch``), otherwise a fresh engine evaluates the stock rules;
    ``warnings`` are ingest problems (unreadable bench files, …) that
    must surface on the dashboard instead of killing it.
    """
    validate_snapshot(doc)
    metrics = doc.get("metrics", {})
    warnings = list(warnings)
    if engine is None:
        engine = AlertEngine()
    cards = scorecards(metrics)
    alerts = engine.evaluate(metrics, cards)
    live = live_irregularity(metrics)

    escalations = family_sum(metrics, "rto_escalations_total")
    transfers = family_sum(metrics, TRANSFER_METRIC)
    escalated = family_sum(metrics, ESCALATED_METRIC)
    coverage = family_sum(metrics, "campaign_coverage")
    open_breakers = family_sum(metrics, "breaker_nodes", (("state", "open"),))
    drift = family_sum(metrics, "maintainer_worst_drift")
    pairs = sum(card["count"] for card in (c.to_dict() for c in cards))
    firing = [a for a in alerts if a.firing]

    tiles = [
        {"label": "alerts firing", "value": str(len(firing)),
         "status": "critical" if firing else "good"},
        {"label": "residual pairs", "value": str(int(pairs)), "status": "none"},
        {"label": "RTO escalations", "value": str(int(escalations)),
         "status": "warning" if escalations else "good"},
        {"label": "escalation rate",
         "value": f"{escalated / transfers:.1%}" if transfers else "n/a",
         "status": "none"},
        {"label": "breakers open", "value": str(int(open_breakers)),
         "status": "serious" if open_breakers else "good"},
    ]
    if coverage:
        tiles.append({"label": "campaign coverage", "value": f"{coverage:.0%}",
                      "status": "good" if coverage >= 1.0 else "warning"})
    if drift:
        tiles.append({"label": "worst drift", "value": f"{drift:.1%}",
                      "status": "warning" if drift > 0.15 else "none"})
    if warnings:
        tiles.append({"label": "ingest warnings", "value": str(len(warnings)),
                      "status": "warning"})

    events_by_name, spans_by_name = count_by_name(doc)
    spans = [s for s in doc.get("spans", []) if s.get("end") is not None]

    # Trace panel: finished spans grouped by the trace id the wire
    # envelope propagated (repro.obs.trace) — one row per distributed
    # request that touched this process.
    by_trace: dict[str, dict[str, Any]] = {}
    for span in spans:
        trace_id = span.get("trace_id")
        if not trace_id:
            continue
        entry = by_trace.setdefault(
            trace_id, {"spans": 0, "total_seconds": 0.0, "names": []},
        )
        entry["spans"] += 1
        entry["total_seconds"] += float(span["end"]) - float(span["start"])
        if span["name"] not in entry["names"]:
            entry["names"].append(span["name"])
    for entry in by_trace.values():
        entry["names"] = sorted(entry["names"])

    return {
        "title": "repro model-fidelity observatory",
        "summary": {
            "metric_families": len(metrics),
            "events": len(doc.get("events", [])),
            "spans_finished": len(spans),
            "dropped": dict(doc.get("dropped", {})),
        },
        "tiles": tiles,
        "warnings": warnings,
        "alerts": [a.to_dict() for a in alerts],
        "scorecards": [c.to_dict() for c in cards],
        "irregularity": live.to_dict() if live is not None else None,
        "events_by_name": events_by_name,
        "spans_by_name": {
            name: {"count": count, "total_seconds": total}
            for name, (count, total) in spans_by_name.items()
        },
        "traces": {tid: by_trace[tid] for tid in sorted(by_trace)},
        "bench": [{"name": name, "data": dict(data)} for name, data in bench],
    }


# -- terminal view ----------------------------------------------------------------
def render_terminal(data: Mapping[str, Any]) -> str:
    """The dashboard as one screen of text."""
    lines = [data["title"], "=" * len(data["title"])]
    lines.append("  ".join(
        f"{tile['label']}: {tile['value']}" for tile in data["tiles"]
    ))
    for warning in data.get("warnings") or ():
        lines.append(f"  ! {warning}")
    lines.append("")
    lines.append("alerts:")
    for alert in data["alerts"]:
        rule = alert["rule"]
        mark = "FIRING" if alert["firing"] else "ok"
        lines.append(
            f"  [{mark:>6}] {rule['name']}: {alert['value']:.4g} "
            f"{rule['op']} {rule['threshold']:.4g}"
        )
    lines.append("")
    cards = [
        Scorecard(
            model=c["model"], operation=c["operation"], count=c["count"],
            mean_abs_error=c["mean_abs_error"], bias=c["bias"],
            p50=c["p50"], p95=c["p95"], max_abs_error=c["max_abs_error"],
            buckets=tuple(BucketScore(**b) for b in c["buckets"]),
        )
        for c in data["scorecards"]
    ]
    lines.append(render_scorecards(cards))
    irregularity = data.get("irregularity")
    if irregularity:
        lines.append("")
        lines.append(
            "live gather irregularity: "
            f"M1 ~ {_fmt_bytes(irregularity['m1'])}, "
            f"M2 ~ {_fmt_bytes(irregularity['m2'])}, "
            f"escalation ~ {irregularity['escalation_value']:.3g} s"
        )
    traces = data.get("traces") or {}
    if traces:
        lines.append("")
        lines.append("traces:")
        for trace_id, entry in traces.items():
            lines.append(
                f"  {trace_id}: {entry['spans']} spans, "
                f"{entry['total_seconds'] * 1e3:.2f} ms "
                f"({', '.join(entry['names'])})"
            )
    if data["bench"]:
        lines.append("")
        lines.append("bench trajectory:")
        for entry in data["bench"]:
            stats = ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(entry["data"].items())
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            )
            lines.append(f"  {entry['name']}: {stats}")
    return "\n".join(lines)


def watch(
    path: str,
    interval: float = 2.0,
    count: Optional[int] = None,
    stream: Optional[TextIO] = None,
    sleep: Callable[[float], None] = time.sleep,
    formatter: Optional[Callable[[Mapping[str, Any]], str]] = None,
) -> Optional[dict[str, Any]]:
    """Periodically re-read ``path`` and print the terminal dashboard.

    ``count`` bounds the number of refreshes (None = until interrupted);
    the alert engine persists across refreshes so firing/resolved
    lifecycle transitions are narrated exactly once.  ``formatter``
    overrides :func:`render_terminal` (e.g. JSON output).  Returns the
    last data dict (handy in tests).
    """
    import sys

    out = stream if stream is not None else sys.stdout
    render = formatter if formatter is not None else render_terminal
    engine = AlertEngine()
    data: Optional[dict[str, Any]] = None
    iteration = 0
    while count is None or iteration < count:
        if iteration:
            sleep(interval)
        with open(path) as fh:
            doc = json.load(fh)
        data = build_dashboard(doc, engine=engine)
        print(render(data), file=out)
        print("", file=out)
        iteration += 1
    return data


# -- HTML view --------------------------------------------------------------------
_STATUS = {
    "good": ("var(--status-good)", "✓"),
    "warning": ("var(--status-warning)", "▲"),
    "serious": ("var(--status-serious)", "▲"),
    "critical": ("var(--status-critical)", "✕"),
    "error": ("var(--status-critical)", "✕"),
    "none": ("var(--text-secondary)", ""),
}

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --series-1: #2a78d6; --grid: #e1e0d9; --baseline: #c3c2b7;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
  --border: rgba(11,11,11,0.10);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --series-1: #3987e5; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile .v { font-size: 24px; }
.tile .l { color: var(--text-secondary); font-size: 12px; margin-top: 2px; }
table.viz {
  border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; font-size: 13px;
}
table.viz th, table.viz td {
  padding: 6px 12px; text-align: right;
  font-variant-numeric: tabular-nums;
}
table.viz th {
  color: var(--text-secondary); font-weight: 500;
  border-bottom: 1px solid var(--grid);
}
table.viz th:first-child, table.viz td:first-child { text-align: left; }
.chart { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; display: inline-block; }
.muted { color: var(--text-muted); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _tile_html(tile: Mapping[str, str]) -> str:
    color, icon = _STATUS.get(tile.get("status", "none"), _STATUS["none"])
    badge = (
        f'<span style="color:{color}" aria-hidden="true">{icon}</span> '
        if icon else ""
    )
    return (
        '<div class="tile">'
        f'<div class="v">{badge}{_esc(tile["value"])}</div>'
        f'<div class="l">{_esc(tile["label"])}</div></div>'
    )


def _alerts_html(alerts: Sequence[Mapping[str, Any]]) -> str:
    rows = []
    for alert in alerts:
        rule = alert["rule"]
        if alert["firing"]:
            color, icon = _STATUS.get(rule["level"], _STATUS["critical"])
            state = f'<span style="color:{color}">{icon} firing</span>'
        else:
            color, icon = _STATUS["good"]
            state = f'<span style="color:{color}">{icon} ok</span>'
        rows.append(
            f"<tr><td>{_esc(rule['name'])}</td><td>{state}</td>"
            f"<td>{alert['value']:.4g}</td>"
            f"<td>{_esc(rule['op'])} {rule['threshold']:.4g}</td>"
            f"<td style='text-align:left'>{_esc(rule['description'])}</td></tr>"
        )
    return (
        '<table class="viz"><thead><tr><th>rule</th><th>state</th>'
        "<th>value</th><th>threshold</th><th>description</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _warnings_html(warnings: Sequence[str]) -> str:
    if not warnings:
        return ""
    items = "".join(
        f'<li><span style="color:var(--status-warning)" aria-hidden="true">▲'
        f"</span> {_esc(w)}</li>"
        for w in warnings
    )
    return (
        "<h2>Ingest warnings</h2>"
        f'<ul style="font-size:13px;line-height:1.7">{items}</ul>'
    )


def _scorecards_html(cards: Sequence[Mapping[str, Any]]) -> str:
    if not cards:
        return '<p class="muted">no residual pairs ingested yet</p>'
    rows = []
    for card in cards:
        rows.append(
            f"<tr><td>{_esc(card['model'])} / {_esc(card['operation'])}</td>"
            f"<td>all sizes</td><td>{card['count']}</td>"
            f"<td>{card['mean_abs_error']:.1%}</td><td>{card['p50']:.1%}</td>"
            f"<td>{card['p95']:.1%}</td><td>{card['max_abs_error']:.1%}</td>"
            f"<td>{card['bias']:+.1%}</td></tr>"
        )
        for bucket in card["buckets"]:
            rows.append(
                '<tr><td class="muted"></td>'
                f"<td>&le; {_esc(_fmt_bytes(float(bucket['bucket'])))}</td>"
                f"<td>{bucket['count']}</td><td>{bucket['mean_abs_error']:.1%}</td>"
                f"<td>{bucket['p50']:.1%}</td><td>{bucket['p95']:.1%}</td>"
                f"<td>{bucket['max_abs_error']:.1%}</td>"
                f"<td>{bucket['bias']:+.1%}</td></tr>"
            )
    return (
        '<table class="viz"><thead><tr><th>model / operation</th>'
        "<th>size bucket</th><th>n</th><th>mean err</th><th>p50</th>"
        "<th>p95</th><th>worst</th><th>bias</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _rate_chart_svg(irregularity: Mapping[str, Any]) -> str:
    """Escalation rate per size bucket, with M1/M2 annotations."""
    rates = [r for r in irregularity["rates"] if r["transfers"]]
    if not rates:
        return ""
    bar_w, gap, height, pad_l, pad_b = 26, 8, 140, 44, 34
    width = pad_l + len(rates) * (bar_w + gap) + 12
    peak = max(max(r["rate"] for r in rates), 0.05)
    parts = [
        f'<svg role="img" width="{width}" height="{height + pad_b}" '
        f'viewBox="0 0 {width} {height + pad_b}" '
        'aria-label="escalation rate per message-size bucket">'
    ]
    # y axis: baseline + one reference gridline at the peak rate
    parts.append(
        f'<line x1="{pad_l}" y1="{height}" x2="{width - 4}" y2="{height}" '
        'stroke="var(--baseline)" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{height}" text-anchor="end" font-size="11" '
        'fill="var(--text-muted)">0%</text>'
    )
    y_peak = height - (peak / peak) * (height - 16)
    parts.append(
        f'<line x1="{pad_l}" y1="{y_peak}" x2="{width - 4}" y2="{y_peak}" '
        'stroke="var(--grid)" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{pad_l - 6}" y="{y_peak + 4}" text-anchor="end" font-size="11" '
        f'fill="var(--text-muted)">{peak:.0%}</text>'
    )
    for idx, rate in enumerate(rates):
        x = pad_l + idx * (bar_w + gap)
        bar_h = (rate["rate"] / peak) * (height - 16)
        y = height - bar_h
        parts.append(
            f'<rect x="{x}" y="{y:.1f}" width="{bar_w}" height="{bar_h:.1f}" '
            'rx="2" fill="var(--series-1)"/>'
        )
        if rate["rate"] > 0:  # selective direct labels: escalating bars only
            parts.append(
                f'<text x="{x + bar_w / 2}" y="{y - 4:.1f}" text-anchor="middle" '
                f'font-size="10" fill="var(--text-secondary)">{rate["rate"]:.0%}</text>'
            )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{height + 14}" text-anchor="middle" '
            f'font-size="10" fill="var(--text-muted)">'
            f'{_esc(_fmt_bytes(rate["upper"]))}</text>'
        )
    uppers = [r["upper"] for r in rates]
    for name, value in (("M1", irregularity["m1"]), ("M2", irregularity["m2"])):
        nearest = min(range(len(uppers)), key=lambda i: abs(uppers[i] - value))
        x = pad_l + nearest * (bar_w + gap) + (bar_w if uppers[nearest] <= value else 0)
        parts.append(
            f'<line x1="{x}" y1="8" x2="{x}" y2="{height}" '
            'stroke="var(--text-secondary)" stroke-width="1" stroke-dasharray="3,3"/>'
        )
        parts.append(
            f'<text x="{x}" y="{height + 28}" text-anchor="middle" font-size="11" '
            f'fill="var(--text-primary)">{name}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _irregularity_html(irregularity: Optional[Mapping[str, Any]]) -> str:
    if not irregularity:
        return ('<p class="muted">no escalating size bucket observed '
                "(no traffic through the irregularity region yet)</p>")
    chart = _rate_chart_svg(irregularity)
    rows = "".join(
        f"<tr><td>&le; {_esc(_fmt_bytes(r['upper']))}</td><td>{r['transfers']}</td>"
        f"<td>{r['escalated']}</td><td>{r['rate']:.1%}</td></tr>"
        for r in irregularity["rates"] if r["transfers"]
    )
    table = (
        '<table class="viz"><thead><tr><th>size bucket</th><th>transfers</th>'
        "<th>escalated</th><th>rate</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
    )
    caption = (
        f"<p>live estimate: <strong>M1 &asymp; {_esc(_fmt_bytes(irregularity['m1']))}"
        f"</strong>, <strong>M2 &asymp; {_esc(_fmt_bytes(irregularity['m2']))}</strong>, "
        f"escalation value &asymp; {irregularity['escalation_value']:.3g} s</p>"
    )
    chart_div = f'<div class="chart">{chart}</div>' if chart else ""
    return f"{caption}{chart_div}{table}"


def _counts_html(counts: Mapping[str, Any], columns: tuple[str, ...]) -> str:
    if not counts:
        return '<p class="muted">(none)</p>'
    rows = []
    for name, value in counts.items():
        if isinstance(value, Mapping):
            cells = "".join(
                f"<td>{value[c]:.4g}</td>" if isinstance(value[c], float)
                else f"<td>{value[c]}</td>"
                for c in columns[1:]
            )
        else:
            cells = f"<td>{value}</td>"
        rows.append(f"<tr><td>{_esc(name)}</td>{cells}</tr>")
    head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
    return (
        f'<table class="viz"><thead><tr>{head}</tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _traces_html(traces: Mapping[str, Mapping[str, Any]]) -> str:
    if not traces:
        return ('<p class="muted">no traced spans in this snapshot '
                "(clients propagate trace ids via the wire envelope)</p>")
    rows = "".join(
        f"<tr><td><code>{_esc(trace_id)}</code></td><td>{entry['spans']}</td>"
        f"<td>{entry['total_seconds'] * 1e3:.2f}</td>"
        f"<td style='text-align:left'>{_esc(', '.join(entry['names']))}</td></tr>"
        for trace_id, entry in traces.items()
    )
    return (
        '<table class="viz"><thead><tr><th>trace id</th><th>spans</th>'
        "<th>total ms</th><th>span names</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
    )


def _bench_html(bench: Sequence[Mapping[str, Any]]) -> str:
    if not bench:
        return '<p class="muted">no BENCH_*.json files found</p>'
    blocks = []
    for entry in bench:
        rows = "".join(
            f"<tr><td>{_esc(k)}</td><td>{v:.6g}</td></tr>"
            for k, v in sorted(entry["data"].items())
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        )
        blocks.append(
            f"<h3 style='font-size:13px;margin:12px 0 6px'>{_esc(entry['name'])}</h3>"
            '<table class="viz"><thead><tr><th>measure</th><th>value</th>'
            f"</tr></thead><tbody>{rows}</tbody></table>"
        )
    return "".join(blocks)


def render_html(data: Mapping[str, Any]) -> str:
    """The dashboard as one self-contained HTML document."""
    summary = data["summary"]
    tiles = "".join(_tile_html(t) for t in data["tiles"])
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(data["title"])}</title>
<style>{_CSS}</style>
</head>
<body class="viz-root">
<h1>{_esc(data["title"])}</h1>
<p class="sub">{summary["metric_families"]} metric families &middot;
{summary["events"]} events &middot; {summary["spans_finished"]} finished spans
&middot; dropped {_esc(summary["dropped"])}</p>
<div class="tiles">{tiles}</div>
{_warnings_html(data.get("warnings") or ())}
<h2>Alerts</h2>
{_alerts_html(data["alerts"])}
<h2>Residual scorecards</h2>
{_scorecards_html(data["scorecards"])}
<h2>Gather irregularity (live)</h2>
{_irregularity_html(data.get("irregularity"))}
<h2>Events</h2>
{_counts_html(data["events_by_name"], ("event", "count"))}
<h2>Spans</h2>
{_counts_html(data["spans_by_name"], ("span", "count", "total_seconds"))}
<h2>Traces</h2>
{_traces_html(data.get("traces") or {})}
<h2>Bench trajectory</h2>
{_bench_html(data["bench"])}
</body>
</html>
"""
