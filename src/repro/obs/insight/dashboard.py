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

from repro.obs import slo as _slo
from repro.obs.export import validate_snapshot
from repro.obs.insight.alerts import AlertEngine, AlertRule
from repro.obs.insight.detectors import EscalationDetector
from repro.obs.insight.residuals import (
    BucketScore,
    Scorecard,
    render_scorecards,
    scorecards,
)
from repro.obs.timeline import TimelineStore

__all__ = [
    "build_dashboard",
    "render_html",
    "render_terminal",
    "render_top",
    "watch",
]


def _fmt_bytes(value: float) -> str:
    value = float(value)
    for unit, scale in (("MB", 2 ** 20), ("KB", 2 ** 10)):
        if value >= scale:
            shown = value / scale
            return f"{shown:.0f} {unit}" if shown == int(shown) else f"{shown:.1f} {unit}"
    return f"{value:.0f} B"


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _spark(points: Sequence[Sequence[float]], width: int = 24) -> str:
    """Unicode sparkline of the last ``width`` (time, value) points."""
    values = [float(p[1]) for p in points][-width:]
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return _SPARK_GLYPHS[0] * len(values)
    return "".join(
        _SPARK_GLYPHS[min(len(_SPARK_GLYPHS) - 1,
                          int(v / peak * (len(_SPARK_GLYPHS) - 1)))]
        for v in values
    )


def _metric_sum(metrics: Mapping[str, Any], name: str, **labels: str) -> float:
    family = metrics.get(name)
    if not family:
        return 0.0
    total = 0.0
    for sample in family.get("samples", ()):
        got = sample.get("labels", {})
        if all(str(got.get(k)) == v for k, v in labels.items()):
            total += float(sample["count"] if family["type"] == "histogram"
                           else sample["value"])
    return total


def _timeline_panel(timeline: TimelineStore) -> dict[str, Any]:
    """Per-counter rate series for the trend sparklines.

    The middle tier balances span against resolution: the coarsest tier
    collapses a short-lived process to a single point, the finest one
    shows only the last couple of minutes of a long-lived one.
    """
    horizon = timeline.tiers[len(timeline.tiers) // 2].horizon
    series: dict[str, dict[str, Any]] = {}
    for name in timeline.counter_names():
        points = timeline.series(name, horizon)
        if not points:
            continue
        series[name] = {
            "rate": timeline.rate(name, horizon),
            "total": timeline.sum_over_window(name, horizon),
            "points": [[round(t, 3), round(v, 6)] for t, v in points],
        }
    return {
        "window_seconds": horizon,
        "tiers": [{"width": t.width, "capacity": t.capacity}
                  for t in timeline.tiers],
        "last_tick": timeline.last_tick,
        "series": series,
    }


def build_dashboard(
    doc: Mapping[str, Any],
    bench: Sequence[tuple[str, Mapping[str, Any]]] = (),
    rules: Optional[list[AlertRule]] = None,
    engine: Optional[AlertEngine] = None,
    warnings: Sequence[str] = (),
) -> dict[str, Any]:
    """Merge a snapshot document into the dashboard's data dict.

    ``bench`` is ``(name, parsed-json)`` pairs from ``BENCH_*.json``
    files; ``engine`` lets a caller keep firing state across refreshes
    (``watch``), otherwise a fresh engine evaluates ``rules``;
    ``warnings`` are ingest problems (unreadable bench files, …) that
    must surface on the dashboard instead of killing it.
    """
    validate_snapshot(doc)
    metrics = doc.get("metrics", {})
    warnings = list(warnings)
    timeline: Optional[TimelineStore] = None
    if isinstance(doc.get("timeline"), Mapping):
        try:
            timeline = TimelineStore.from_dict(doc["timeline"])
        except (ValueError, KeyError, TypeError) as exc:
            warnings.append(f"timeline section unreadable: {exc}")
    if engine is None:
        engine = AlertEngine(rules=rules)
    alerts = engine.evaluate(metrics, timeline=timeline)
    slo_status: list[dict[str, Any]] = []
    if timeline is not None and timeline.last_tick is not None:
        slo_status = [
            status.to_dict()
            for status in _slo.evaluate_slos(
                list(engine.slos.values()), timeline
            )
        ]
    cards = scorecards(metrics)

    detector = EscalationDetector.from_snapshot(metrics)
    try:
        irregularity = detector.estimate().to_dict()
    except ValueError:
        irregularity = None

    escalations = _metric_sum(metrics, "rto_escalations_total")
    transfers = _metric_sum(metrics, "sim_transfer_bytes")
    escalated = _metric_sum(metrics, "sim_escalated_transfer_bytes")
    coverage = _metric_sum(metrics, "campaign_coverage")
    open_breakers = _metric_sum(metrics, "breaker_nodes", state="open")
    drift = _metric_sum(metrics, "maintainer_worst_drift")
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
    if slo_status:
        worst = min(s["budget_remaining"] for s in slo_status)
        tiles.append({
            "label": "worst SLO budget",
            "value": f"{worst:.0%}",
            "status": ("critical" if worst <= 0.0
                       else "warning" if worst < 0.5 else "good"),
        })
    if warnings:
        tiles.append({"label": "ingest warnings", "value": str(len(warnings)),
                      "status": "warning"})

    events = doc.get("events", [])
    by_event: dict[str, int] = {}
    for record in events:
        by_event[record["name"]] = by_event.get(record["name"], 0) + 1
    spans = [s for s in doc.get("spans", []) if s.get("end") is not None]
    by_span: dict[str, tuple[int, float]] = {}
    for span in spans:
        count, total = by_span.get(span["name"], (0, 0.0))
        by_span[span["name"]] = (
            count + 1, total + float(span["end"]) - float(span["start"]),
        )

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
            "events": len(events),
            "spans_finished": len(spans),
            "dropped": dict(doc.get("dropped", {})),
        },
        "tiles": tiles,
        "warnings": warnings,
        "alerts": [a.to_dict() for a in alerts],
        "slos": slo_status,
        "timeline": _timeline_panel(timeline) if timeline is not None else None,
        "scorecards": [c.to_dict() for c in cards],
        "irregularity": irregularity,
        "events_by_name": dict(sorted(by_event.items())),
        "spans_by_name": {
            name: {"count": count, "total_seconds": total}
            for name, (count, total) in sorted(by_span.items())
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
    slos = data.get("slos") or ()
    if slos:
        lines.append("")
        lines.append("slos:")
        for status in slos:
            spec = status["slo"]
            lines.append(
                f"  {spec['name']}: objective {spec['objective']:.4g}, "
                f"budget {status['budget_remaining']:.0%} left, "
                f"burn fast {status['burn_fast']:.2f}x / "
                f"slow {status['burn_slow']:.2f}x "
                f"({status['good']:.0f}/{status['total']:.0f} good)"
            )
    timeline = data.get("timeline")
    if timeline and timeline.get("series"):
        lines.append("")
        lines.append(
            f"timeline (last {timeline['window_seconds']:.0f}s):"
        )
        for name, entry in sorted(timeline["series"].items()):
            lines.append(
                f"  {name}: {entry['total']:.0f} total, "
                f"{entry['rate']:.3g}/s {_spark(entry['points'])}"
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


def render_top(data: Mapping[str, Any]) -> str:
    """``repro obs top`` — one dense screen: alerts, SLO budgets, rates.

    The same data dict as :func:`render_terminal`, but trimmed to what an
    operator glances at under pressure: firing alerts first, error-budget
    gauges, then the busiest counters with sparklines.
    """
    summary = data["summary"]
    lines = [
        f"{data['title']} — {summary['metric_families']} families, "
        f"{summary['spans_finished']} spans",
    ]
    for warning in data.get("warnings") or ():
        lines.append(f"  ! {warning}")
    firing = [a for a in data["alerts"] if a["firing"]]
    if firing:
        for alert in firing:
            rule = alert["rule"]
            lines.append(
                f"  FIRING [{rule['level']}] {rule['name']}: "
                f"{alert['value']:.4g} {rule['op']} {rule['threshold']:.4g}"
            )
    else:
        lines.append(f"  alerts: all {len(data['alerts'])} ok")
    for status in data.get("slos") or ():
        spec = status["slo"]
        gauge = _gauge_bar(status["budget_remaining"])
        lines.append(
            f"  slo {spec['name']:<28.28} {gauge} "
            f"{status['budget_remaining']:>4.0%} budget  "
            f"burn {status['burn_fast']:.1f}x/{status['burn_slow']:.1f}x"
        )
    timeline = data.get("timeline")
    if timeline and timeline.get("series"):
        ranked = sorted(
            timeline["series"].items(),
            key=lambda kv: -kv[1]["rate"],
        )
        for name, entry in ranked[:10]:
            lines.append(
                f"  {name:<34.34} {entry['rate']:>9.3g}/s "
                f"{_spark(entry['points'])}"
            )
    else:
        lines.append("  (no timeline in this snapshot — serve with "
                     "timeline enabled or tick a TimelineStore)")
    return "\n".join(lines)


def _gauge_bar(fraction: float, width: int = 10) -> str:
    filled = max(0, min(width, round(float(fraction) * width)))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def watch(
    path: str,
    interval: float = 2.0,
    count: Optional[int] = None,
    stream: Optional[TextIO] = None,
    sleep: Callable[[float], None] = time.sleep,
    rules: Optional[list[AlertRule]] = None,
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
    engine = AlertEngine(rules=rules)
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


def _budget_gauge_svg(fraction: float) -> str:
    """A small horizontal budget gauge: filled = budget remaining."""
    width, height = 120, 12
    frac = max(0.0, min(1.0, float(fraction)))
    fill = ("var(--status-critical)" if frac <= 0.0
            else "var(--status-warning)" if frac < 0.5
            else "var(--status-good)")
    return (
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'aria-label="error budget {frac:.0%} remaining">'
        f'<rect x="0" y="0" width="{width}" height="{height}" rx="3" '
        'fill="var(--grid)"/>'
        f'<rect x="0" y="0" width="{frac * width:.1f}" height="{height}" '
        f'rx="3" fill="{fill}"/></svg>'
    )


def _slos_html(slos: Sequence[Mapping[str, Any]]) -> str:
    if not slos:
        return ('<p class="muted">no SLO status in this snapshot '
                "(the timeline section is required to window the ratios)</p>")
    rows = []
    for status in slos:
        spec = status["slo"]
        burn = max(status["burn_fast"], status["burn_slow"])
        color, icon = (_STATUS["critical"] if status["budget_remaining"] <= 0
                       else _STATUS["warning"] if burn > 1.0
                       else _STATUS["good"])
        rows.append(
            f"<tr><td>{_esc(spec['name'])}</td>"
            f"<td>{spec['objective']:.4g}</td>"
            f'<td><span style="color:{color}">{icon}</span> '
            f"{_budget_gauge_svg(status['budget_remaining'])} "
            f"{status['budget_remaining']:.0%}</td>"
            f"<td>{status['burn_fast']:.2f}&times;</td>"
            f"<td>{status['burn_slow']:.2f}&times;</td>"
            f"<td>{status['good']:.0f} / {status['total']:.0f}</td>"
            f"<td style='text-align:left'>{_esc(spec['description'])}</td></tr>"
        )
    return (
        '<table class="viz"><thead><tr><th>SLO</th><th>objective</th>'
        "<th>budget left</th><th>burn (fast)</th><th>burn (slow)</th>"
        "<th>good / total</th><th>description</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _series_svg(points: Sequence[Sequence[float]]) -> str:
    """An inline area sparkline for one counter's per-window rate."""
    width, height = 160, 28
    values = [float(p[1]) for p in points][-40:]
    if not values:
        return ""
    peak = max(max(values), 1e-12)
    step = width / max(len(values), 1)
    coords = [
        (idx * step + step / 2, height - (v / peak) * (height - 4))
        for idx, v in enumerate(values)
    ]
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    return (
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="rate over time">'
        f'<line x1="0" y1="{height - 1}" x2="{width}" y2="{height - 1}" '
        'stroke="var(--baseline)" stroke-width="1"/>'
        f'<polyline points="{path}" fill="none" stroke="var(--series-1)" '
        'stroke-width="1.5"/></svg>'
    )


def _timeline_html(timeline: Optional[Mapping[str, Any]]) -> str:
    if not timeline or not timeline.get("series"):
        return ('<p class="muted">no timeline in this snapshot — the serve '
                "daemon records one by default; scripts can attach one with "
                "<code>repro.obs.enable_timeline()</code></p>")
    rows = "".join(
        f"<tr><td>{_esc(name)}</td><td>{entry['total']:.0f}</td>"
        f"<td>{entry['rate']:.4g}</td>"
        f"<td style='text-align:left'>{_series_svg(entry['points'])}</td></tr>"
        for name, entry in sorted(timeline["series"].items())
    )
    caption = (
        f"<p>windowed counters over the last "
        f"{timeline['window_seconds']:.0f}&nbsp;s "
        f"({len(timeline['series'])} series)</p>"
    )
    return (
        f"{caption}"
        '<table class="viz"><thead><tr><th>counter</th><th>total</th>'
        "<th>rate /s</th><th>trend</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>"
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
<h2>SLOs &amp; error budgets</h2>
{_slos_html(data.get("slos") or ())}
<h2>Timeline</h2>
{_timeline_html(data.get("timeline"))}
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
