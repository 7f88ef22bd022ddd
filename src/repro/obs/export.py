"""Exposition: one snapshot document, three output formats.

``repro obs export`` (and ``api.telemetry().to_dict()``) deal in the
*snapshot document* — the JSON written by ``--metrics-out``::

    {"format": "repro-telemetry", "version": 1,
     "metrics": {...}, "spans": [...], "events": [...]}

This module renders that document as:

* **prom** — Prometheus text exposition of the metrics section;
* **json** — the document itself (validated, pretty-printed);
* **chrome** — Chrome trace-event JSON of the spans section, optionally
  *merged* with a simulated-time :class:`repro.simlib.trace.Tracer`:
  wall-clock spans appear as one process, each sim lane as another, so
  ``chrome://tracing`` shows "what the process did" stacked above "what
  the simulated hardware did" in a single timeline.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence

from repro.obs.metrics import bucket_quantile, prometheus_text

__all__ = [
    "SNAPSHOT_FORMAT",
    "chrome_trace",
    "count_by_name",
    "render_report",
    "snapshot_prometheus",
    "validate_snapshot",
]

SNAPSHOT_FORMAT = "repro-telemetry"


def validate_snapshot(doc: Mapping[str, Any]) -> Mapping[str, Any]:
    """Check a loaded snapshot document's frame; returns it unchanged."""
    if not isinstance(doc, Mapping) or doc.get("format") != SNAPSHOT_FORMAT:
        found = doc.get("format") if isinstance(doc, Mapping) else doc
        raise ValueError(
            f"not a telemetry snapshot (format={found!r}); "
            "expected a file written by --metrics-out"
        )
    version = doc.get("version")
    if not isinstance(version, int) or version > 1:
        raise ValueError(f"unsupported telemetry snapshot version {version!r}")
    return doc


def snapshot_prometheus(doc: Mapping[str, Any]) -> str:
    """Prometheus text exposition of a snapshot's metrics section."""
    return prometheus_text(validate_snapshot(doc).get("metrics", {}))


# -- chrome trace ----------------------------------------------------------------
#: Readable names for the one-letter activity labels the simulated
#: cluster records; other labels pass through unchanged.
_ACTIVITY_NAMES = {
    "s": "send processing",
    "r": "receive processing",
    "w": "wire transfer",
    "R": "TCP retransmission timeout",
}


def _span_events(
    spans: Sequence[Mapping[str, Any]],
    pid: int,
    lane: str = "wall-clock spans",
    epoch: float = 0.0,
    t0: float = 0.0,
) -> list[dict[str, Any]]:
    """One Chrome lane (``pid``, named ``lane``) of finished spans.

    A span starting at ``start`` on its process's span clock lands at
    ``epoch + start - t0`` seconds: :mod:`repro.obs.stitch` passes the
    snapshot's ``spans_epoch_unix`` and the stitched timeline's origin.
    """
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": lane},
    }]
    for span in spans:
        end = span.get("end")
        if end is None:
            continue
        args = dict(span.get("attrs", {}))
        if span.get("trace_id"):
            args["trace_id"] = span["trace_id"]
        events.append({
            "name": span["name"],
            "ph": "X",
            "pid": pid,
            "tid": 0,
            "ts": (epoch + float(span["start"]) - t0) * 1e6,
            "dur": (float(end) - float(span["start"])) * 1e6,
            "args": args,
        })
    return events


def chrome_trace(
    spans: Sequence[Mapping[str, Any]] = (),
    tracer: Optional[object] = None,
) -> str:
    """Chrome trace-event JSON of wall spans and/or a sim-time tracer.

    ``tracer`` is duck-typed against :class:`repro.simlib.trace.Tracer`
    (``lanes()`` + ``intervals``), keeping :mod:`repro.obs` free of any
    repro dependency.  Wall spans get pid 0; sim lanes get pids 1+, and
    the cluster's one-letter activity labels become readable names
    (``w`` -> ``wire transfer``).  Sim-time lanes use *simulated*
    microseconds — the two clocks share a file, not an epoch, which is
    exactly what you want side by side.
    """
    events = _span_events(spans, pid=0) if spans else []
    if tracer is not None:
        lanes = {lane: idx + 1 for idx, lane in enumerate(tracer.lanes())}
        for lane, pid in lanes.items():
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"sim:{lane}"},
            })
        for interval in tracer.intervals:
            events.append({
                "name": _ACTIVITY_NAMES.get(interval.label,
                                            interval.label or "activity"),
                "ph": "X",
                "pid": lanes[interval.lane],
                "tid": 0,
                "ts": interval.start * 1e6,
                "dur": interval.duration * 1e6,
            })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


# -- human-readable report -------------------------------------------------------
def _histogram_line(name: str, labels: Mapping[str, str], sample: Mapping[str, Any]) -> str:
    count = sample["count"]
    mean = sample["sum"] / count if count else 0.0
    tag = _label_tag(labels)
    line = f"  {name}{tag}: count {count}, mean {mean:.3g}, sum {sample['sum']:.3g}"
    if count:
        p50 = bucket_quantile(sample["buckets"], count, 0.50)
        p95 = bucket_quantile(sample["buckets"], count, 0.95)
        line += f", p50 {p50:.3g}, p95 {p95:.3g}"
    return line


def _label_tag(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def count_by_name(
    doc: Mapping[str, Any],
) -> tuple[dict[str, int], dict[str, tuple[int, float]]]:
    """A snapshot's events per name, and its finished spans per name as
    ``(count, total seconds)``; both sorted by name."""
    events: dict[str, int] = {}
    for record in doc.get("events", []):
        events[record["name"]] = events.get(record["name"], 0) + 1
    spans: dict[str, tuple[int, float]] = {}
    for span in doc.get("spans", []):
        if span.get("end") is None:
            continue
        count, total = spans.get(span["name"], (0, 0.0))
        spans[span["name"]] = (
            count + 1, total + float(span["end"]) - float(span["start"]),
        )
    return dict(sorted(events.items())), dict(sorted(spans.items()))


def render_report(doc: Mapping[str, Any]) -> str:
    """One screen of text summarizing a snapshot document."""
    validate_snapshot(doc)
    lines: list[str] = []
    metrics = doc.get("metrics", {})
    if metrics:
        lines.append(f"metrics ({len(metrics)} families):")
        for name in sorted(metrics):
            family = metrics[name]
            for sample in family["samples"]:
                labels = sample.get("labels", {})
                if family["type"] == "histogram":
                    lines.append(_histogram_line(name, labels, sample))
                else:
                    value = sample["value"]
                    shown = int(value) if float(value).is_integer() else f"{value:.6g}"
                    lines.append(f"  {name}{_label_tag(labels)}: {shown}")
    else:
        lines.append("metrics: (none)")

    events_by_name, spans_by_name = count_by_name(doc)
    lines.append(f"events ({len(doc.get('events', []))} in ring):")
    for name, count in events_by_name.items():
        lines.append(f"  {name}: {count}")
    if not events_by_name:
        lines.append("  (none)")

    finished = sum(count for count, _ in spans_by_name.values())
    lines.append(f"spans ({finished} finished):")
    for name, (count, total) in spans_by_name.items():
        lines.append(f"  {name}: {count} x, {total:.4f} s total")
    if not spans_by_name:
        lines.append("  (none)")
    return "\n".join(lines)
