"""Stitch per-process telemetry snapshots into one distributed timeline.

Each process in a served round trip — the client driving requests, the
server (or its supervisor), campaign workers — exports its own
``repro-telemetry`` snapshot with spans stamped by the trace context of
:mod:`repro.obs.trace`.  This module merges those snapshots into a
single Chrome trace-event file in which every process is a lane and
every span of one trace lines up on a shared clock::

    repro obs trace stitch --in client=client.json --in server=server.json \
        --trace-id 0af7651916cd43dd8448eb211c80319c -o stitched.json

Clock alignment: span timestamps are per-process monotonic seconds
(rebased :func:`time.perf_counter`), useless across processes.  Every
snapshot therefore records ``spans_epoch_unix`` — the wall-clock instant
of its span clock's zero — and the stitcher rebases each span onto the
unix timeline, then shifts everything so the earliest stitched span
starts at zero.  Wall clocks across processes on one host agree to well
under a millisecond, which is plenty for request-scale spans.

Snapshots may be either the raw document (``--metrics-out`` output) or
an ``obs`` service-verb reply (``{"enabled": ..., "telemetry": {...}}``);
both are accepted.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence

from repro.obs.export import _span_events, validate_snapshot

__all__ = ["list_traces", "stitch_chrome_trace", "unwrap_snapshot"]


def unwrap_snapshot(doc: Mapping[str, Any]) -> Mapping[str, Any]:
    """Accept a raw snapshot or an ``obs`` verb reply wrapping one."""
    if isinstance(doc, Mapping) and "telemetry" in doc and "format" not in doc:
        inner = doc["telemetry"]
        if isinstance(inner, Mapping):
            doc = inner
    return validate_snapshot(doc)


def _spans_of(doc: Mapping[str, Any]) -> list[Mapping[str, Any]]:
    return [s for s in doc.get("spans", []) if isinstance(s, Mapping)]


def _events_of(doc: Mapping[str, Any]) -> list[Mapping[str, Any]]:
    return [e for e in doc.get("events", []) if isinstance(e, Mapping)]


def list_traces(
    named_docs: Sequence[tuple[str, Mapping[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Summarize every trace id present across the snapshots.

    Returns ``{trace_id: {"spans": n, "processes": [...], "names": [...]}}``
    — the menu ``repro obs trace stitch --list`` prints so the operator
    can pick a ``--trace-id``.
    """
    out: dict[str, dict[str, Any]] = {}
    for proc_name, doc in named_docs:
        for span in _spans_of(unwrap_snapshot(doc)):
            trace_id = span.get("trace_id")
            if not trace_id:
                continue
            info = out.setdefault(
                trace_id, {"spans": 0, "processes": [], "names": []}
            )
            info["spans"] += 1
            if proc_name not in info["processes"]:
                info["processes"].append(proc_name)
            if span["name"] not in info["names"]:
                info["names"].append(span["name"])
    return out


def stitch_chrome_trace(
    named_docs: Sequence[tuple[str, Mapping[str, Any]]],
    trace_id: Optional[str] = None,
) -> str:
    """Merge snapshots into one Chrome trace-event JSON document.

    ``named_docs`` is ``[(process_label, snapshot_doc), ...]``; each
    process becomes one Chrome pid.  With ``trace_id`` only the spans
    (and trace-stamped events) of that trace are kept; without it every
    span is stitched, trace-stamped or not.

    Raises :class:`ValueError` when a requested trace id matches nothing,
    or when a snapshot with matching spans lacks ``spans_epoch_unix``
    (pre-stitch snapshot versions cannot be clock-aligned).
    """
    lanes: list[tuple[str, float, list[Mapping[str, Any]], list[Mapping[str, Any]]]] = []
    for proc_name, raw in named_docs:
        doc = unwrap_snapshot(raw)
        spans = _spans_of(doc)
        events = _events_of(doc)
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace_id") == trace_id]
            events = [e for e in events if e.get("trace_id") == trace_id]
        if not spans and not events:
            continue
        epoch = doc.get("spans_epoch_unix")
        if spans and not isinstance(epoch, (int, float)):
            raise ValueError(
                f"snapshot {proc_name!r} has no spans_epoch_unix; "
                "re-export it with a current repro build to stitch clocks"
            )
        lanes.append((proc_name, float(epoch or 0.0), spans, events))
    if not lanes:
        wanted = "any spans" if trace_id is None else f"trace {trace_id!r}"
        raise ValueError(f"no snapshot contains {wanted}")

    # Shift the merged timeline so the earliest instant is t=0: Chrome's
    # UI handles small timestamps far better than unix-epoch microseconds.
    starts: list[float] = []
    for _, epoch, spans, events in lanes:
        starts.extend(epoch + float(s["start"]) for s in spans)
        starts.extend(float(e["ts"]) for e in events)
    t0 = min(starts)

    trace_events: list[dict[str, Any]] = []
    for pid, (proc_name, epoch, spans, events) in enumerate(lanes):
        trace_events.extend(
            _span_events(spans, pid, lane=proc_name, epoch=epoch, t0=t0)
        )
        for event in events:
            fields = {
                k: v for k, v in event.items()
                if k not in ("seq", "ts", "level", "name")
            }
            trace_events.append({
                "name": event["name"],
                "ph": "i",  # instant
                "s": "p",   # process-scoped
                "pid": pid,
                "tid": 0,
                "ts": (float(event["ts"]) - t0) * 1e6,
                "args": fields,
            })
    return json.dumps({"traceEvents": trace_events, "displayTimeUnit": "ms"})
