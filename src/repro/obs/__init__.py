"""repro.obs — dependency-free telemetry: metrics, spans, events.

The paper's argument is forensic — it *attributes* time (processor vs.
network, constant vs. variable, regular vs. escalated) — and this
subsystem makes the reproduction inspectable the same way:

* :mod:`repro.obs.metrics` — a process-local metrics registry
  (counters, gauges, log2-bucket histograms; labeled families;
  Prometheus-text and JSON exposition);
* :mod:`repro.obs.spans` — wall-clock span tracing with contextvars
  nesting, exportable to Chrome trace JSON alongside the simulated-time
  lanes of :class:`repro.simlib.trace.Tracer`;
* :mod:`repro.obs.events` — a structured, leveled event log with a
  bounded ring buffer and an optional JSONL sink;
* :mod:`repro.obs.runtime` — the on/off switchboard.  Telemetry is off
  by default; every instrumentation hook in the codebase guards on
  ``runtime.ACTIVE is None`` and costs nothing else when off.

Stdlib-only by design (no numpy — the registry must be importable from
the innermost simulation layers without cycles or heavyweight imports).

Quick start::

    from repro import obs

    tel = obs.enable()
    ... run a campaign, a chaos cycle, a sweep ...
    print(tel.to_prometheus())
    escalations = tel.events.events("rto_escalation")
"""

from repro.obs.events import LEVELS, EventLog
from repro.obs.export import (
    SNAPSHOT_FORMAT,
    chrome_trace,
    render_report,
    snapshot_prometheus,
    validate_snapshot,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    prometheus_text,
)
from repro.obs.runtime import (
    Telemetry,
    active,
    disable,
    enable,
    span,
    suppressed,
)
from repro.obs.spans import Span, SpanRecorder
from repro.obs.stitch import list_traces, stitch_chrome_trace, unwrap_snapshot
from repro.obs.trace import (
    TraceContext,
    current_traceparent,
    new_context,
    parse_traceparent,
)

__all__ = [
    "LEVELS",
    "SNAPSHOT_FORMAT",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TraceContext",
    "active",
    "bucket_quantile",
    "chrome_trace",
    "current_traceparent",
    "disable",
    "enable",
    "insight",
    "list_traces",
    "new_context",
    "parse_traceparent",
    "prometheus_text",
    "render_report",
    "snapshot_prometheus",
    "span",
    "stitch_chrome_trace",
    "suppressed",
    "unwrap_snapshot",
    "validate_snapshot",
]

from repro.obs import insight  # noqa: E402  (subpackage re-export)
