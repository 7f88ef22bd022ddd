"""The process-local telemetry switchboard.

Instrumented modules never construct registries themselves; they consult
one module-level global::

    from repro.obs import runtime as _obs
    ...
    tel = _obs.ACTIVE
    if tel is not None:
        tel.registry.counter("campaign_units_total", outcome="done").inc()

``ACTIVE`` is ``None`` until someone calls :func:`enable` — and that
``is None`` check is the *entire* cost of every hook when telemetry is
off (benchmarked in ``benchmarks/test_obs_overhead.py``; the hot-path
budget is <5% of an uninstrumented run).  Cold paths (an RTO escalation,
a breaker trip) may do more work per hit; hot paths must do nothing but
the guard.

Spans get a dedicated helper because the no-op case must not allocate::

    with _obs.span("campaign.unit", index=i):
        ...

returns a shared do-nothing context manager when telemetry is off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, prometheus_text
from repro.obs.spans import SpanRecorder

__all__ = [
    "Telemetry", "ACTIVE", "active", "enable", "disable", "span", "suppressed",
]


class Telemetry:
    """One telemetry session: a registry, a span recorder, an event log."""

    def __init__(
        self,
        span_capacity: int = 4096,
        event_capacity: int = 2048,
        events_jsonl: Optional[str] = None,
    ):
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(capacity=span_capacity)
        self.events = EventLog(capacity=event_capacity, jsonl_path=events_jsonl)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The whole session as one JSON-ready snapshot document.

        This is the interchange format ``--metrics-out`` writes and
        ``repro obs report/export`` reads back.
        """
        return {
            "format": "repro-telemetry",
            "version": 1,
            "metrics": self.registry.snapshot(),
            "spans": self.spans.to_dicts(),
            # Wall-clock instant of the span clock's zero — cross-process
            # snapshots are aligned on this by ``repro obs trace stitch``.
            "spans_epoch_unix": self.spans.epoch_unix,
            "events": self.events.to_dicts(),
            "dropped": {"spans": self.spans.dropped, "events": self.events.dropped},
        }

    def to_prometheus(self) -> str:
        return prometheus_text(self.registry.snapshot())

    def reset(self) -> None:
        """Clear metrics, spans and events (capacities preserved)."""
        self.registry.reset()
        self.spans.clear()
        self.events.clear()

    def close(self) -> None:
        self.events.close()


class _NullSpan:
    """Shared no-op context manager for disabled-telemetry span() calls."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: The active telemetry session, or None (telemetry off).  Hot paths read
#: this directly; everything else goes through the functions below.
ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The active telemetry session, or None when disabled."""
    return ACTIVE


def enable(
    span_capacity: int = 4096,
    event_capacity: int = 2048,
    events_jsonl: Optional[str] = None,
    fresh: bool = False,
) -> Telemetry:
    """Turn telemetry on (idempotent); returns the session.

    A session that is already active is reused — callers layering
    instrumentation (CLI flag plus library call) share one registry.
    ``fresh=True`` discards any existing session first.
    """
    global ACTIVE
    if ACTIVE is None or fresh:
        if ACTIVE is not None:
            ACTIVE.close()
        ACTIVE = Telemetry(
            span_capacity=span_capacity,
            event_capacity=event_capacity,
            events_jsonl=events_jsonl,
        )
    return ACTIVE


def disable() -> None:
    """Turn telemetry off and drop the session."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
    ACTIVE = None


@contextmanager
def suppressed():
    """Temporarily mute all telemetry hooks in this block.

    Used where code *re-executes* history — journal replay rebuilding a
    breaker board, for instance — and the hooks it trips must not be
    counted as live events a second time.
    """
    global ACTIVE
    saved = ACTIVE
    ACTIVE = None
    try:
        yield
    finally:
        ACTIVE = saved


def span(name: str, **attrs: Any):
    """A wall-clock span on the active session, or a shared no-op."""
    tel = ACTIVE
    if tel is None:
        return _NULL_SPAN
    return tel.spans.span(name, **attrs)

