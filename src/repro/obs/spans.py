"""Wall-clock span tracing with contextvars nesting.

A *span* is a named wall-time interval with attributes and a parent —
the observability twin of the simulated-time intervals
:class:`repro.simlib.trace.Tracer` records.  Both export to the same
Chrome trace-event JSON (``chrome://tracing`` / Perfetto), so one file
can show "what the process did" (wall spans: campaign units, heal
cycles, sweep evaluations) above "what the simulated hardware did"
(sim-time lanes: CPU holds, wire occupancy, RTO gaps) — see
:func:`repro.obs.export.chrome_trace`.

Usage::

    recorder = SpanRecorder()
    with recorder.span("campaign.unit", index=17):
        ...

Nesting is tracked with a :mod:`contextvars` variable, so spans nest
correctly across generators and threads without any explicit parent
bookkeeping.  The recorder keeps a bounded ring of finished spans
(oldest dropped first) — telemetry must never grow without bound.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs import trace as _trace

__all__ = ["Span", "SpanRecorder"]

_CURRENT_SPAN: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass
class Span:
    """One finished (or in-flight) wall-clock interval."""

    name: str
    start: float
    end: Optional[float] = None
    span_id: int = 0
    parent_id: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: The distributed trace this span belongs to (32 hex chars), stamped
    #: from :mod:`repro.obs.trace`'s current context; ``None`` = untraced.
    trace_id: Optional[str] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Span":
        return cls(
            name=doc["name"],
            start=float(doc["start"]),
            end=None if doc.get("end") is None else float(doc["end"]),
            span_id=int(doc.get("span_id", 0)),
            parent_id=doc.get("parent_id"),
            attrs=dict(doc.get("attrs", {})),
            trace_id=doc.get("trace_id"),
        )


class _SpanContext:
    """Context manager driving one span's lifetime."""

    __slots__ = ("_recorder", "_span", "_token")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self._span = span
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        # The parent span MUST be restored no matter what goes wrong in
        # here (a monkeypatched clock, a failing ring append): an orphaned
        # context variable would silently re-parent every later span in
        # this task onto a finished one.
        try:
            self._span.end = self._recorder.clock()
            if exc_type is not None:
                self._span.attrs.setdefault("error", exc_type.__name__)
        finally:
            if self._token is not None:
                token, self._token = self._token, None
                _CURRENT_SPAN.reset(token)
            self._recorder._finish(self._span)


class SpanRecorder:
    """Collects finished spans into a bounded ring buffer.

    The clock is :func:`time.perf_counter` rebased to zero at recorder
    creation, so span timestamps are small, stable numbers independent
    of process start time (and Chrome-trace friendly).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._epoch = time.perf_counter()
        #: Wall-clock instant of this recorder's time zero — lets the
        #: trace stitcher align span clocks from different processes.
        self.epoch_unix = time.time()
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._next_id = 1
        self.dropped = 0

    def clock(self) -> float:
        """Seconds since this recorder was created."""
        return time.perf_counter() - self._epoch

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a span; use as ``with recorder.span("name", k=v):``."""
        parent = _CURRENT_SPAN.get()
        ctx = _trace.current()
        span = Span(
            name=name,
            start=self.clock(),
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            attrs=attrs,
            trace_id=None if ctx is None else ctx.trace_id,
        )
        self._next_id += 1
        return _SpanContext(self, span)

    def current(self) -> Optional[Span]:
        """The innermost open span in this context (None outside any)."""
        return _CURRENT_SPAN.get()

    def adopt(self, docs: list[dict[str, Any]], epoch_unix: float,
              parent: Optional[Span] = None) -> None:
        """Record spans another recorder finished (e.g. in a worker
        process) as finished spans of this one.

        ``docs`` are that recorder's :meth:`to_dicts` and ``epoch_unix``
        its :attr:`epoch_unix`: times move onto this recorder's clock,
        span ids are re-issued from this recorder's sequence, and spans
        whose parent is not among ``docs`` hang under ``parent``.
        """
        shift = epoch_unix - self.epoch_unix
        ids: dict[Any, int] = {}
        for doc in docs:
            ids[doc["span_id"]] = self._next_id
            self._next_id += 1
        root = None if parent is None else parent.span_id
        for doc in docs:
            span = Span.from_dict(doc)
            span.start += shift
            if span.end is not None:
                span.end += shift
            span.span_id = ids[doc["span_id"]]
            span.parent_id = ids.get(doc.get("parent_id"), root)
            self._finish(span)

    def _finish(self, span: Span) -> None:
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(span)

    # -- reading -------------------------------------------------------------
    def finished(self, name: Optional[str] = None) -> list[Span]:
        """Finished spans in completion order (optionally one name only)."""
        spans = list(self._finished)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def clear(self) -> None:
        self._finished.clear()
        self.dropped = 0

    def to_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self._finished]
