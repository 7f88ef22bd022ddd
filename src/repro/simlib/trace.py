"""Activity tracing for the simulated cluster: what happened, when, where.

A :class:`Tracer` records labelled activity intervals per lane (one lane
per node CPU, one per switch port, ...) and renders them as an ASCII
Gantt chart — the timeline view that makes the paper's arguments visible:
the root's CPU lane is solid during a linear scatter while the port lanes
overlap; a gather's port lane serializes; an RTO escalation is a long
gap.  :func:`repro.obs.export.chrome_trace` (``tracer=...``) exports the
same intervals as Chrome trace-event JSON.

The tracer is optional and zero-cost when absent: the cluster only calls
it if one is attached (:meth:`repro.cluster.machine.SimulatedCluster.attach_tracer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Interval", "Tracer", "render_gantt"]


@dataclass(frozen=True)
class Interval:
    """One traced activity: ``[start, end)`` on a lane."""

    lane: str
    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Accumulates activity intervals during a simulation run."""

    intervals: list[Interval] = field(default_factory=list)

    def record(self, lane: str, start: float, end: float, label: str = "") -> None:
        """Record one completed activity."""
        self.intervals.append(Interval(lane, start, end, label))

    def clear(self) -> None:
        self.intervals.clear()

    # -- queries --------------------------------------------------------------
    def lanes(self) -> list[str]:
        """Lane names in first-appearance order."""
        seen: dict[str, None] = {}
        for interval in self.intervals:
            seen.setdefault(interval.lane, None)
        return list(seen)

    def lane_intervals(self, lane: str) -> list[Interval]:
        """Intervals of one lane, sorted by start time."""
        return sorted(
            (i for i in self.intervals if i.lane == lane), key=lambda i: i.start
        )

    def busy_time(self, lane: str) -> float:
        """Total busy (possibly overlapping) time on a lane."""
        return sum(i.duration for i in self.lane_intervals(lane))

    def utilization(self, lane: str) -> float:
        """Busy time over the full traced span (0 when nothing happened)."""
        span = self.span()
        if span <= 0:
            return 0.0
        return self.busy_time(lane) / span

    def span(self) -> float:
        """Time from the earliest start to the latest end."""
        if not self.intervals:
            return 0.0
        return max(i.end for i in self.intervals) - min(i.start for i in self.intervals)

    def render(self, width: int = 72, lanes: Optional[list[str]] = None) -> str:
        """ASCII Gantt chart of the trace (see :func:`render_gantt`)."""
        return render_gantt(self, width=width, lanes=lanes)


def render_gantt(tracer: Tracer, width: int = 72, lanes: Optional[list[str]] = None) -> str:
    """Render a tracer's intervals as a fixed-width ASCII Gantt chart.

    Each lane is a row; busy stretches are drawn with ``#`` (or the first
    letter of the interval label when unambiguous).
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    chosen = lanes if lanes is not None else tracer.lanes()
    if not tracer.intervals or not chosen:
        return "(empty trace)"
    t0 = min(i.start for i in tracer.intervals)
    t1 = max(i.end for i in tracer.intervals)
    span = max(t1 - t0, 1e-15)
    name_width = max(len(name) for name in chosen)
    lines = [
        f"{'':<{name_width}} 0{'.' * (width - 2)}{span * 1e3:.3f} ms"
    ]
    for lane in chosen:
        cells = [" "] * width
        for interval in tracer.lane_intervals(lane):
            lo = int((interval.start - t0) / span * (width - 1))
            hi = int((interval.end - t0) / span * (width - 1))
            mark = interval.label[:1] if interval.label else "#"
            for pos in range(lo, max(hi, lo) + 1):
                cells[pos] = mark
        lines.append(f"{lane:<{name_width}} {''.join(cells)}")
    return "\n".join(lines)
