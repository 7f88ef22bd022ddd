"""Deterministic instrumentation profiler for the DES kernel and service
hot paths.

Sampling profilers answer "where was the program, statistically"; this
one answers "exactly which frames ran, how many times, for how long" —
*deterministic* in the sense of instrumentation-based: frame counts are
exact and reproducible run to run (the DES kernel is seeded, so two runs
execute the same events in the same order), and with an injected clock
the timings reproduce too (the unit tests exploit this).

Three layers:

* :class:`Profiler` — an explicit frame stack.  ``begin(name)`` /
  ``end()`` (or ``with profiler.frame(name):``) accumulate, per unique
  stack, the *self* time of its leaf, plus per-frame-name counts,
  cumulative and self time.  Thread-safe by construction: each thread
  gets its own stack and accumulators (no per-event locking on the hot
  path); ``stats()`` merges them.
* kernel hook — :class:`repro.simlib.kernel.Simulator` carries a
  ``profiler`` attribute (``None`` by default; the event loop reads it
  once per run, so the disabled cost is a local ``is None`` test per
  event, covered by the ``BENCH_obs.json`` overhead gate).  When
  attached, every popped event is timed under a frame named for its
  event type and — for process resumptions — the process it resumes:
  ``Timeout``, ``Event→proc:recv@3``, ...  That is the per-event-type /
  per-handler attribution the kernel-optimization work needs.
* exports — :meth:`Profiler.collapsed` (Brendan-Gregg collapsed-stack
  lines, ``flamegraph.pl``-ready) and :meth:`Profiler.speedscope`
  (a https://speedscope.app document), plus :meth:`Profiler.to_dict`
  for the JSON the CLI and the benchmark write.

Like the rest of :mod:`repro.obs` the module is stdlib-only and guarded
by a module-level switchboard: instrumentation points read
``prof.ACTIVE`` and do nothing else when it is ``None``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "ACTIVE",
    "FrameStat",
    "Profiler",
    "disable_profiler",
    "enable_profiler",
    "profiling",
]


@dataclass
class FrameStat:
    """Aggregated view of one frame name across every stack it appears in."""

    name: str
    count: int = 0
    cum_ns: int = 0
    self_ns: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "cum_ns": self.cum_ns,
            "self_ns": self.self_ns,
        }


class _ThreadState:
    """One thread's frame stack and accumulators (lock-free on push/pop)."""

    __slots__ = ("stack", "stacks", "counts", "cum", "self_ns", "active")

    def __init__(self) -> None:
        #: Open frames: [name, start_ns, child_ns, stack_key].
        self.stack: list[list[Any]] = []
        #: stack tuple -> accumulated self ns of its leaf.
        self.stacks: dict[tuple[str, ...], int] = {}
        #: frame name -> times entered.
        self.counts: dict[str, int] = {}
        #: frame name -> cumulative ns (outermost occurrences only).
        self.cum: dict[str, int] = {}
        #: frame name -> self ns.
        self.self_ns: dict[str, int] = {}
        #: frame name -> currently-open occurrences (recursion guard).
        self.active: dict[str, int] = {}


class Profiler:
    """Exact frame-stack profiler with collapsed-stack/speedscope export.

    ``clock_ns`` defaults to :func:`time.perf_counter_ns`; inject a fake
    for fully deterministic timings in tests.
    """

    def __init__(self, clock_ns: Callable[[], int] = time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.events_recorded = 0
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._local = threading.local()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- the hot path ---------------------------------------------------------
    def begin(self, name: str) -> None:
        """Open a frame named ``name`` under the current stack."""
        state = self._state()
        parent_key = state.stack[-1][3] if state.stack else ()
        state.active[name] = state.active.get(name, 0) + 1
        state.stack.append([name, self.clock_ns(), 0, parent_key + (name,)])

    def end(self) -> None:
        """Close the innermost open frame and accumulate its times."""
        state = self._state()
        name, start_ns, child_ns, key = state.stack.pop()
        elapsed = self.clock_ns() - start_ns
        self_ns = elapsed - child_ns
        if state.stack:
            state.stack[-1][2] += elapsed
        state.stacks[key] = state.stacks.get(key, 0) + self_ns
        state.counts[name] = state.counts.get(name, 0) + 1
        state.self_ns[name] = state.self_ns.get(name, 0) + self_ns
        # Cumulative time counts outermost occurrences only, so direct or
        # indirect recursion is not double-billed.
        state.active[name] -= 1
        if state.active[name] == 0:
            state.cum[name] = state.cum.get(name, 0) + elapsed

    @contextmanager
    def frame(self, name: str) -> Iterator[None]:
        """``with profiler.frame("sim.run"):`` — exception-safe begin/end."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- the kernel hook ------------------------------------------------------
    # Called by the Simulator's event loop around each event's callbacks
    # (before it clears them); the frame name attributes time to the
    # event type and, for process resumptions, the process being resumed
    # (the *handler*).
    def event_begin(self, event: Any) -> None:
        self.events_recorded += 1
        name = type(event).__name__
        callbacks = event.callbacks
        if callbacks:
            owner = getattr(callbacks[0], "__self__", None)
            pname = getattr(owner, "name", None)
            if pname:
                name = f"{name}→proc:{pname}"
        self.begin(name)

    def event_end(self) -> None:
        self.end()

    # -- reading --------------------------------------------------------------
    def _merged_states(self) -> _ThreadState:
        merged = _ThreadState()
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, ns in state.stacks.items():
                merged.stacks[key] = merged.stacks.get(key, 0) + ns
            for table, into in (
                (state.counts, merged.counts),
                (state.cum, merged.cum),
                (state.self_ns, merged.self_ns),
            ):
                for name, value in table.items():
                    into[name] = into.get(name, 0) + value
        return merged

    def stats(self) -> dict[str, FrameStat]:
        """Per-frame-name aggregates, merged across threads."""
        merged = self._merged_states()
        out: dict[str, FrameStat] = {}
        for name, count in merged.counts.items():
            out[name] = FrameStat(
                name=name,
                count=count,
                cum_ns=merged.cum.get(name, 0),
                self_ns=merged.self_ns.get(name, 0),
            )
        return out

    def total_ns(self) -> int:
        """Self time summed over every stack (= total profiled time)."""
        return sum(self._merged_states().stacks.values())

    def collapsed(self) -> str:
        """Collapsed-stack lines (``a;b;c <self_ns>``), sorted, one per
        unique stack — pipe into ``flamegraph.pl`` or speedscope."""
        merged = self._merged_states()
        lines = [
            ";".join(key) + f" {ns}"
            for key, ns in sorted(merged.stacks.items())
            if ns > 0
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> dict[str, Any]:
        """A speedscope-format document of the collapsed stacks
        (``"sampled"`` profile; weights are exact self-nanoseconds)."""
        merged = self._merged_states()
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        samples: list[list[int]] = []
        weights: list[int] = []
        for key, ns in sorted(merged.stacks.items()):
            if ns <= 0:
                continue
            sample = []
            for frame_name in key:
                if frame_name not in frame_index:
                    frame_index[frame_name] = len(frames)
                    frames.append({"name": frame_name})
                sample.append(frame_index[frame_name])
            samples.append(sample)
            weights.append(ns)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
            "exporter": "repro.obs.prof",
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary: per-frame table plus totals."""
        stats = sorted(self.stats().values(),
                       key=lambda s: (-s.self_ns, s.name))
        return {
            "format": "repro-profile",
            "version": 1,
            "events_recorded": self.events_recorded,
            "total_self_ns": self.total_ns(),
            "frames": [s.to_dict() for s in stats],
        }

    def clear(self) -> None:
        """Drop every accumulated frame (open stacks survive)."""
        with self._lock:
            states = list(self._states)
        for state in states:
            state.stacks.clear()
            state.counts.clear()
            state.cum.clear()
            state.self_ns.clear()
        self.events_recorded = 0


#: The active profiler, or ``None`` (profiling off).  Hot paths read this
#: directly, exactly like :data:`repro.obs.runtime.ACTIVE`.
ACTIVE: Optional[Profiler] = None


def enable_profiler(fresh: bool = False,
                    clock_ns: Callable[[], int] = time.perf_counter_ns) -> Profiler:
    """Turn profiling on (idempotent); returns the active profiler."""
    global ACTIVE
    if ACTIVE is None or fresh:
        ACTIVE = Profiler(clock_ns=clock_ns)
    return ACTIVE


def disable_profiler() -> None:
    """Turn profiling off and drop the profiler."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def profiling(clock_ns: Callable[[], int] = time.perf_counter_ns) -> Iterator[Profiler]:
    """``with profiling() as prof:`` — a fresh profiler for the block,
    restoring whatever was active before (nesting-safe)."""
    global ACTIVE
    saved = ACTIVE
    ACTIVE = Profiler(clock_ns=clock_ns)
    try:
        yield ACTIVE
    finally:
        ACTIVE = saved
