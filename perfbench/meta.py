"""Run metadata for diagnosing noise, and the science digest.

Nothing here is gated: it is printed beside the metrics so that a reader
can tell a slow host (reference loop, steal, load) from a slow program,
and a changed random stream (digest) from an unchanged one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from typing import Any, Iterator, Optional


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def cpu_sample() -> dict[str, float]:
    """Load average and cumulative steal/total jiffies from ``/proc``."""
    sample: dict[str, float] = {}
    try:
        with open("/proc/loadavg") as handle:
            sample["loadavg_1m"] = float(handle.read().split()[0])
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
        sample["jiffies"] = float(sum(fields))
        sample["steal_jiffies"] = float(fields[7]) if len(fields) > 7 else 0.0
    except (OSError, ValueError, IndexError):
        pass
    return sample


def steal_share(before: dict[str, float], after: dict[str, float]) -> float:
    """Share of CPU time stolen by the hypervisor between two samples."""
    total = after.get("jiffies", 0.0) - before.get("jiffies", 0.0)
    steal = after.get("steal_jiffies", 0.0) - before.get("steal_jiffies", 0.0)
    return steal / total if total > 0 else 0.0


def reference_loop(repeats: int = 5, iterations: int = 300_000) -> float:
    """Median seconds of a fixed pure-Python loop: the host's current speed."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def host_info() -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": sys.platform,
    }


def digest(value: Any) -> str:
    """A short stable hash of a JSON-able value (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SpanLog:
    """Spans around the benchmark's calls into each layer, kept in memory.

    Each span has a name, start and end on the shared monotonic clock
    (``time.perf_counter``), the index of the span that caused it, and
    attributes.  The log is written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        index = self.add(name, time.perf_counter(), None, **attrs)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: Optional[float], **attrs: Any) -> int:
        """Record a span measured elsewhere (e.g. by a child process)."""
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "attrs": attrs})
        return len(self.spans) - 1
