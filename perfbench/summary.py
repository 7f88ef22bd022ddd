"""Order statistics used by the benchmark's reports.

Timings are reported as a median plus the highest tail percentile that has
at least ``MIN_BEYOND`` samples beyond it, always with the sample count, so
a "p99" never silently stands for the maximum of a short run.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: The tail percentiles a latency summary may carry, in increasing order.
TAILS = (90, 99)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_reportable(count: int, pct: int) -> bool:
    """True when ``count`` samples leave at least ``MIN_BEYOND`` beyond ``pct``."""
    return count * (100 - pct) >= MIN_BEYOND * 100


def latency_summary(samples: Sequence[float]) -> dict[str, float]:
    """``{"count", "p50", "p90"?, "p99"?}``; tails only where reportable."""
    out: dict[str, float] = {"count": len(samples)}
    if not samples:
        return out
    out["p50"] = percentile(samples, 50)
    for pct in TAILS:
        if tail_reportable(len(samples), pct):
            out[f"p{pct}"] = percentile(samples, pct)
    return out

