"""PLogP parameter estimation with adaptive message-size refinement.

PLogP's parameters are piecewise-linear *functions* of the message size,
so its estimation is the most expensive of all models (paper Sec. II).
Message sizes are selected adaptively: starting from a geometric grid, if
the measured ``g(M_k)`` is inconsistent with the value linearly
extrapolated from ``g(M_{k-2})`` and ``g(M_{k-1})``, an extra measurement
is inserted at the midpoint ``(M_k + M_{k-1})/2`` — exactly the paper's
description of the procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.estimation.engines import ExperimentEngine  # noqa: F401 (used in signatures)
from repro.estimation.experiments import overhead_recv, overhead_send, roundtrip, saturation
from repro.estimation.logp_est import TRAIN_COUNT
from repro.models.plogp import PiecewiseLinear, PLogPModel

__all__ = [
    "PLogPEstimationResult",
    "adaptive_sizes",
    "estimate_plogp",
]

KB = 1024
DEFAULT_GRID = (0, 1 * KB, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB, 128 * KB)


@dataclass
class PLogPEstimationResult:
    """Estimated PLogP model with the refined size grid."""

    model: PLogPModel
    sizes: tuple[int, ...]
    refinements: int
    estimation_time: float


def adaptive_sizes(
    measure: Callable[[int], float],
    grid: tuple[int, ...] = DEFAULT_GRID,
    tolerance: float = 0.25,
    max_refinements: int = 16,
) -> tuple[dict[int, float], int]:
    """Measure ``measure(M)`` on a grid, inserting midpoints adaptively.

    A midpoint between ``M_{k-1}`` and ``M_k`` is inserted whenever the
    measured value at ``M_k`` deviates from the linear extrapolation of
    the previous two grid points by more than ``tolerance`` (relative).
    Returns the measured map and the number of refinements performed.
    """
    sizes = sorted(set(int(m) for m in grid))
    if len(sizes) < 3:
        raise ValueError("need at least 3 grid sizes")
    values: dict[int, float] = {m: measure(m) for m in sizes}
    refinements = 0
    k = 2
    while k < len(sizes) and refinements < max_refinements:
        m0, m1, m2 = sizes[k - 2], sizes[k - 1], sizes[k]
        extrapolated = values[m1] + (values[m1] - values[m0]) * (m2 - m1) / max(m1 - m0, 1)
        actual = values[m2]
        scale = max(abs(actual), abs(extrapolated), 1e-12)
        mid = (m1 + m2) // 2
        if abs(actual - extrapolated) / scale > tolerance and mid not in values and mid > m1:
            values[mid] = measure(mid)
            sizes.insert(k, mid)
            refinements += 1
            # Re-examine from the inserted point onward.
            continue
        k += 1
    return values, refinements


def estimate_plogp(
    engine: ExperimentEngine,
    pair: tuple[int, int] = (0, 1),
    grid: tuple[int, ...] = DEFAULT_GRID,
    reps: int = 3,
    tolerance: float = 0.25,
) -> PLogPEstimationResult:
    """Estimate the PLogP functions on one pair (homogeneous model).

    For heterogeneous use, the paper notes the overheads could be averaged
    per processor but ``L``/``g`` cannot be split meaningfully — "it is
    not trivial and straightforward to extend the LogP-based models" — so,
    like the original software, we estimate on representative pairs and
    average externally if desired.
    """
    i, j = pair
    t_start = engine.estimation_time

    def mean_run(make_experiment, m: int) -> float:
        return float(np.mean([engine.run(make_experiment(m)) for _ in range(reps)]))

    gap_values, refinements = adaptive_sizes(
        lambda m: mean_run(lambda mm: saturation(i, j, mm, TRAIN_COUNT), m) / TRAIN_COUNT,
        grid=grid,
        tolerance=tolerance,
    )
    sizes = tuple(sorted(gap_values))
    os_values = {m: mean_run(lambda mm: overhead_send(i, j, mm), m) for m in sizes}
    or_values = {m: mean_run(lambda mm: overhead_recv(i, j, mm), m) for m in sizes}

    # Latency from a small-message roundtrip: L = RTT/2 - o_s - o_r.
    probe = next(m for m in sizes if m > 0)
    rtt = mean_run(lambda mm: roundtrip(i, j, mm), probe)
    latency = max(rtt / 2.0 - os_values[probe] - or_values[probe], 0.0)

    model = PLogPModel(
        L=latency,
        o_s=PiecewiseLinear.from_samples(list(os_values.items())),
        o_r=PiecewiseLinear.from_samples(list(or_values.items())),
        g=PiecewiseLinear.from_samples(list(gap_values.items())),
        P=engine.n,
    )
    return PLogPEstimationResult(
        model=model,
        sizes=sizes,
        refinements=refinements,
        estimation_time=engine.estimation_time - t_start,
    )
