"""Empirical-parameter extraction: gather thresholds and escalations.

The LMO model's linear-gather formula (5) carries *empirical* parameters
found "from the observations of the execution time of linear gather":
the thresholds ``M1``/``M2`` bracketing the non-deterministic escalation
region, the most frequent escalation value, and the escalation probability
as a function of message size.  The paper also suggests a "preliminary
test of the collective operations for different message sizes to identify
the regions of irregularities" before choosing estimation probe sizes —
:func:`detect_gather_irregularity` is that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.estimation.engines import DESEngine
from repro.models.lmo_extended import GatherIrregularity

__all__ = [
    "GatherSweep",
    "detect_gather_irregularity",
    "sweep_collective",
]

KB = 1024
DEFAULT_SIZES = tuple(
    int(m) for m in (1 * KB, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 24 * KB, 32 * KB,
                     48 * KB, 64 * KB, 80 * KB, 96 * KB, 128 * KB, 160 * KB, 192 * KB)
)
#: Sizes of the preliminary linear-gather sweep that model estimation
#: (the experiments' model suite and ``api.estimate``) runs before
#: :func:`detect_gather_irregularity`.
IRREGULARITY_SIZES = (2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 48 * KB, 64 * KB,
                      80 * KB, 96 * KB)


@dataclass
class GatherSweep:
    """Samples of one collective operation over a size sweep."""

    sizes: tuple[int, ...]
    samples: dict[int, list[float]]

    def medians(self) -> np.ndarray:
        return np.array([float(np.median(self.samples[m])) for m in self.sizes])

    def minima(self) -> np.ndarray:
        return np.array([float(np.min(self.samples[m])) for m in self.sizes])


def sweep_collective(
    engine: DESEngine,
    operation: str,
    algorithm: str = "linear",
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = 10,
    root: int = 0,
) -> GatherSweep:
    """Measure a collective across message sizes, ``reps`` runs per size."""
    samples: dict[int, list[float]] = {}
    for m in sizes:
        samples[int(m)] = [
            engine.collective_time(operation, algorithm, int(m), root=root)
            for _ in range(reps)
        ]
    return GatherSweep(sizes=tuple(int(m) for m in sizes), samples=samples)


def detect_gather_irregularity(
    sweep: GatherSweep,
    escalation_floor: float = 0.05,
) -> GatherIrregularity:
    """Extract ``(M1, M2, escalation value, probabilities)`` from a sweep.

    A sample *escalates* when it exceeds the size's minimum by more than
    ``escalation_floor`` seconds (escalations are order-of-0.2 s TCP RTOs,
    two orders above normal run-to-run noise).  ``M1`` is the largest
    *clean* size below the first escalating one — the paper's "messages
    less than M1" are safe, which is exactly the contract the splitting
    optimization relies on.  ``M2`` is the smallest size after the last
    escalating one.
    """
    escalating: list[int] = []
    excesses: list[float] = []
    probs: dict[int, float] = {}
    for m in sweep.sizes:
        samples = np.asarray(sweep.samples[m])
        base = samples.min()
        mask = samples - base > escalation_floor
        probs[m] = float(mask.mean())
        if mask.any():
            escalating.append(m)
            excesses.extend((samples[mask] - base).tolist())
    if not escalating:
        raise ValueError(
            "no escalations observed in the sweep; widen the size range or "
            "increase repetitions"
        )
    clean_below = [m for m in sweep.sizes if m < escalating[0]]
    m1 = float(clean_below[-1]) if clean_below else float(escalating[0]) / 2.0
    last = escalating[-1]
    after = [m for m in sweep.sizes if m > last]
    m2 = float(after[0]) if after else float(last) * 1.5
    return GatherIrregularity(
        m1=m1,
        m2=m2,
        escalation_value=float(np.median(excesses)),
        p_at_m1=probs[escalating[0]],
        p_at_m2=max(probs[m] for m in escalating),
    )
