"""Hockney parameter estimation (paper Sec. II), roundtrip design.

Empty roundtrips give the latency ``alpha_ij = T_ij(0) / 2``; non-empty
ones give the per-byte time ``beta_ij = (T_ij(M)/2 - alpha_ij) / M``.
The homogeneous model averages the per-pair values
(``result.model.averaged()``).  Experiments over disjoint pairs run in
parallel — this estimator is the subject of the paper's 16 s -> 5 s cost
claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.estimation.engines import ExperimentEngine
from repro.estimation.experiments import Experiment, roundtrip
from repro.estimation.scheduling import run_schedule
from repro.models.hockney import HeterogeneousHockneyModel

__all__ = ["HockneyEstimationResult", "estimate_heterogeneous_hockney"]

KB = 1024
DEFAULT_PROBE_NBYTES = 32 * KB


@dataclass
class HockneyEstimationResult:
    """Estimated heterogeneous Hockney model plus cost accounting."""

    model: HeterogeneousHockneyModel
    probe_nbytes: int
    estimation_time: float


def estimate_heterogeneous_hockney(
    engine: ExperimentEngine,
    probe_nbytes: int = DEFAULT_PROBE_NBYTES,
    reps: int = 5,
    parallel: bool = True,
) -> HockneyEstimationResult:
    """Estimate per-pair ``alpha_ij``/``beta_ij`` from roundtrips."""
    n = engine.n
    if probe_nbytes <= 0:
        raise ValueError("probe_nbytes must be positive")
    experiments: list[Experiment] = []
    for i, j in combinations(range(n), 2):
        experiments.append(roundtrip(i, j, 0))
        experiments.append(roundtrip(i, j, probe_nbytes))
    t_start = engine.estimation_time
    measured = run_schedule(engine, experiments, parallel=parallel, reps=reps)
    cost = engine.estimation_time - t_start

    alpha = np.zeros((n, n))
    beta = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        a = measured[roundtrip(i, j, 0)] / 2.0
        b = (measured[roundtrip(i, j, probe_nbytes)] / 2.0 - a) / probe_nbytes
        alpha[i, j] = alpha[j, i] = a
        beta[i, j] = beta[j, i] = max(b, 0.0)
    return HockneyEstimationResult(
        model=HeterogeneousHockneyModel(alpha=alpha, beta=beta),
        probe_nbytes=probe_nbytes,
        estimation_time=cost,
    )
