"""Estimation of the extended LMO parameters (paper Sec. IV, eqs. 6-12).

The point-to-point experiments alone cannot separate the processor
constant ``C_i`` from the network constant ``L_ij`` (only their sum is
observable in a roundtrip), so the procedure adds *one-to-two* collective
experiments between triplets of processors:

1. measure roundtrips ``T_ij(0)`` and ``T_ij(M)`` for all pairs;
2. measure one-to-two exchanges ``T_ijk(0)`` and ``T_ijk(M)`` for all
   rooted triplets (empty replies, medium ``M`` chosen outside the
   irregularity regions);
3. per triplet, solve the closed-form systems:

   * eq. (8):  ``C_i = (T_ijk(0) - max_x T_ix(0)) / 2``,
     ``L_ij = T_ij(0)/2 - C_i - C_j``;
   * eq. (11): ``t_i = (T_ijk(M) - max_x (T_ix(0)+T_ix(M))/2 - 2 C_i)/M``,
     ``1/beta_ij = (T_ij(M)/2 - C_i - L_ij - C_j)/M - t_i - t_j``;

4. average the redundant per-triplet values (eq. 12): each ``C_i``/``t_i``
   comes from ``C(n-1, 2)`` triplets, each ``L_ij``/``beta_ij`` from
   ``n-2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.estimation.engines import ExperimentEngine
from repro.estimation.experiments import Experiment, one_to_two, roundtrip
from repro.estimation.scheduling import run_schedule
from repro.models.lmo_extended import ExtendedLMOModel

__all__ = [
    "LMOEstimationResult",
    "TripletSolve",
    "assemble_model",
    "build_experiment_set",
    "build_schedule",
    "collect_parameter_samples",
    "estimate_extended_lmo",
    "solve_triplet",
    "star_triplets",
]

KB = 1024

#: Default probe size: medium, i.e. comfortably below typical eager
#: thresholds and incast regions (the paper: "we send the messages of
#: medium size to avoid a possible leap in the execution time of scatter
#: ... and receive empty replies to eliminate the escalations").
DEFAULT_PROBE_NBYTES = 32 * KB


@dataclass
class LMOEstimationResult:
    """Estimated model plus per-triplet raw values and cost accounting."""

    model: ExtendedLMOModel
    probe_nbytes: int
    estimation_time: float
    #: Per-parameter sample lists (for statistical inspection / tests).
    c_samples: dict[int, list[float]] = field(default_factory=dict)
    t_samples: dict[int, list[float]] = field(default_factory=dict)
    l_samples: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    beta_samples: dict[tuple[int, int], list[float]] = field(default_factory=dict)

    def parameter_spread(self) -> dict[str, float]:
        """Max relative std-dev across redundant samples, per parameter."""

        def spread(sample_map) -> float:
            worst = 0.0
            for values in sample_map.values():
                arr = np.asarray(values)
                if arr.size > 1 and abs(arr.mean()) > 0:
                    worst = max(worst, float(arr.std() / abs(arr.mean())))
            return worst

        return {
            "C": spread(self.c_samples),
            "t": spread(self.t_samples),
            "L": spread(self.l_samples),
            "beta": spread(self.beta_samples),
        }


def star_triplets(n: int, center: int = 0) -> list[tuple[int, int, int]]:
    """The ``C(n-1, 2)`` triplets containing ``center``.

    A reduced design that still covers *every* pair (each pair ``(i, j)``
    appears inside the triplet ``(center, i, j)``) and every node, at
    roughly ``3/(n-2)`` of the full experiment count — the kind of
    redundancy-aware reduction Sec. IV anticipates.
    """
    if not (0 <= center < n):
        raise ValueError(f"center {center} out of range")
    others = [x for x in range(n) if x != center]
    return [tuple(sorted((center, a, b))) for a, b in combinations(others, 2)]


def _rooted_triplets(n: int, triplets: Optional[Sequence[tuple[int, int, int]]]):
    """All (root, a, b) one-to-two configurations to measure.

    Base triplets are normalized to sorted node order (the solve and the
    experiment keys both assume it), and peers are sorted within each
    rooted configuration.
    """
    if triplets is None:
        base = list(combinations(range(n), 3))
    else:
        base = sorted({tuple(sorted(triple)) for triple in triplets})
        if any(len(set(triple)) != 3 for triple in base):
            raise ValueError("triplets must contain three distinct nodes each")
    rooted: list[tuple[int, int, int]] = []
    for i, j, k in base:
        rooted.extend([(i, j, k), (j, i, k), (k, i, j)])
    return base, rooted


@dataclass(frozen=True)
class TripletSolve:
    """The closed-form solution of eqs. (8)/(11) for one unordered triplet.

    Keeping per-triplet solutions as records (instead of flattening them
    straight into sample lists) is what lets the robust estimation path
    (:mod:`repro.estimation.robust`) judge whole triplets — a single
    escalation-contaminated measurement poisons *every* parameter its
    triplet produces, so rejection must happen at triplet granularity.
    """

    nodes: tuple[int, int, int]
    C: dict[int, float]
    t: dict[int, float]
    L: dict[tuple[int, int], float]
    inv_beta: dict[tuple[int, int], float]

    def is_physical(self, tol: float = 0.0) -> bool:
        """True when every solved value lies in its physical range.

        ``tol`` absorbs measurement noise: delays may dip ``tol`` below
        zero before the solve counts as unphysical; inverse rates must be
        strictly positive regardless (a non-positive ``1/beta`` has no
        noise interpretation at medium probe sizes).
        """
        delays = (*self.C.values(), *self.t.values(), *self.L.values())
        if any(value < -tol for value in delays):
            return False
        return all(value > 0 for value in self.inv_beta.values())


def build_experiment_set(
    pairs: Sequence[tuple[int, int]],
    rooted: Sequence[tuple[int, int, int]],
    probe_nbytes: int,
) -> list[Experiment]:
    """The full measurement set: empty + probe-sized roundtrips and
    one-to-twos (the paper's ``2 C(n,2) + 2 * 3 C(n,3)`` experiments)."""
    experiments: list[Experiment] = []
    for i, j in pairs:
        experiments.append(roundtrip(i, j, 0))
        experiments.append(roundtrip(i, j, probe_nbytes))
    for root, a, b in rooted:
        experiments.append(one_to_two(root, a, b, 0, 0))
        experiments.append(one_to_two(root, a, b, probe_nbytes, 0))
    return experiments


def build_schedule(
    n: int, probe_nbytes: int, triplets: Optional[Sequence[tuple[int, int, int]]] = None
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], list[Experiment]]:
    """``(pairs, base_triplets, experiments)`` of an estimation on ``n``
    nodes: the triplets to solve (default: all ``C(n,3)``), the pairs they
    cover, and the measurement set.  Every node must be covered."""
    if n < 3:
        raise ValueError("LMO estimation needs at least 3 processors")
    if probe_nbytes <= 0:
        raise ValueError("probe_nbytes must be positive")
    base_triplets, rooted = _rooted_triplets(n, triplets)
    covered = {node for triple in base_triplets for node in triple}
    if covered != set(range(n)):
        raise ValueError(f"triplets leave nodes {sorted(set(range(n)) - covered)} unmeasured")
    pairs = sorted({pair for triple in base_triplets for pair in combinations(triple, 2)})
    return pairs, base_triplets, build_experiment_set(pairs, rooted, probe_nbytes)


def solve_triplet(
    measured: Mapping[Experiment, float],
    triple: tuple[int, int, int],
    probe_nbytes: int,
) -> TripletSolve:
    """Solve eqs. (8) and (11) on one triplet's measurements."""
    i, j, k = triple
    M = float(probe_nbytes)

    def rt(a: int, b: int, nbytes: int) -> float:
        key = (min(a, b), max(a, b))
        return measured[roundtrip(key[0], key[1], nbytes)]

    def ott(root: int, a: int, b: int, nbytes: int) -> float:
        lo, hi = min(a, b), max(a, b)
        return measured[one_to_two(root, lo, hi, nbytes, 0)]

    C = {}
    for root, a, b in ((i, j, k), (j, i, k), (k, i, j)):
        C[root] = (ott(root, a, b, 0) - max(rt(root, a, 0), rt(root, b, 0))) / 2.0
    L = {
        (i, j): rt(i, j, 0) / 2.0 - C[i] - C[j],
        (j, k): rt(j, k, 0) / 2.0 - C[j] - C[k],
        (i, k): rt(i, k, 0) / 2.0 - C[i] - C[k],
    }
    t = {}
    for root, a, b in ((i, j, k), (j, i, k), (k, i, j)):
        best = max(
            (rt(root, a, 0) + rt(root, a, probe_nbytes)) / 2.0,
            (rt(root, b, 0) + rt(root, b, probe_nbytes)) / 2.0,
        )
        t[root] = (ott(root, a, b, probe_nbytes) - best - 2.0 * C[root]) / M
    inv_beta = {
        pair: (rt(*pair, probe_nbytes) / 2.0 - C[pair[0]] - L[pair] - C[pair[1]]) / M
        - t[pair[0]]
        - t[pair[1]]
        for pair in ((i, j), (j, k), (i, k))
    }
    return TripletSolve(nodes=(i, j, k), C=C, t=t, L=L, inv_beta=inv_beta)


def collect_parameter_samples(
    solves: Sequence[TripletSolve],
    n: int,
    pairs: Sequence[tuple[int, int]],
):
    """Flatten triplet solves into per-parameter sample lists (eq. 12 input)."""
    c_samples: dict[int, list[float]] = {i: [] for i in range(n)}
    t_samples: dict[int, list[float]] = {i: [] for i in range(n)}
    l_samples: dict[tuple[int, int], list[float]] = {tuple(p): [] for p in pairs}
    beta_samples: dict[tuple[int, int], list[float]] = {tuple(p): [] for p in pairs}
    for solve in solves:
        for node, value in solve.C.items():
            c_samples[node].append(value)
        for node, value in solve.t.items():
            t_samples[node].append(value)
        for pair, value in solve.L.items():
            l_samples[pair].append(value)
        for pair, value in solve.inv_beta.items():
            beta_samples[pair].append(1.0 / value if value > 0 else np.inf)
    return c_samples, t_samples, l_samples, beta_samples


def _default_reduce(values: Sequence[float]) -> float:
    return float(np.mean(values))


def assemble_model(
    n: int,
    c_samples: dict[int, list[float]],
    t_samples: dict[int, list[float]],
    l_samples: dict[tuple[int, int], list[float]],
    beta_samples: dict[tuple[int, int], list[float]],
    clamp: bool = False,
    reduce: Callable[[Sequence[float]], float] = _default_reduce,
) -> ExtendedLMOModel:
    """Average redundant samples (eq. 12) into an :class:`ExtendedLMOModel`.

    ``reduce`` collapses each parameter's redundant sample list to one
    value — plain mean by default, an outlier-screened robust location in
    the hardened path.  Non-finite rate samples are dropped before
    reduction (an unphysical triplet contributes ``inf`` for its rates).
    """
    C_est = np.array([reduce(c_samples[i]) if c_samples[i] else 0.0 for i in range(n)])
    t_est = np.array([reduce(t_samples[i]) if t_samples[i] else 0.0 for i in range(n)])
    L_est = np.zeros((n, n))
    beta_est = np.full((n, n), np.inf)
    for (a, b), values in l_samples.items():
        if values:
            L_est[a, b] = L_est[b, a] = reduce(values)
    for (a, b), values in beta_samples.items():
        finite = [v for v in values if np.isfinite(v)]
        rate = reduce(finite) if finite else np.inf
        beta_est[a, b] = beta_est[b, a] = rate

    # Sparse designs may leave some pairs unmeasured.  On a single-switch
    # cluster the link parameters are near-uniform (one store-and-forward
    # hop, identical NICs), so complete the matrices with the measured
    # means rather than silently leaving L=0 / beta=inf — this is what
    # lets the LMO model generalize to links it never probed, which no
    # per-pair (Hockney-style) model can do.
    off = ~np.eye(n, dtype=bool)
    measured_mask = np.zeros((n, n), dtype=bool)
    for a, b in l_samples:
        if l_samples[a, b]:
            measured_mask[a, b] = measured_mask[b, a] = True
    unmeasured = off & ~measured_mask
    if unmeasured.any():
        link_means = [reduce(v) for v in l_samples.values() if v]
        if link_means:
            L_est[unmeasured] = float(np.mean(link_means))
        finite_rates = [
            reduce([x for x in v if np.isfinite(x)])
            for v in beta_samples.values()
            if any(np.isfinite(x) for x in v)
        ]
        if finite_rates:
            beta_est[unmeasured] = float(np.mean(finite_rates))

    if clamp:
        C_est = np.maximum(C_est, 0.0)
        t_est = np.maximum(t_est, 0.0)
        L_est = np.maximum(L_est, 0.0)
        np.fill_diagonal(L_est, 0.0)
        beta_est = np.where(beta_est <= 0, np.inf, beta_est)

    return ExtendedLMOModel(C=C_est, t=t_est, L=L_est, beta=beta_est)


def estimate_extended_lmo(
    engine: ExperimentEngine,
    probe_nbytes: int = DEFAULT_PROBE_NBYTES,
    reps: int = 5,
    parallel: bool = True,
    triplets: Optional[Sequence[tuple[int, int, int]]] = None,
    clamp: bool = False,
) -> LMOEstimationResult:
    """Run the full experiment set and solve for the LMO parameters.

    Parameters
    ----------
    engine:
        Measurement source (DES cluster or analytic oracle).
    probe_nbytes:
        The medium message size ``M`` of the non-empty experiments.
    reps:
        Measurement repetitions averaged per experiment (the paper: short
        series suffice, "typically up to ten", because the parameters are
        averaged again across triplets).
    parallel:
        Pack node-disjoint experiments into concurrent rounds (Sec. IV's
        estimation-cost optimization).
    triplets:
        Subset of unordered triplets to use (default: all ``C(n,3)``).
        Every node must appear in at least one triplet.
    clamp:
        Clamp estimates to physical ranges (non-negative delays, positive
        rates).  Off by default so exactness tests see raw solutions.
    """
    n = engine.n
    pairs, base_triplets, experiments = build_schedule(n, probe_nbytes, triplets)

    # -- measure -------------------------------------------------------------
    t_start = engine.estimation_time
    measured = run_schedule(engine, experiments, parallel=parallel, reps=reps)
    cost = engine.estimation_time - t_start

    # -- solve per triplet (eqs. 8 and 11), average (eq. 12) ------------------
    solves = [solve_triplet(measured, triple, probe_nbytes) for triple in base_triplets]
    c_samples, t_samples, l_samples, beta_samples = collect_parameter_samples(
        solves, n, pairs
    )
    model = assemble_model(
        n, c_samples, t_samples, l_samples, beta_samples, clamp=clamp
    )
    return LMOEstimationResult(
        model=model,
        probe_nbytes=probe_nbytes,
        estimation_time=cost,
        c_samples=c_samples,
        t_samples=t_samples,
        l_samples=l_samples,
        beta_samples=beta_samples,
    )
