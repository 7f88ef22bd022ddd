"""Hardened LMO estimation: timeouts, retries, outlier and triplet rejection.

The plain estimation path (:func:`~repro.estimation.lmo_est.estimate_extended_lmo`)
assumes a well-behaved cluster.  Real clusters are not: the paper's own
measurements show non-deterministic TCP RTO escalations up to 0.25 s —
two orders of magnitude above a medium roundtrip — and hardware degrades
*while* being measured.  One contaminated sample poisons every parameter
of every triplet it touches, and eq. (12)'s plain averaging spreads the
damage across the whole model.  This module closes the gaps end-to-end:

1. **Per-experiment sim-time timeout with bounded retry/backoff**
   (:func:`run_schedule_robust`): a repetition slower than the timeout is
   discarded and re-measured with a geometrically growing budget, so
   transient escalations are rejected while genuine persistent slowness
   (a degraded node) is eventually accepted.  Hangs that starve the
   simulation (``DeadlockError``) are survived, not propagated.
2. **Per-sample outlier screening**: within each experiment's repetitions
   the MAD rule (:func:`repro.stats.mad_outlier_mask`) drops jitter
   spikes before aggregation.
3. **RANSAC-style triplet rejection** (:func:`estimate_extended_lmo_robust`):
   per-triplet solves whose values leave the physical range are rejected
   before the eq. (12) averaging, and the surviving redundant samples are
   screened again with the MAD rule.
4. **Graceful degradation**: nodes implicated in a majority of rejected
   triplets are quarantined, the model is re-solved from the healthy
   subset, and the result reports exactly what was dropped — instead of
   returning garbage with a straight face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.estimation.engines import ExperimentEngine
from repro.estimation.experiments import Experiment
from repro.estimation.lmo_est import (
    DEFAULT_PROBE_NBYTES,
    assemble_model,
    build_schedule,
    collect_parameter_samples,
    solve_triplet,
)
from repro.estimation.scheduling import _grouped_rounds
from repro.mpi.runtime import DeadlockError
from repro.obs import runtime as _obs
from repro.stats.ci import mad_outlier_mask

__all__ = [
    "EstimationFailure",
    "RetryPolicy",
    "RobustAssembly",
    "RobustLMOResult",
    "RobustRunStats",
    "estimate_extended_lmo_robust",
    "run_schedule_robust",
    "screened_mean",
    "solve_and_assemble",
]


class EstimationFailure(RuntimeError):
    """Raised when an experiment yields no sample within the retry budget."""


# -- input validation (mirrors the validate_nbytes discipline) ------------------
def _check_int(name: str, value: Any, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_finite(name: str, value: Any) -> None:
    """A real number that is not NaN or infinite (bools are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive_finite(name: str, value: Any) -> None:
    _check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry discipline for one measurement repetition.

    The default timeout (50 ms of simulated time) sits two orders of
    magnitude above a medium roundtrip on the Table I cluster but well
    below a TCP RTO escalation (~0.2-0.25 s), so escalated repetitions
    are rejected while even a 4x-degraded node still passes.  Each retry
    multiplies the budget by ``backoff``: persistent slowness (the thing
    drift detection must *see*) is accepted after a couple of retries;
    only transient contamination is filtered out.

    This is a simulated-time budget that widens an acceptance threshold;
    the wall-clock delay between reconnects or restarts is
    :class:`repro.serve.client.RetryPolicy`.
    """

    timeout: float = 0.05
    max_retries: int = 4
    backoff: float = 2.0
    mad_threshold: float = 5.0

    def __post_init__(self) -> None:
        _check_positive_finite("timeout", self.timeout)
        _check_int("max_retries", self.max_retries, 0)
        _check_finite("backoff", self.backoff)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff!r}")
        _check_positive_finite("mad_threshold", self.mad_threshold)


@dataclass
class RobustRunStats:
    """What the robust schedule runner had to do to get clean numbers."""

    timeouts: int = 0
    retries: int = 0
    deadlocks: int = 0
    dropped_outliers: int = 0
    #: Experiments that never produced a within-timeout sample; their
    #: least-contaminated observation was used instead.
    degraded: list[Experiment] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"timeouts: {self.timeouts}, retries: {self.retries}, "
            f"deadlocks: {self.deadlocks}, "
            f"outlier samples dropped: {self.dropped_outliers}, "
            f"degraded experiments: {len(self.degraded)}"
        )


def _screen(values: Sequence[float], mad_threshold: float) -> tuple[float, int]:
    """``(mean of the MAD-rule inliers, samples dropped)``; fewer than three
    samples are too few to screen."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot reduce an empty sample list")
    if arr.size < 3:
        return float(arr.mean()), 0
    mask = mad_outlier_mask(arr, threshold=mad_threshold)
    inliers = arr[~mask]
    mean = float(inliers.mean()) if inliers.size else float(np.median(arr))
    return mean, int(mask.sum())


def screened_mean(values: Sequence[float], mad_threshold: float = 5.0) -> float:
    """Mean of the MAD-rule inliers (plain mean if everything is inlier)."""
    return _screen(values, mad_threshold)[0]


@dataclass
class _Tally:
    """One experiment's repetitions: what was accepted, what was rejected."""

    samples: list[float] = field(default_factory=list)
    #: Durations over their budget (the fallback when nothing is accepted).
    contaminated: list[float] = field(default_factory=list)
    attempts: int = 0
    timeouts: int = 0
    deadlocks: int = 0


def _measure(
    engine: ExperimentEngine, exp: Experiment, policy: RetryPolicy,
    reps: int = 0, tally: Optional[_Tally] = None,
) -> _Tally:
    """``reps`` attempts within ``policy.timeout``, then, while no sample
    is accepted, up to ``policy.max_retries`` retries with the budget
    multiplied by ``policy.backoff`` each time.  Deadlocks are counted
    and survived; ``tally`` carries what an earlier batched phase took."""
    tally = tally if tally is not None else _Tally()
    budget = policy.timeout
    for attempt in range(reps + policy.max_retries):
        if attempt >= reps:
            if tally.samples:
                break
            budget *= policy.backoff
        tally.attempts += 1
        try:
            duration = float(engine.run(exp))
        except DeadlockError:
            tally.deadlocks += 1
            continue
        if duration <= budget:
            tally.samples.append(duration)
        else:
            tally.timeouts += 1
            tally.contaminated.append(duration)
    return tally


def run_schedule_robust(
    engine: ExperimentEngine,
    experiments: Sequence[Experiment],
    reps: int = 3,
    policy: Optional[RetryPolicy] = None,
    parallel: bool = True,
) -> tuple[dict[Experiment, float], RobustRunStats]:
    """Execute experiments with timeouts, bounded retries and screening.

    Repetitions above ``policy.timeout`` are discarded; each experiment
    short of ``reps`` clean samples is re-measured serially up to
    ``policy.max_retries`` times with a ``policy.backoff``-growing budget.
    A round (or retry) that deadlocks the simulation is counted and
    survived.  Surviving samples are MAD-screened per experiment and the
    inlier mean is reported.

    Returns ``(results, stats)``.  An experiment that produced *no*
    within-budget sample falls back to its fastest contaminated
    observation and is listed in ``stats.degraded``; if even that does
    not exist, :class:`EstimationFailure` is raised — the caller gets a
    hard error, never silence or garbage.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    policy = policy if policy is not None else RetryPolicy()
    stats = RobustRunStats()
    tallies = {exp: _Tally() for exp in experiments}

    rounds = _grouped_rounds(experiments) if parallel else [[exp] for exp in experiments]
    for round_exps in rounds:
        for _rep in range(reps):
            try:
                durations = engine.run_batch(list(round_exps))
            except DeadlockError:
                # One stuck rank poisons the whole batch; the per-
                # experiment retry phase below recovers the survivors.
                stats.deadlocks += 1
                continue
            for exp, duration in zip(round_exps, durations):
                if duration <= policy.timeout:
                    tallies[exp].samples.append(duration)
                else:
                    stats.timeouts += 1
                    tallies[exp].contaminated.append(duration)

    results: dict[Experiment, float] = {}
    for exp, tally in tallies.items():
        _measure(engine, exp, policy, tally=tally)
        stats.retries += tally.attempts
        stats.timeouts += tally.timeouts
        stats.deadlocks += tally.deadlocks
        if not tally.samples:
            if not tally.contaminated:
                raise EstimationFailure(
                    f"{exp.kind} on nodes {exp.nodes}: no sample within "
                    f"{policy.max_retries} retries (every attempt deadlocked)"
                )
            # Graceful degradation: keep the least-contaminated value and
            # report it, rather than dropping the experiment silently.
            tally.samples.append(min(tally.contaminated))
            stats.degraded.append(exp)
        results[exp], dropped = _screen(tally.samples, policy.mad_threshold)
        stats.dropped_outliers += dropped
    tel = _obs.ACTIVE
    if tel is not None:
        # One flush per schedule run — the hot measurement loop stays clean.
        for reason, count in (
            ("timeout", stats.timeouts),
            ("retry", stats.retries),
            ("deadlock", stats.deadlocks),
            ("mad_rejection", stats.dropped_outliers),
            ("degraded", len(stats.degraded)),
        ):
            if count:
                tel.registry.counter(
                    "robust_samples_total",
                    help="robust-runner interventions by reason",
                    reason=reason,
                ).inc(count)
    return results, stats


@dataclass
class RobustAssembly:
    """The solve/reject/quarantine/average stage's outcome, measurement-free.

    :func:`solve_and_assemble` is the back half of
    :func:`estimate_extended_lmo_robust`, split out so callers that
    already *have* measurements — the durable campaign runner replaying
    its journal — reuse the identical physicality rejection, quarantine
    and screened averaging instead of re-implementing eq. (12).
    """

    model: "object"
    rejected_triplets: list[tuple[int, int, int]]
    total_triplets: int
    quarantined: list[int]
    fallback_nodes: list[int]


def solve_and_assemble(
    measured,
    n: int,
    base_triplets: Sequence[tuple[int, int, int]],
    pairs: Sequence[tuple[int, int]],
    probe_nbytes: int,
    mad_threshold: float = 5.0,
    physical_tol: float = 5e-5,
    quarantine_fraction: float = 0.5,
    extra_quarantined: Sequence[int] = (),
) -> RobustAssembly:
    """Solve eqs. (8)/(11) per triplet, reject, quarantine, average (eq. 12).

    ``measured`` maps every experiment of ``base_triplets``'s pairs and
    rooted configurations to its aggregated duration.  ``pairs`` may be a
    superset of the measured pairs (a campaign with open breakers leaves
    links unmeasured); missing links are completed with measured means by
    :func:`assemble_model`.  ``extra_quarantined`` adds nodes condemned
    by an outer mechanism (campaign circuit breakers) to the quarantine
    set before the healthy averaging.
    """
    solves = [solve_triplet(measured, triple, probe_nbytes) for triple in base_triplets]
    physical = [s for s in solves if s.is_physical(tol=physical_tol)]
    rejected = [s.nodes for s in solves if not s.is_physical(tol=physical_tol)]

    # -- quarantine: who keeps showing up in the wreckage? --------------------
    triplet_count: dict[int, int] = {i: 0 for i in range(n)}
    bad_count: dict[int, int] = {i: 0 for i in range(n)}
    for solve in solves:
        for node in solve.nodes:
            triplet_count[node] += 1
    for nodes in rejected:
        for node in nodes:
            bad_count[node] += 1
    quarantined = sorted(
        set(extra_quarantined)
        | {
            node
            for node in range(n)
            if triplet_count[node] > 0
            and bad_count[node] / triplet_count[node] > quarantine_fraction
        }
    )

    healthy = [
        s for s in physical if not (set(s.nodes) & set(quarantined))
    ]
    if not healthy:
        # Everything implicated: fall back to the physical solves, or to
        # all solves as the last resort — clamping keeps the result legal.
        healthy = physical if physical else solves

    reduce = lambda values: screened_mean(values, mad_threshold)  # noqa: E731
    c_samples, t_samples, l_samples, beta_samples = collect_parameter_samples(
        healthy, n, pairs
    )

    # -- recover parameters the healthy subset cannot see ---------------------
    fallback_nodes: list[int] = []
    for source in (physical, solves):
        missing_nodes = [i for i in range(n) if not c_samples[i]]
        missing_pairs = [p for p in pairs if not l_samples[p]]
        if not missing_nodes and not missing_pairs:
            break
        extra_c, extra_t, extra_l, extra_b = collect_parameter_samples(
            source, n, pairs
        )
        for node in missing_nodes:
            if extra_c[node]:
                c_samples[node] = extra_c[node]
                t_samples[node] = extra_t[node]
                if node not in fallback_nodes:
                    fallback_nodes.append(node)
        for pair in missing_pairs:
            if extra_l[pair]:
                l_samples[pair] = extra_l[pair]
                beta_samples[pair] = extra_b[pair]

    model = assemble_model(
        n, c_samples, t_samples, l_samples, beta_samples, clamp=True, reduce=reduce
    )
    return RobustAssembly(
        model=model,
        rejected_triplets=rejected,
        total_triplets=len(solves),
        quarantined=quarantined,
        fallback_nodes=sorted(fallback_nodes),
    )


@dataclass
class RobustLMOResult:
    """Hardened estimation outcome: a physical model plus a damage report."""

    model: "object"
    probe_nbytes: int
    estimation_time: float
    run_stats: RobustRunStats
    #: Unphysical per-triplet solves rejected before averaging.
    rejected_triplets: list[tuple[int, int, int]]
    total_triplets: int
    #: Nodes implicated in a majority of rejected triplets.
    quarantined: list[int]
    #: Quarantined nodes whose parameters had to be recovered from
    #: rejected-adjacent (but physical) solves.
    fallback_nodes: list[int]

    @property
    def clean(self) -> bool:
        """True when nothing had to be dropped, retried or quarantined."""
        stats = self.run_stats
        return (
            not self.rejected_triplets
            and not self.quarantined
            and stats.timeouts == 0
            and stats.deadlocks == 0
            and not stats.degraded
        )

    def summary(self) -> str:
        lines = [
            f"triplets: {self.total_triplets - len(self.rejected_triplets)}"
            f"/{self.total_triplets} accepted",
            self.run_stats.summary(),
        ]
        if self.quarantined:
            lines.append(f"quarantined nodes: {self.quarantined}")
        if self.fallback_nodes:
            lines.append(f"fallback-recovered nodes: {self.fallback_nodes}")
        if self.clean:
            lines.append("clean run: no faults encountered")
        return "\n".join(lines)


def estimate_extended_lmo_robust(
    engine: ExperimentEngine,
    probe_nbytes: int = DEFAULT_PROBE_NBYTES,
    reps: int = 3,
    parallel: bool = True,
    triplets: Optional[Sequence[tuple[int, int, int]]] = None,
    policy: Optional[RetryPolicy] = None,
    physical_tol: float = 5e-5,
    quarantine_fraction: float = 0.5,
) -> RobustLMOResult:
    """Estimate the extended LMO model on a cluster that may misbehave.

    The experiment set and the closed-form solves are exactly those of
    :func:`~repro.estimation.lmo_est.estimate_extended_lmo`; what changes
    is everything around them — measurement (timeout/retry/screening via
    :func:`run_schedule_robust`), triplet acceptance (solves outside the
    physical range, judged with tolerance ``physical_tol`` on the delay
    parameters, are rejected wholesale), node quarantine (a node present
    in more than ``quarantine_fraction`` of its triplets' rejections is
    excluded from the healthy averaging set), and the final reduction
    (MAD-screened means, always clamped).

    Quarantined nodes still get parameters: from their own *physical*
    solves when any exist, falling back to clamped averages of everything
    measured — and the result records which nodes needed that.
    """
    n = engine.n
    if not (0 < quarantine_fraction <= 1):
        raise ValueError(f"quarantine_fraction must be in (0, 1], got {quarantine_fraction}")
    policy = policy if policy is not None else RetryPolicy()
    pairs, base_triplets, experiments = build_schedule(n, probe_nbytes, triplets)
    t_start = engine.estimation_time
    measured, run_stats = run_schedule_robust(
        engine, experiments, reps=reps, policy=policy, parallel=parallel
    )
    cost = engine.estimation_time - t_start

    assembly = solve_and_assemble(
        measured,
        n,
        base_triplets,
        pairs,
        probe_nbytes,
        mad_threshold=policy.mad_threshold,
        physical_tol=physical_tol,
        quarantine_fraction=quarantine_fraction,
    )
    return RobustLMOResult(
        model=assembly.model,
        probe_nbytes=probe_nbytes,
        estimation_time=cost,
        run_stats=run_stats,
        rejected_triplets=assembly.rejected_triplets,
        total_triplets=assembly.total_triplets,
        quarantined=assembly.quarantined,
        fallback_nodes=assembly.fallback_nodes,
    )
