"""Parallel scheduling of communication experiments (paper Sec. IV).

On a single-switch cluster, experiments over disjoint node sets do not
disturb each other, so a full estimation sweep can be packed into parallel
rounds: the paper reports heterogeneous-Hockney estimation dropping from
16 s (serial) to 5 s (parallel) at the same accuracy.

* :func:`pair_rounds` — the circle-method round-robin tournament: all
  ``C(n,2)`` pairs in ``n-1`` rounds of ``floor(n/2)`` disjoint pairs.
* :func:`pack_rounds` — first-fit packing of node tuples (the rooted
  one-to-two triplets included) into rounds with disjoint nodes.
* :func:`run_schedule` — execute a list of experiments serially or in
  parallel rounds on an engine, returning per-experiment mean durations.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.estimation.engines import ExperimentEngine
from repro.estimation.experiments import Experiment
from repro.stats.adaptive import MeasurementPolicy
from repro.stats.ci import summarize

__all__ = [
    "pair_rounds",
    "pack_rounds",
    "run_schedule",
    "run_schedule_adaptive",
]


def pair_rounds(n: int) -> list[list[tuple[int, int]]]:
    """All unordered pairs of ``0..n-1`` as ``n-1`` (or ``n``) disjoint rounds.

    Uses the classic circle method: fix the last player, rotate the rest.
    For odd ``n`` a virtual player creates a bye in each round.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    players = list(range(n))
    if n % 2 == 1:
        players.append(-1)  # bye marker
    m = len(players)
    rounds: list[list[tuple[int, int]]] = []
    for _round in range(m - 1):
        pairs = []
        for idx in range(m // 2):
            a, b = players[idx], players[m - 1 - idx]
            if a != -1 and b != -1:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(pairs)
        # Rotate all but the first player.
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def pack_rounds(items: Sequence[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """First-fit packing of node tuples into rounds with disjoint nodes.

    Node sets are int bitmasks (bit ``i`` for node ``i``), so testing an
    item against a round is one ``&``.
    """
    rounds: list[list[tuple[int, ...]]] = []
    occupied: list[int] = []
    for item in items:
        nodes = 0
        for node in item:
            nodes |= 1 << node
        for round_idx, used in enumerate(occupied):
            if not used & nodes:
                rounds[round_idx].append(item)
                occupied[round_idx] = used | nodes
                break
        else:
            rounds.append([item])
            occupied.append(nodes)
    return rounds


def run_schedule(
    engine: ExperimentEngine,
    experiments: Sequence[Experiment],
    parallel: bool = True,
    reps: int = 1,
    aggregate: Callable[[Sequence[float]], float] = lambda xs: sum(xs) / len(xs),
) -> dict[Experiment, float]:
    """Execute experiments, serially or packed into parallel rounds.

    Parameters
    ----------
    parallel:
        Pack node-disjoint experiments into rounds and run each round as
        one batch (cost = round makespan) instead of one experiment at a
        time (cost = sum of durations).
    reps:
        Repetitions per experiment; results are combined by ``aggregate``
        (mean by default).  Repetitions of the same round run back to
        back, as the paper's estimation procedure does.

    Returns a mapping from experiment to aggregated duration.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    samples: dict[Experiment, list[float]] = {exp: [] for exp in experiments}
    if parallel:
        for round_exps in _grouped_rounds(experiments):
            for _rep in range(reps):
                durations = engine.run_batch(list(round_exps))
                for exp, duration in zip(round_exps, durations):
                    samples[exp].append(duration)
    else:
        for exp in experiments:
            for _rep in range(reps):
                samples[exp].append(engine.run(exp))
    return {exp: aggregate(vals) for exp, vals in samples.items()}


def _grouped_rounds(experiments: Sequence[Experiment]) -> list[list[Experiment]]:
    """First-fit rounds of node-disjoint experiments (helper)."""
    packed = pack_rounds([exp.nodes for exp in experiments])
    by_nodes: dict[tuple[int, ...], list[Experiment]] = {}
    for exp in experiments:
        by_nodes.setdefault(exp.nodes, []).append(exp)
    return [[by_nodes[nodes].pop(0) for nodes in round_nodes] for round_nodes in packed]


def run_schedule_adaptive(
    engine: ExperimentEngine,
    experiments: Sequence[Experiment],
    policy: MeasurementPolicy = MeasurementPolicy.paper(),
    parallel: bool = True,
) -> dict[Experiment, float]:
    """Execute experiments with MPIBlib's CI-driven stopping rule.

    Each experiment is repeated until its Student-t confidence interval at
    ``policy.confidence`` is within ``policy.rel_err`` of the mean (or
    ``policy.max_reps`` is hit).  In parallel mode, experiments that have
    converged drop out of their round's subsequent batches, shrinking the
    batch makespan — the schedule the paper's 16 s -> 5 s comparison uses.

    Returns a mapping from experiment to the median of its samples (rare
    OS jitter spikes would otherwise dominate sub-millisecond roundtrips);
    the CI stopping rule runs on the raw samples.
    """
    results: dict[Experiment, float] = {}
    if parallel:
        for round_exps in _grouped_rounds(experiments):
            samples: dict[Experiment, list[float]] = {exp: [] for exp in round_exps}
            pending = list(round_exps)
            for _rep in range(policy.max_reps):
                for exp, duration in zip(pending, engine.run_batch(pending)):
                    samples[exp].append(duration)
                pending = [
                    exp
                    for exp in pending
                    if len(samples[exp]) < policy.min_reps
                    or not summarize(samples[exp], policy.confidence).within(policy.rel_err)
                ]
                if not pending:
                    break
            for exp, values in samples.items():
                results[exp] = float(np.median(values))
    else:
        for exp in experiments:
            values: list[float] = []
            for _rep in range(policy.max_reps):
                values.append(engine.run(exp))
                if len(values) >= policy.min_reps and summarize(
                    values, policy.confidence
                ).within(policy.rel_err):
                    break
            results[exp] = float(np.median(values))
    return results
