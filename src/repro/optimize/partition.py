"""Model-based heterogeneous data partitioning.

The reason the paper's group builds heterogeneous communication models in
the first place: to distribute work so that *communication + computation*
finishes simultaneously everywhere.  Given an extended LMO model and a
per-node compute rate, find per-rank byte counts ``b_i`` minimizing the
makespan of "linear scatterv, then every rank processes its block":

    finish_i = sum_{j != r} (C_r + b_j t_r)              (root send slots)
             + L_ri + b_i / beta_ri + C_i + b_i t_i      (delivery of i)
             + b_i w_i                                   (compute)
    finish_r = sum_{j != r} (C_r + b_j t_r) + b_r w_r    (root computes last)

All constraints are linear in ``b``, so the min-makespan distribution is
a small linear program (variables ``b, T``; objective ``min T``), solved
with scipy.  Fast nodes behind slow links get less; the root — which pays
no wire — usually gets more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.models.base import validate_rank
from repro.models.lmo_extended import ExtendedLMOModel

__all__ = [
    "Partition",
    "even_partition",
    "optimal_partition",
    "partition_makespan",
    "run_partitioned_workload",
]


@dataclass(frozen=True)
class Partition:
    """A data distribution and its predicted makespan."""

    counts: tuple[int, ...]
    predicted_makespan: float
    root: int

    @property
    def total(self) -> int:
        return sum(self.counts)


def _finish_times(
    model: ExtendedLMOModel,
    counts: Sequence[float],
    work_rate: Sequence[float],
    root: int,
) -> np.ndarray:
    """Per-rank finish times of scatterv+compute under the LMO model."""
    n = model.n
    b = np.asarray(counts, dtype=float)
    work = np.asarray(work_rate, dtype=float)
    others = np.arange(n) != root
    serial = float(model.send_cost_batch(root, b[others]).sum())
    # Whole-cluster delivery terms in one vector pass; the root's bogus
    # self-link term (possibly 0/0) is overwritten right after.
    with np.errstate(divide="ignore", invalid="ignore"):
        finishes = (
            serial
            + model.L[root]
            + b / model.beta[root]
            + model.C
            + b * model.t
            + b * work
        )
    finishes[root] = serial + b[root] * work[root]
    return finishes


def partition_makespan(
    model: ExtendedLMOModel,
    counts: Sequence[float],
    work_rate: Sequence[float],
    root: int = 0,
    collect_ratio: float = 0.0,
) -> float:
    """Predicted makespan of a given distribution.

    ``collect_ratio > 0`` adds the serialized gatherv return leg (see
    :func:`optimal_partition`).
    """
    validate_rank(model.n, root)
    if len(counts) != model.n or len(work_rate) != model.n:
        raise ValueError(f"counts and work_rate must have {model.n} entries")
    makespan = float(_finish_times(model, counts, work_rate, root).max())
    if collect_ratio > 0:
        makespan += (model.n - 1) * float(model.C[root]) + sum(
            collect_ratio
            * counts[j]
            * (model.t[j] + 1.0 / model.beta[root, j] + model.t[root])
            for j in range(model.n)
            if j != root
        )
    return makespan


def even_partition(n: int, total: int, root: int = 0) -> list[int]:
    """The naive model-free distribution: equal blocks (+remainders)."""
    base = total // n
    counts = [base] * n
    for idx in range(total - base * n):
        counts[(root + idx) % n] += 1
    return counts


def optimal_partition(
    model: ExtendedLMOModel,
    total: int,
    work_rate: Sequence[float],
    root: int = 0,
    min_count: int = 0,
    collect_ratio: float = 0.0,
) -> Partition:
    """Min-makespan distribution of ``total`` bytes (linear program).

    Parameters
    ----------
    work_rate:
        Per-node compute cost in seconds/byte (0 = pure communication —
        in that degenerate case everything lands on the root, which pays
        no wire).
    min_count:
        Lower bound per rank (e.g. 1 to force participation).
    collect_ratio:
        Result bytes produced per input byte.  When positive, a serialized
        gatherv return leg (``collect_ratio * b_i`` bytes from every rank
        back to the root, summed — the pessimistic bound) is added to the
        makespan, so compute-heavy ranks far from the root get trimmed
        further.

    Notes
    -----
    LP formulation with variables ``(b_0..b_{n-1}, T)``: minimize ``T``
    subject to ``finish_i(b) <= T`` (linear), ``sum b = total``,
    ``b_i >= min_count``.
    """
    n = model.n
    validate_rank(n, root)
    work = np.asarray(work_rate, dtype=float)
    if work.shape != (n,):
        raise ValueError(f"work_rate must have {n} entries")
    if (work < 0).any():
        raise ValueError("negative work rates")
    if total < n * min_count:
        raise ValueError(f"total {total} cannot satisfy min_count {min_count}")
    if collect_ratio < 0:
        raise ValueError(f"collect_ratio must be >= 0, got {collect_ratio}")

    # finish_i = const_i + sum_j coeff_ij * b_j  <=  T
    const = np.zeros(n)
    coeff = np.zeros((n, n))
    serial_const = sum(model.C[root] for j in range(n) if j != root)
    for i in range(n):
        const[i] = serial_const
        for j in range(n):
            if j != root:
                coeff[i, j] += model.t[root]  # root send slot per byte of b_j
        if i == root:
            coeff[i, i] += work[i]
        else:
            const[i] += model.L[root, i] + model.C[i]
            coeff[i, i] += 1.0 / model.beta[root, i] + model.t[i] + work[i]
        if collect_ratio > 0:
            # Serialized gatherv return: every rank's result crosses the
            # root's port and CPU — the same sum-bound, added everywhere.
            const[i] += (n - 1) * model.C[root]
            for j in range(n):
                if j != root:
                    coeff[i, j] += collect_ratio * (
                        model.t[j]
                        + 1.0 / model.beta[root, j]
                        + model.t[root]
                    )

    # Variables x = (b, T); minimize T.
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.hstack([coeff, -np.ones((n, 1))])
    b_ub = -const
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    b_eq = [float(total)]
    bounds = [(float(min_count), None)] * n + [(0.0, None)]
    # Imported at the first partition, so that importing the package does
    # not load scipy.optimize.
    from scipy.optimize import linprog

    solution = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                       method="highs")
    if not solution.success:  # pragma: no cover - LP is always feasible here
        raise RuntimeError(f"partition LP failed: {solution.message}")

    # Round to integers preserving the total (largest-remainder method).
    raw = solution.x[:n]
    floored = np.floor(raw).astype(int)
    deficit = int(total - floored.sum())
    order = np.argsort(-(raw - floored))
    for idx in order[:deficit]:
        floored[idx] += 1
    counts = tuple(int(v) for v in floored)
    return Partition(
        counts=counts,
        predicted_makespan=partition_makespan(model, counts, work, root,
                                              collect_ratio=collect_ratio),
        root=root,
    )


def run_partitioned_workload(
    cluster,
    counts: Sequence[int],
    work_rate: Sequence[float],
    root: int = 0,
) -> float:
    """Execute scatterv + per-rank compute on the simulated cluster.

    The validation counterpart of :func:`optimal_partition`: each rank
    receives its block through the real transport, then holds its CPU for
    ``counts[rank] * work_rate[rank]`` seconds of "computation".  Returns
    the observed makespan.
    """
    from repro.mpi.collectives import linear
    from repro.mpi.runtime import run_ranks

    if len(counts) != cluster.n or len(work_rate) != cluster.n:
        raise ValueError(f"counts and work_rate must have {cluster.n} entries")

    def factory(rank: int):
        def program(comm):
            yield from linear.scatterv(comm, root, counts)
            cost = cluster.noisy(counts[rank] * work_rate[rank])
            yield from cluster.cpu[rank].hold(cluster.sim, cost)
            return None

        return program

    results = run_ranks(cluster, {rank: factory(rank) for rank in range(cluster.n)})
    return max(res.finish for res in results.values())
