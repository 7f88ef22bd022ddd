"""Extended-LMO predictions for the wider collective-algorithm menu.

The paper claims its intuitive models can express "the execution time of
any collective communication operation ... as a combination of maximums
and sums of the point-to-point parameters".  This module exercises that
claim beyond scatter/gather: broadcast (linear, binomial, pipeline, van de
Geijn), ring and recursive-doubling allgather, ring reduce-scatter, and
three allreduce compositions — each expressed in the same serial-processor
/ parallel-network split.

Each formula has one body, a ``*_sweep`` function over a whole array of
message sizes; the scalar names are its one-size form, returning a float.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.models.base import ArrayLike, validate_nbytes_batch, validate_rank
from repro.models.collectives.formulas import (
    _max_over,
    _sum_over,
    predict_binomial_scatter_sweep,
    predict_linear_scatter_sweep,
)
from repro.models.collectives.tree_eval import predict_tree_time_batch
from repro.models.collectives.trees import CommTree, binomial_tree
from repro.models.lmo_extended import ExtendedLMOModel

__all__ = [
    "predict_linear_bcast",
    "predict_binomial_bcast",
    "predict_pipeline_bcast",
    "predict_ring_allgather",
    "predict_rd_allgather",
    "predict_rd_allreduce",
    "predict_reduce_bcast_allreduce",
    "predict_collective",
    "predict_collective_sweep",
    "predict_vdg_bcast",
    "predict_ring_reduce_scatter",
    "predict_rabenseifner_allreduce",
    "predict_linear_bcast_sweep",
    "predict_binomial_bcast_sweep",
    "predict_pipeline_bcast_sweep",
    "predict_ring_allgather_sweep",
    "predict_rd_allgather_sweep",
    "predict_rd_allreduce_sweep",
    "predict_reduce_bcast_allreduce_sweep",
    "predict_vdg_bcast_sweep",
    "predict_ring_reduce_scatter_sweep",
    "predict_rabenseifner_allreduce_sweep",
]


def _exchange(model: ExtendedLMOModel, i: int, j: int, nbytes) -> np.ndarray:
    """One hop ``i -> j``: both endpoints' processing plus one wire."""
    return (
        model.send_cost_batch(i, nbytes)
        + model.L[i, j]
        + nbytes / model.beta[i, j]
        + model.send_cost_batch(j, nbytes)
    )


def predict_linear_bcast_sweep(
    model: ExtendedLMOModel, sizes: ArrayLike, root: int = 0
) -> np.ndarray:
    """Linear bcast: like linear scatter with every block the full message."""
    return predict_linear_scatter_sweep(model, sizes, root)


def predict_binomial_bcast_sweep(
    model: ExtendedLMOModel,
    sizes: ArrayLike,
    root: int = 0,
    tree: Optional[CommTree] = None,
) -> np.ndarray:
    """Binomial bcast: the scatter recursion with constant arc volume."""
    nb = validate_nbytes_batch(sizes)
    if tree is None:
        tree = binomial_tree(model.n, root)

    # Arc volumes don't scale with sub-tree size: the closures ignore the
    # evaluator's per-arc bytes and charge the full message on every arc.
    def serial(i: int, _j: int, _arc_nbytes) -> np.ndarray:
        return model.send_cost_batch(i, nb)

    def parallel(i: int, j: int, _arc_nbytes) -> np.ndarray:
        return model.wire_and_remote_cost_batch(i, j, nb)

    return predict_tree_time_batch(tree, nb, serial, parallel)


def predict_pipeline_bcast_sweep(
    model: ExtendedLMOModel,
    sizes: ArrayLike,
    segment_nbytes: float,
    root: int = 0,
) -> np.ndarray:
    """Chain bcast in segments: pipe fill plus steady-state draining.

    fill  = one segment traversing the whole chain;
    drain = remaining segments behind the chain's bottleneck stage (each
    intermediate node handles a segment twice: receive + forward).
    """
    nb = validate_nbytes_batch(sizes)
    validate_rank(model.n, root)
    if segment_nbytes <= 0:
        raise ValueError("segment_nbytes must be positive")
    n = model.n
    chain = [(root + k) % n for k in range(n)]
    segments = np.maximum(1.0, np.ceil(nb / segment_nbytes))
    seg = np.where(nb == 0, 0.0, np.minimum(segment_nbytes, nb))

    fill = np.zeros(nb.shape)
    stage_costs = []
    for u, v in zip(chain, chain[1:]):
        hop = _exchange(model, u, v, seg)
        fill = fill + hop
        stage_costs.append(hop)
    # Intermediate nodes touch every segment twice (receive then forward).
    for v in chain[1:-1]:
        stage_costs.append(2 * model.send_cost_batch(v, seg))
    return fill + (segments - 1) * _max_over(stage_costs)


def _ring_steps(model: ExtendedLMOModel, nb: np.ndarray, combine: bool) -> np.ndarray:
    """``n-1`` synchronized ring steps behind the slowest exchange, each
    optionally followed by a combining pass on the receiver."""
    n = model.n

    def step(r: int) -> np.ndarray:
        cost = _exchange(model, r, (r + 1) % n, nb)
        return cost + nb * float(model.t[(r + 1) % n]) if combine else cost

    return (n - 1) * _max_over(step(r) for r in range(n))


def predict_ring_allgather_sweep(model: ExtendedLMOModel, sizes: ArrayLike) -> np.ndarray:
    """Ring allgather: ``n-1`` synchronized steps behind the slowest link."""
    return _ring_steps(model, validate_nbytes_batch(sizes), combine=False)


def predict_ring_reduce_scatter_sweep(
    model: ExtendedLMOModel, sizes: ArrayLike
) -> np.ndarray:
    """Ring reduce-scatter: n-1 steps behind the slowest exchange+combine."""
    return _ring_steps(model, validate_nbytes_batch(sizes), combine=True)


def _rd_rounds(model: ExtendedLMOModel, volume_at_round) -> np.ndarray:
    """Butterfly evaluation: sum over rounds of the worst pairwise
    exchange at that round's volume.  A full-duplex exchange overlaps
    both directions, so a pair is done after one wire plus both
    endpoints' processing."""
    n = model.n
    if n & (n - 1):
        raise ValueError(f"recursive doubling requires a power-of-two n, got {n}")

    def worst_exchange(k: int) -> np.ndarray:
        volume = volume_at_round(k)
        return _max_over(_exchange(model, r, r ^ (1 << k), volume) for r in range(n))

    return _sum_over(worst_exchange(k) for k in range(n.bit_length() - 1))


def predict_rd_allgather_sweep(model: ExtendedLMOModel, sizes: ArrayLike) -> np.ndarray:
    """Recursive-doubling allgather: round k moves ``2^k`` blocks."""
    nb = validate_nbytes_batch(sizes)
    return _rd_rounds(model, lambda k: (1 << k) * nb)


def predict_rd_allreduce_sweep(model: ExtendedLMOModel, sizes: ArrayLike) -> np.ndarray:
    """Recursive-doubling allreduce: every round moves the full vector and
    pays one combining pass (``nbytes * t``) on each endpoint."""
    nb = validate_nbytes_batch(sizes)
    base = _rd_rounds(model, lambda _k: nb)
    rounds = int(math.log2(model.n))
    return base + rounds * nb * float(model.t.max())


def predict_reduce_bcast_allreduce_sweep(
    model: ExtendedLMOModel, sizes: ArrayLike, root: int = 0
) -> np.ndarray:
    """Allreduce as binomial reduce + binomial bcast (both trees maxed)."""
    nb = validate_nbytes_batch(sizes)
    tree = binomial_tree(model.n, root)

    # Reduce ~ binomial gather with constant arc volume + combine passes.
    def serial(i: int, _j: int, _b) -> np.ndarray:
        return model.send_cost_batch(i, nb)

    def parallel(i: int, j: int, _b) -> np.ndarray:
        return model.wire_and_remote_cost_batch(i, j, nb) + nb * float(model.t[j])

    reduce_time = predict_tree_time_batch(tree, nb, serial, parallel)
    return reduce_time + predict_binomial_bcast_sweep(model, nb, root=root, tree=tree)


def predict_vdg_bcast_sweep(
    model: ExtendedLMOModel, sizes: ArrayLike, root: int = 0
) -> np.ndarray:
    """van de Geijn bcast: binomial scatter of segments + ring allgather."""
    segment = validate_nbytes_batch(sizes) / model.n
    return (
        predict_binomial_scatter_sweep(model, segment, root=root)
        + predict_ring_allgather_sweep(model, segment)
    )


def predict_rabenseifner_allreduce_sweep(
    model: ExtendedLMOModel, sizes: ArrayLike
) -> np.ndarray:
    """Rabenseifner allreduce: ring reduce-scatter + ring allgather."""
    block = validate_nbytes_batch(sizes) / model.n
    return predict_ring_reduce_scatter_sweep(model, block) + predict_ring_allgather_sweep(
        model, block
    )


#: (operation, algorithm) -> sweep over the extended LMO model.
_PREDICTORS = {
    ("bcast", "linear"): predict_linear_bcast_sweep,
    ("bcast", "binomial"): predict_binomial_bcast_sweep,
    ("bcast", "pipeline"): lambda m, nb, segment_nbytes=8192, **kw: (
        predict_pipeline_bcast_sweep(m, nb, segment_nbytes, **kw)
    ),
    ("bcast", "van_de_geijn"): predict_vdg_bcast_sweep,
    ("allgather", "ring"): lambda m, nb, **_kw: predict_ring_allgather_sweep(m, nb),
    ("allgather", "recursive_doubling"): lambda m, nb, **_kw: predict_rd_allgather_sweep(m, nb),
    ("allreduce", "recursive_doubling"): lambda m, nb, **_kw: predict_rd_allreduce_sweep(m, nb),
    ("allreduce", "reduce_bcast"): predict_reduce_bcast_allreduce_sweep,
    ("allreduce", "rabenseifner"): lambda m, nb, **_kw: (
        predict_rabenseifner_allreduce_sweep(m, nb)
    ),
    ("reduce_scatter", "ring"): lambda m, nb, **_kw: predict_ring_reduce_scatter_sweep(m, nb),
}


def predict_collective_sweep(
    model: ExtendedLMOModel,
    operation: str,
    algorithm: str,
    sizes: ArrayLike,
    **kwargs,
) -> np.ndarray:
    """Unified entry point for the extended-algorithm predictions."""
    try:
        predictor = _PREDICTORS[(operation, algorithm)]
    except KeyError:
        known = sorted(f"{op}/{algo}" for op, algo in _PREDICTORS)
        raise KeyError(
            f"no predictor for {operation}/{algorithm}; available: {', '.join(known)}"
        ) from None
    return predictor(model, validate_nbytes_batch(sizes), **kwargs)


# ============================================================ one-size forms
def predict_collective(
    model: ExtendedLMOModel, operation: str, algorithm: str, nbytes: float, **kwargs
) -> float:
    """One-size :func:`predict_collective_sweep`."""
    return float(predict_collective_sweep(model, operation, algorithm, nbytes, **kwargs))


def predict_linear_bcast(model: ExtendedLMOModel, nbytes: float, root: int = 0) -> float:
    """One-size :func:`predict_linear_bcast_sweep`."""
    return float(predict_linear_bcast_sweep(model, nbytes, root))


def predict_binomial_bcast(
    model: ExtendedLMOModel,
    nbytes: float,
    root: int = 0,
    tree: Optional[CommTree] = None,
) -> float:
    """One-size :func:`predict_binomial_bcast_sweep`."""
    return float(predict_binomial_bcast_sweep(model, nbytes, root, tree))


def predict_pipeline_bcast(
    model: ExtendedLMOModel,
    nbytes: float,
    segment_nbytes: float,
    root: int = 0,
) -> float:
    """One-size :func:`predict_pipeline_bcast_sweep`."""
    return float(predict_pipeline_bcast_sweep(model, nbytes, segment_nbytes, root))


def predict_ring_allgather(model: ExtendedLMOModel, nbytes: float) -> float:
    """One-size :func:`predict_ring_allgather_sweep`."""
    return float(predict_ring_allgather_sweep(model, nbytes))


def predict_rd_allgather(model: ExtendedLMOModel, block_nbytes: float) -> float:
    """One-size :func:`predict_rd_allgather_sweep`."""
    return float(predict_rd_allgather_sweep(model, block_nbytes))


def predict_rd_allreduce(model: ExtendedLMOModel, nbytes: float) -> float:
    """One-size :func:`predict_rd_allreduce_sweep`."""
    return float(predict_rd_allreduce_sweep(model, nbytes))


def predict_reduce_bcast_allreduce(
    model: ExtendedLMOModel, nbytes: float, root: int = 0
) -> float:
    """One-size :func:`predict_reduce_bcast_allreduce_sweep`."""
    return float(predict_reduce_bcast_allreduce_sweep(model, nbytes, root))


def predict_vdg_bcast(model: ExtendedLMOModel, nbytes: float, root: int = 0) -> float:
    """One-size :func:`predict_vdg_bcast_sweep`."""
    return float(predict_vdg_bcast_sweep(model, nbytes, root))


def predict_ring_reduce_scatter(model: ExtendedLMOModel, block_nbytes: float) -> float:
    """One-size :func:`predict_ring_reduce_scatter_sweep`."""
    return float(predict_ring_reduce_scatter_sweep(model, block_nbytes))


def predict_rabenseifner_allreduce(model: ExtendedLMOModel, nbytes: float) -> float:
    """One-size :func:`predict_rabenseifner_allreduce_sweep`."""
    return float(predict_rabenseifner_allreduce_sweep(model, nbytes))
