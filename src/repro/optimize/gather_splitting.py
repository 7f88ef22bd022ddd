"""LMO model-based optimization of linear gather (paper Fig. 7).

The empirical part of the LMO gather model says: messages in the medium
region ``(M1, M2)`` suffer non-deterministic ~0.25 s escalations (TCP
incast timeouts).  The optimization "implemented on top of its native
counterpart" splits such messages and performs a *series of gathers*, each
chunk small enough that the concurrent senders cannot overflow the switch
port — avoiding the escalations entirely.  The paper reports ~10x better
performance in the escalation region.
"""

from __future__ import annotations

import math
from typing import Any, Generator

import numpy as np

from repro.models.base import ArrayLike, validate_nbytes_batch
from repro.models.collectives.formulas import predict_linear_gather_sweep
from repro.models.lmo_extended import ExtendedLMOModel, GatherIrregularity
from repro.mpi.collectives import linear
from repro.mpi.comm import RankComm

__all__ = [
    "split_plan",
    "split_chunk_counts",
    "predict_optimized_gather_sweep",
    "optimized_gather",
]


def split_plan(nbytes: int, irregularity: GatherIrregularity, safety: float = 0.9) -> list[int]:
    """Chunk sizes for one message of ``nbytes``.

    Messages outside the escalation region pass through unsplit.  Inside
    it, chunks of at most ``safety * M1`` bytes are used (strictly below
    the escalation onset, with headroom for estimation error).
    """
    if not (0 < safety <= 1):
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    if nbytes <= 0:
        return [nbytes]
    if irregularity.regime(nbytes) != "medium":
        return [nbytes]
    chunk = max(1, int(irregularity.m1 * safety))
    count = math.ceil(nbytes / chunk)
    base = nbytes // count
    sizes = [base] * count
    for idx in range(nbytes - base * count):
        sizes[idx] += 1
    return sizes


def split_chunk_counts(
    sizes: ArrayLike, irregularity: GatherIrregularity, safety: float = 0.9
) -> np.ndarray:
    """Number of chunks :func:`split_plan` produces, for a whole size array.

    Sizes outside the medium (escalation) regime stay unsplit (count 1).
    """
    if not (0 < safety <= 1):
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    nb = validate_nbytes_batch(sizes)
    chunk = max(1, int(irregularity.m1 * safety))
    medium = (nb >= irregularity.m1) & (nb <= irregularity.m2) & (nb > 0)
    return np.where(medium, np.ceil(nb / chunk), 1.0)


def predict_optimized_gather_sweep(
    model: ExtendedLMOModel,
    sizes: ArrayLike,
    root: int = 0,
    safety: float = 0.9,
) -> np.ndarray:
    """Predicted times of the split gather over a whole size sweep.

    For each size, the plan of :func:`split_plan` yields ``count``
    serialized rounds with ``extra`` chunks of ``base + 1`` bytes and the
    rest of ``base`` bytes, so the prediction is

        (count - extra) * T_gather(base) + extra * T_gather(base + 1)

    — two vectorized gather sweeps instead of a Python loop over chunks.
    Chunk sizes sit below the escalation onset ``m1``, so their expected
    time carries no escalation term.
    """
    irr = model.gather_irregularity
    nb = validate_nbytes_batch(sizes)
    if irr is None:
        return predict_linear_gather_sweep(model, nb, root=root)
    counts = split_chunk_counts(nb, irr, safety)
    base = np.floor_divide(nb, counts)
    extra = nb - base * counts
    t_base = predict_linear_gather_sweep(model, base, root=root)
    t_upper = predict_linear_gather_sweep(model, base + 1, root=root)
    split_time = (counts - extra) * t_base + extra * t_upper
    unsplit = predict_linear_gather_sweep(model, nb, root=root)
    return np.where(counts > 1, split_time, unsplit)


def optimized_gather(
    comm: RankComm,
    root: int,
    block_nbytes: int,
    irregularity: GatherIrregularity,
    block: Any = None,
    safety: float = 0.9,
) -> Generator:
    """Linear gather with model-based message splitting.

    Each chunk round is a full linear gather of the chunk; rounds are
    serialized (the next round's sends start after the previous round's
    data has been collected), which is how the paper's optimized gather
    stays below the incast threshold.
    """
    chunks = split_plan(block_nbytes, irregularity, safety)
    if len(chunks) == 1:
        result = yield from linear.gather(comm, root, block_nbytes, block=block)
        return result
    gathered_rounds = []
    for chunk_nbytes in chunks:
        result = yield from linear.gather(comm, root, chunk_nbytes, block=block)
        gathered_rounds.append(result)
    return gathered_rounds[-1]
