"""Common protocol of communication performance models.

Two families exist, mirroring Section II of the paper:

* **homogeneous** models — one set of scalar parameters for the whole
  cluster; ``p2p_time`` ignores which processors communicate;
* **heterogeneous** models — per-processor and/or per-link parameters.

Every model exposes two prediction entry points so collective-prediction
code can treat them uniformly (homogeneous models simply ignore the
ranks):

* ``p2p_time(i, j, nbytes)`` — one scalar prediction;
* ``p2p_time_batch(i, j, nbytes)`` — the vectorized path: ``i``, ``j``
  and ``nbytes`` are broadcast against each other (NumPy rules) and the
  predictions come back as one array.

The scalar path is implemented *on top of* the batch path in every model
(a one-element batch), so the two can never diverge.  The collective
formulas of :mod:`repro.models.collectives` follow the same rule: each
has one body, a sweep over message sizes, and the scalar predictor is
its one-size form.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, Union, runtime_checkable

import numpy as np

__all__ = [
    "ArrayLike",
    "CommunicationModel",
    "broadcast_result",
    "decode_array",
    "encode_array",
    "validate_nbytes",
    "validate_nbytes_batch",
    "validate_rank",
    "validate_rank_batch",
]

#: Anything the batch path accepts for ranks or message sizes.
ArrayLike = Union[int, float, Sequence, np.ndarray]


@runtime_checkable
class CommunicationModel(Protocol):
    """Anything that predicts point-to-point communication time."""

    #: Number of processors the model describes.
    n: int

    def p2p_time(self, i: int, j: int, nbytes: float) -> float:
        """Predicted time to send ``nbytes`` from processor i to j (seconds)."""
        ...

    def p2p_time_batch(self, i: ArrayLike, j: ArrayLike, nbytes: ArrayLike) -> np.ndarray:
        """Vectorized :meth:`p2p_time` over broadcastable rank/size arrays."""
        ...


def validate_rank(n: int, *ranks: int) -> None:
    """Raise if any rank is outside ``0..n-1``."""
    for rank in ranks:
        if not (0 <= rank < n):
            raise ValueError(f"rank {rank} out of range for {n} processors")


def validate_nbytes(nbytes: float) -> None:
    """Raise on negative or non-finite message sizes."""
    if not math.isfinite(nbytes):
        raise ValueError(f"non-finite message size {nbytes!r}")
    if nbytes < 0:
        raise ValueError(f"negative message size {nbytes!r}")


def validate_rank_batch(n: int, *ranks: ArrayLike) -> tuple[np.ndarray, ...]:
    """Array counterpart of :func:`validate_rank`; returns integer arrays."""
    out = []
    for rank in ranks:
        arr = np.asarray(rank)
        if arr.size:
            bad = (arr < 0) | (arr >= n)
            if bad.any():
                first = np.asarray(arr)[bad].flat[0]
                raise ValueError(f"rank {int(first)} out of range for {n} processors")
        out.append(arr)
    return tuple(out)


def validate_nbytes_batch(nbytes: ArrayLike) -> np.ndarray:
    """Array counterpart of :func:`validate_nbytes`; returns a float array.

    Rejects negative *and* non-finite (NaN/inf) sizes — NaN in particular
    slips through a plain ``< 0`` check.
    """
    arr = np.asarray(nbytes, dtype=float)
    if arr.size:
        finite = np.isfinite(arr)
        if not finite.all():
            first = arr[~finite].flat[0]
            raise ValueError(f"non-finite message size {float(first)!r}")
        if (arr < 0).any():
            first = arr[arr < 0].flat[0]
            raise ValueError(f"negative message size {float(first)!r}")
    return arr


def broadcast_result(values: ArrayLike, *operands: ArrayLike) -> np.ndarray:
    """Broadcast ``values`` to the joint shape of all ``operands``.

    Homogeneous models predict the same time for every pair, but the
    batch contract says the result shape is the broadcast of ``(i, j,
    nbytes)`` — this pads the missing axes.
    """
    shape = np.broadcast_shapes(*(np.shape(op) for op in operands))
    # .copy() (not ascontiguousarray, which promotes 0-d to 1-d) keeps
    # scalar inputs producing 0-d outputs.
    return np.broadcast_to(np.asarray(values, dtype=float), shape).copy()


# -- serialization helpers (schema v2) ----------------------------------------
def encode_array(values: np.ndarray) -> list:
    """JSON-safe nested lists (inf encoded as the string ``'inf'``)."""

    def encode(x: float):
        return "inf" if np.isinf(x) else float(x)

    if values.ndim == 1:
        return [encode(x) for x in values]
    return [[encode(x) for x in row] for row in values]


def decode_array(values: list) -> np.ndarray:
    """Inverse of :func:`encode_array`."""

    def decode(x):
        return np.inf if x == "inf" else float(x)

    if values and isinstance(values[0], list):
        return np.array([[decode(x) for x in row] for row in values])
    return np.array([decode(x) for x in values])
