"""The parameterized LogP model, PLogP [Kielmann et al., IPDPS 2000].

In PLogP every parameter except the latency is a *piecewise-linear
function of the message size*: send overhead ``o_s(M)`` and receive
overhead ``o_r(M)`` (variable processor contributions) and the gap
``g(M)`` (reciprocal end-to-end bandwidth at size M, a mixed
processor+network contribution, with ``g(M) >= o_s(M), o_r(M)``).
A point-to-point transfer costs ``L + g(M)``.

:class:`PiecewiseLinear` is the function representation used both here and
by the adaptive estimation procedure (:mod:`repro.estimation.plogp_est`),
which inserts breakpoints wherever linear extrapolation fails — the
paper's description of how PLogP measurement selects message sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.models.base import (
    ArrayLike,
    broadcast_result,
    validate_nbytes_batch,
    validate_rank_batch,
)

__all__ = ["PiecewiseLinear", "PLogPModel"]


@dataclass(frozen=True)
class PiecewiseLinear:
    """A piecewise-linear function given by sorted ``(x, y)`` breakpoints.

    Evaluation interpolates between breakpoints and extrapolates the last
    segment beyond either end (a one-point function is constant).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("need equally many xs and ys, at least one point")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("xs must be strictly increasing")

    @staticmethod
    def from_samples(points: Sequence[tuple[float, float]]) -> "PiecewiseLinear":
        """Build from unsorted samples (duplicate x keeps the last y)."""
        dedup: dict[float, float] = {}
        for x, y in points:
            dedup[float(x)] = float(y)
        xs = tuple(sorted(dedup))
        return PiecewiseLinear(xs, tuple(dedup[x] for x in xs))

    def __call__(self, x: float) -> float:
        """The function's value at one point (a one-size :meth:`batch`)."""
        return float(self.batch(x))

    def batch(self, x: ArrayLike) -> np.ndarray:
        """The function's values over an array of points."""
        arr = np.asarray(x, dtype=float)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        if len(xs) == 1:
            return np.full(arr.shape, ys[0])
        k = np.clip(np.searchsorted(xs, arr, side="right") - 1, 0, len(xs) - 2)
        x0, x1 = xs[k], xs[k + 1]
        y0, y1 = ys[k], ys[k + 1]
        return y0 + (y1 - y0) * (arr - x0) / (x1 - x0)

    def breakpoints(self) -> list[tuple[float, float]]:
        """The ``(x, y)`` breakpoint list."""
        return list(zip(self.xs, self.ys))

    def to_dict(self) -> dict:
        """Schema-v2 parameter dictionary."""
        return {"xs": list(self.xs), "ys": list(self.ys)}

    @classmethod
    def from_dict(cls, params: dict) -> "PiecewiseLinear":
        """Inverse of :meth:`to_dict`."""
        return cls(xs=tuple(params["xs"]), ys=tuple(params["ys"]))


@dataclass(frozen=True)
class PLogPModel:
    """Homogeneous PLogP parameters.

    Attributes
    ----------
    L:
        Latency, seconds — "a constant that combines all fixed
        contribution factors" (explicitly non-intuitive, per the paper).
    o_s, o_r:
        Send/receive overheads as functions of message size, seconds.
    g:
        Gap as a function of message size, seconds; ``1/g(M)`` is the
        end-to-end bandwidth at size ``M``.
    P:
        Number of processors.
    """

    L: float
    o_s: PiecewiseLinear
    o_r: PiecewiseLinear
    g: PiecewiseLinear
    P: int

    def __post_init__(self) -> None:
        if self.L < 0:
            raise ValueError("negative PLogP latency")
        if self.P < 2:
            raise ValueError("a communication model needs P >= 2")

    @property
    def n(self) -> int:
        """Processor count (protocol-compatible alias of ``P``)."""
        return self.P

    def p2p_time(self, i: int, j: int, nbytes: float) -> float:
        """``L + g(M)``."""
        return float(self.p2p_time_batch(i, j, nbytes))

    def p2p_time_batch(self, i: ArrayLike, j: ArrayLike, nbytes: ArrayLike) -> np.ndarray:
        """Vectorized ``L + g(M)`` over broadcastable arrays."""
        validate_rank_batch(self.P, i, j)
        nb = validate_nbytes_batch(nbytes)
        return broadcast_result(self.L + self.g.batch(nb), i, j, nb)

    def gap_covers_overheads(self, nbytes: float) -> bool:
        """PLogP's structural assumption ``g(M) >= o_s(M), o_r(M)``."""
        gm = self.g(nbytes)
        return gm >= self.o_s(nbytes) and gm >= self.o_r(nbytes)

    def to_dict(self) -> dict:
        """Schema-v2 parameter dictionary."""
        return {"L": self.L, "P": self.P, "o_s": self.o_s.to_dict(),
                "o_r": self.o_r.to_dict(), "g": self.g.to_dict()}

    @classmethod
    def from_dict(cls, params: dict) -> "PLogPModel":
        """Inverse of :meth:`to_dict`."""
        return cls(L=params["L"], P=params["P"],
                   o_s=PiecewiseLinear.from_dict(params["o_s"]),
                   o_r=PiecewiseLinear.from_dict(params["o_r"]),
                   g=PiecewiseLinear.from_dict(params["g"]))
