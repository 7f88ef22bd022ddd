"""The extended LMO model — the paper's primary contribution (Sec. III).

Six point-to-point parameters fully separating the four kinds of
contribution:

    T_ij(M) = C_i + L_ij + C_j + M (t_i + 1/beta_ij + t_j)

    =========  ===============  ===============
    .          processor        network
    constant   C_i, C_j         L_ij
    variable   t_i, t_j         1/beta_ij
    =========  ===============  ===============

Because the contributions are separated, collective formulas can serialize
the processor parts while parallelizing the network parts — see
:mod:`repro.models.collectives.formulas` for the paper's equations (4)
and (5), and :class:`GatherIrregularity` for the empirical part of (5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.models.base import (
    ArrayLike,
    broadcast_result,
    decode_array,
    encode_array,
    validate_nbytes_batch,
    validate_rank_batch,
)
from repro.models.hockney import HeterogeneousHockneyModel
from repro.models.lmo import LMOModel

__all__ = ["ExtendedLMOModel", "GatherIrregularity"]


@dataclass(frozen=True)
class GatherIrregularity:
    """Empirical parameters of linear gather on a switched TCP cluster.

    The paper's formula (5): below ``m1`` the execution time follows the
    *parallel* (max) branch; above ``m2`` the *serialized* (sum) branch;
    in between, non-deterministic escalations occur.  The empirical part
    records the escalation magnitude (its "most frequent value", a TCP
    RTO of ~0.2-0.25 s) and the probability of escalation as a function
    of message size (the paper: the probability of fitting the linear
    model "becomes less with the growth of message size").
    """

    m1: float
    m2: float
    escalation_value: float = 0.25
    #: P(escalation) at M = m1 (onset) and M = m2 (just before pacing).
    p_at_m1: float = 0.0
    p_at_m2: float = 0.8

    def __post_init__(self) -> None:
        if not (0 < self.m1 < self.m2):
            raise ValueError(f"need 0 < m1 < m2, got m1={self.m1}, m2={self.m2}")
        if not (0 <= self.p_at_m1 <= self.p_at_m2 <= 1):
            raise ValueError("need 0 <= p(m1) <= p(m2) <= 1")

    def escalation_probability(self, nbytes: float) -> float:
        """Interpolated escalation probability at message size ``nbytes``."""
        return float(self.escalation_probability_batch(nbytes))

    def regime(self, nbytes: float) -> str:
        """``"small"`` (M < m1), ``"medium"``, or ``"large"`` (M > m2)."""
        if nbytes < self.m1:
            return "small"
        if nbytes > self.m2:
            return "large"
        return "medium"

    def escalation_probability_batch(self, nbytes: ArrayLike) -> np.ndarray:
        """Escalation probabilities over an array of message sizes: zero
        outside ``(m1, m2]``, linear from ``p_at_m1`` to ``p_at_m2`` inside."""
        nb = np.asarray(nbytes, dtype=float)
        frac = (nb - self.m1) / (self.m2 - self.m1)
        p = self.p_at_m1 + frac * (self.p_at_m2 - self.p_at_m1)
        return np.where((nb <= self.m1) | (nb > self.m2), 0.0, p)

    def to_dict(self) -> dict:
        """Schema-v2 parameter dictionary."""
        return {"m1": self.m1, "m2": self.m2,
                "escalation_value": self.escalation_value,
                "p_at_m1": self.p_at_m1, "p_at_m2": self.p_at_m2}

    @classmethod
    def from_dict(cls, params: dict) -> "GatherIrregularity":
        """Inverse of :meth:`to_dict`."""
        return cls(m1=params["m1"], m2=params["m2"],
                   escalation_value=params["escalation_value"],
                   p_at_m1=params["p_at_m1"], p_at_m2=params["p_at_m2"])


@dataclass(frozen=True)
class ExtendedLMOModel:
    """Extended (six-parameter) LMO model with optional empirical part.

    Attributes
    ----------
    C:
        Fixed *processor* delays, shape ``(n,)``, seconds.
    t:
        Per-byte processor delays, shape ``(n,)``, seconds/byte.
    L:
        Fixed *network* latencies, shape ``(n, n)``, symmetric, seconds.
    beta:
        Link transmission rates, shape ``(n, n)``, symmetric, bytes/s.
    gather_irregularity:
        Empirical thresholds/escalations of linear gather, when estimated.
    """

    C: np.ndarray
    t: np.ndarray
    L: np.ndarray
    beta: np.ndarray
    gather_irregularity: Optional[GatherIrregularity] = None

    def __post_init__(self) -> None:
        n = self.C.shape[0]
        if self.t.shape != (n,) or self.L.shape != (n, n) or self.beta.shape != (n, n):
            raise ValueError("inconsistent extended-LMO parameter shapes")
        if not np.allclose(self.L, self.L.T) or not np.allclose(self.beta, self.beta.T):
            raise ValueError("L and beta must be symmetric (single-switch cluster)")
        if (self.C < 0).any() or (self.t < 0).any():
            raise ValueError("negative processor delays")
        if n < 2:
            raise ValueError("a communication model needs n >= 2")

    @property
    def n(self) -> int:
        """Number of processors."""
        return self.C.shape[0]

    # -- precomputed pair matrices (built once, cached on the instance) --------
    @cached_property
    def _pair_alpha(self) -> np.ndarray:
        """``C_i + L_ij + C_j``, shape ``(n, n)``."""
        return (self.C[:, None] + self.L) + self.C[None, :]

    @cached_property
    def _pair_beta(self) -> np.ndarray:
        """``t_i + 1/beta_ij + t_j``, shape ``(n, n)``."""
        with np.errstate(divide="ignore"):
            inv = 1.0 / self.beta
        return (self.t[:, None] + inv) + self.t[None, :]

    # -- point-to-point --------------------------------------------------------
    def p2p_time(self, i: int, j: int, nbytes: float) -> float:
        """``C_i + L_ij + C_j + M (t_i + 1/beta_ij + t_j)``."""
        return float(self.p2p_time_batch(i, j, nbytes))

    def p2p_time_batch(self, i: ArrayLike, j: ArrayLike, nbytes: ArrayLike) -> np.ndarray:
        """Vectorized extended-LMO prediction over broadcastable arrays."""
        ii, jj = validate_rank_batch(self.n, i, j)
        nb = validate_nbytes_batch(nbytes)
        ii, jj = np.broadcast_arrays(ii, jj)
        return broadcast_result(
            self._pair_alpha[ii, jj] + nb * self._pair_beta[ii, jj], ii, nb
        )

    def send_cost(self, i: int, nbytes: float) -> float:
        """Processor-side cost ``C_i + M t_i`` (serialized on a node)."""
        return float(self.send_cost_batch(i, nbytes))

    def send_cost_batch(self, i: ArrayLike, nbytes: ArrayLike) -> np.ndarray:
        """Vectorized :meth:`send_cost` over broadcastable arrays."""
        (ii,) = validate_rank_batch(self.n, i)
        nb = validate_nbytes_batch(nbytes)
        return broadcast_result(self.C[ii] + nb * self.t[ii], ii, nb)

    def wire_and_remote_cost(self, i: int, j: int, nbytes: float) -> float:
        """Everything that happens off the sender: ``L + M/beta + C_j + M t_j``.

        This is the parallelizable part of a transfer through the switch —
        the term inside the ``max`` of formulas (4) and (5).
        """
        return float(self.wire_and_remote_cost_batch(i, j, nbytes))

    def wire_and_remote_cost_batch(
        self, i: ArrayLike, j: ArrayLike, nbytes: ArrayLike
    ) -> np.ndarray:
        """Vectorized :meth:`wire_and_remote_cost` over broadcastable arrays."""
        ii, jj = validate_rank_batch(self.n, i, j)
        nb = validate_nbytes_batch(nbytes)
        ii, jj = np.broadcast_arrays(ii, jj)
        return broadcast_result(
            self.L[ii, jj] + nb / self.beta[ii, jj] + self.C[jj] + nb * self.t[jj],
            ii, nb,
        )

    # -- conversions ----------------------------------------------------------
    def to_heterogeneous_hockney(self) -> HeterogeneousHockneyModel:
        """Exact Hockney view: ``alpha = C_i+L+C_j``, ``beta^H = t_i+1/b+t_j``."""
        alpha = self.C[:, None] + self.L + self.C[None, :]
        np.fill_diagonal(alpha, 0.0)
        with np.errstate(divide="ignore"):
            inv = 1.0 / self.beta
        np.fill_diagonal(inv, 0.0)
        bh = self.t[:, None] + inv + self.t[None, :]
        np.fill_diagonal(bh, 0.0)
        return HeterogeneousHockneyModel(alpha=alpha, beta=bh)

    def to_original_lmo(self) -> LMOModel:
        """Fold latencies back into the fixed delays (the pre-extension
        model): each processor absorbs half of its average link latency."""
        off = ~np.eye(self.n, dtype=bool)
        mean_latency = np.where(off, self.L, np.nan)
        half_latency = np.nanmean(mean_latency, axis=1) / 2.0
        return LMOModel(C=self.C + half_latency, t=self.t.copy(), beta=self.beta.copy())

    def with_irregularity(self, irregularity: GatherIrregularity) -> "ExtendedLMOModel":
        """A copy carrying estimated empirical gather parameters."""
        return ExtendedLMOModel(self.C, self.t, self.L, self.beta, irregularity)

    def to_dict(self) -> dict:
        """Schema-v2 parameter dictionary."""
        params = {"C": encode_array(self.C), "t": encode_array(self.t),
                  "L": encode_array(self.L), "beta": encode_array(self.beta)}
        if self.gather_irregularity is not None:
            params["gather_irregularity"] = self.gather_irregularity.to_dict()
        return params

    @classmethod
    def from_dict(cls, params: dict) -> "ExtendedLMOModel":
        """Inverse of :meth:`to_dict`."""
        irregularity = None
        if "gather_irregularity" in params:
            irregularity = GatherIrregularity.from_dict(params["gather_irregularity"])
        return cls(C=decode_array(params["C"]), t=decode_array(params["t"]),
                   L=decode_array(params["L"]), beta=decode_array(params["beta"]),
                   gather_irregularity=irregularity)

    @staticmethod
    def from_ground_truth(ground_truth, irregularity=None) -> "ExtendedLMOModel":
        """The oracle model: parameters copied from the simulated hardware."""
        return ExtendedLMOModel(
            C=ground_truth.C.copy(),
            t=ground_truth.t.copy(),
            L=ground_truth.L.copy(),
            beta=ground_truth.beta.copy(),
            gather_irregularity=irregularity,
        )
