"""The LogP model [Culler et al., PPoPP 1993] (paper Sec. II).

LogP describes communication of *small fixed-size* packets with four
parameters: latency ``L`` (constant network contribution), overhead ``o``
(constant processor contribution), gap ``g`` (minimum inter-message time,
the reciprocal of per-message bandwidth — a mixed contribution), and the
processor count ``P``.

A point-to-point message costs ``L + 2o``.  Large messages are modelled as
a train of ``ceil(M / w)`` packets of the underlying packet size ``w``:
``L + 2o + (k - 1) g``.  The paper abbreviates this as ``L + 2o + M g``
("in the formula for a series the gap parameter will be used"), which our
:meth:`LogPModel.p2p_time` reproduces with ``w`` configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import (
    ArrayLike,
    broadcast_result,
    validate_nbytes_batch,
    validate_rank_batch,
)

__all__ = ["LogPModel"]


@dataclass(frozen=True)
class LogPModel:
    """Homogeneous LogP parameters.

    Attributes
    ----------
    L:
        Latency upper bound, seconds (constant network contribution).
    o:
        Send/receive overhead, seconds (constant processor contribution).
    g:
        Gap between consecutive packets, seconds (mixed variable
        contribution).
    P:
        Number of processors.
    packet_bytes:
        Packet size ``w`` used to decompose large messages (LogP itself
        leaves this implicit; Ethernet's MTU is the natural choice).
    """

    L: float
    o: float
    g: float
    P: int
    packet_bytes: int = 1500

    def __post_init__(self) -> None:
        if min(self.L, self.o, self.g) < 0:
            raise ValueError(f"negative LogP parameters: {self}")
        if self.P < 2:
            raise ValueError("a communication model needs P >= 2")
        if self.packet_bytes < 1:
            raise ValueError("packet_bytes must be >= 1")

    @property
    def n(self) -> int:
        """Processor count (protocol-compatible alias of ``P``)."""
        return self.P

    def packets(self, nbytes: float) -> int:
        """Number of packets a message of ``nbytes`` decomposes into."""
        return int(self.packets_batch(nbytes))

    def packets_batch(self, nbytes: ArrayLike) -> np.ndarray:
        """Packet counts ``ceil(trunc(M) / w)`` (one for an empty message)
        over an array of sizes, as floats with exact integer values."""
        nb = validate_nbytes_batch(nbytes)
        k = np.ceil(np.trunc(nb) / self.packet_bytes)
        return np.where(nb == 0, 1.0, k)

    def p2p_time(self, i: int, j: int, nbytes: float) -> float:
        """``L + 2o + (k-1) g`` for a k-packet message."""
        return float(self.p2p_time_batch(i, j, nbytes))

    def p2p_time_batch(self, i: ArrayLike, j: ArrayLike, nbytes: ArrayLike) -> np.ndarray:
        """Vectorized packet-train prediction over broadcastable arrays."""
        validate_rank_batch(self.P, i, j)
        packets = self.packets_batch(nbytes)
        return broadcast_result(self.L + 2 * self.o + (packets - 1) * self.g, i, j, packets)

    def bandwidth(self) -> float:
        """End-to-end bandwidth implied by the gap, bytes/second."""
        return self.packet_bytes / self.g if self.g > 0 else float("inf")

    def to_dict(self) -> dict:
        """Schema-v2 parameter dictionary."""
        return {"L": self.L, "o": self.o, "g": self.g, "P": self.P,
                "packet_bytes": self.packet_bytes}

    @classmethod
    def from_dict(cls, params: dict) -> "LogPModel":
        """Inverse of :meth:`to_dict`."""
        return cls(L=params["L"], o=params["o"], g=params["g"], P=params["P"],
                   packet_bytes=params.get("packet_bytes", 1500))
