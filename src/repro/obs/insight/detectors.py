"""The live escalation region: ``M1``/``M2`` from the telemetry stream.

The paper's gather irregularity is a *size region*: between ``M1`` and
``M2`` a linear-gather transfer non-deterministically eats a TCP RTO
escalation (~0.2 s).  :func:`repro.estimation.empirical.detect_gather_irregularity`
finds that region offline, from a dedicated size sweep.  This module
finds it *live*, from the transfer telemetry every simulated run
already emits:

* ``sim_transfer_bytes`` — every transfer's size (log2 buckets,
  1 B .. 256 MB);
* ``sim_escalated_transfer_bytes`` — sizes of transfers that ate a
  *natural* (incast) escalation — injected link-loss escalations are
  excluded, they happen at any size and say nothing about the region;
* ``rto_escalation_seconds`` — the escalation delays themselves.

Per size bucket, escalated/transfers is an escalation-probability
estimate; the contiguous run of buckets above :data:`RATE_FLOOR`
brackets the irregularity region at log2 resolution.  The dashboard
shows it next to the residual scorecards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.obs.metrics import bucket_quantile, merged_buckets

__all__ = [
    "DELAY_METRIC",
    "ESCALATED_METRIC",
    "LiveIrregularity",
    "TRANSFER_METRIC",
    "live_irregularity",
]

TRANSFER_METRIC = "sim_transfer_bytes"
ESCALATED_METRIC = "sim_escalated_transfer_bytes"
DELAY_METRIC = "rto_escalation_seconds"

#: A size bucket escalates when at least this share of its transfers did...
RATE_FLOOR = 0.02
#: ...out of at least this many transfers.
MIN_TRANSFERS = 4


@dataclass(frozen=True)
class BucketRate:
    """Escalation probability estimate for one log2 size bucket."""

    upper: float
    transfers: int
    escalated: int

    @property
    def rate(self) -> float:
        return self.escalated / self.transfers if self.transfers else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "upper": self.upper, "transfers": self.transfers,
            "escalated": self.escalated, "rate": self.rate,
        }


@dataclass(frozen=True)
class LiveIrregularity:
    """The irregularity region as seen by live telemetry.

    Log2-bucket resolution: ``m1`` is the lower edge of the first
    escalating bucket, ``m2`` the upper edge of the last — both within a
    factor of 2 of the true thresholds by construction.
    """

    m1: float
    m2: float
    escalation_value: float
    rates: tuple[BucketRate, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "m1": self.m1, "m2": self.m2,
            "escalation_value": self.escalation_value,
            "rates": [r.to_dict() for r in self.rates],
        }


def _counts(family: Optional[Mapping[str, Any]]) -> dict[float, int]:
    """{upper bound: count} of a size histogram's non-empty finite buckets."""
    return {
        float(bound): n for bound, n in merged_buckets(family)
        if bound != "+Inf" and n
    }


def live_irregularity(metrics: Mapping[str, Any]) -> Optional[LiveIrregularity]:
    """The irregularity region of a snapshot's metrics section, or None
    while no size bucket escalates."""
    escalated = _counts(metrics.get(ESCALATED_METRIC))
    slots = {
        upper: (n, escalated.get(upper, 0))
        for upper, n in _counts(metrics.get(TRANSFER_METRIC)).items()
    }
    # Escalated sizes whose transfer twin was clipped (shouldn't happen,
    # but a snapshot is external input): count them anyway.
    for upper, n in escalated.items():
        slots.setdefault(upper, (n, n))
    rates = tuple(
        BucketRate(upper=upper, transfers=n, escalated=hit)
        for upper, (n, hit) in sorted(slots.items())
    )
    escalating = [
        r for r in rates if r.transfers >= MIN_TRANSFERS and r.rate >= RATE_FLOOR
    ]
    if not escalating:
        return None
    delays = []
    for sample in (metrics.get(DELAY_METRIC) or {}).get("samples", ()):
        count = int(sample["count"])
        if count and sample.get("labels", {}).get("cause") in (None, "incast"):
            delays.append(bucket_quantile(sample["buckets"], count, 0.50))
    delays.sort()
    return LiveIrregularity(
        m1=escalating[0].upper / 2.0,
        m2=escalating[-1].upper,
        escalation_value=delays[len(delays) // 2] if delays else 0.0,
        rates=rates,
    )
