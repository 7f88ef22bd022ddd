"""Streaming residual monitors: is each model still predicting reality?

A *residual* is one (prediction, measurement) pair reduced to its signed
relative error ``(predicted - measured) / measured`` — the same
convention as :mod:`repro.analysis.accuracy` (positive = pessimistic,
negative = optimistic).  :class:`ResidualMonitor` ingests pairs from
``api.measure(models=...)`` and maintainer spot-checks, and folds them
into the ordinary metrics registry:

* ``residual_abs_error`` — histogram of |signed error| per
  (model, operation, bucket), giving count / mean / p50 / p95 through
  :func:`repro.obs.metrics.bucket_quantile`;
* ``residual_signed_error_sum`` — running signed-error sum per child
  (bias = sum / count);
* ``residual_max_abs_error`` — worst |error| seen per child.

Because the aggregates live in the registry, scorecards can be rebuilt
from *any* metrics snapshot — a live session or a ``--metrics-out`` file
— which is what ``repro obs dashboard`` does.

Size buckets are powers of two (the upper bound, as a string label):
message-size regimes are the paper's unit of model error, and log2 edges
match both the histogram layer and the gather irregularity thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.obs import runtime as _runtime
from repro.obs.metrics import MetricsRegistry, bucket_quantile, merged_buckets

__all__ = [
    "ABS_ERROR_METRIC",
    "BucketScore",
    "MAX_ERROR_METRIC",
    "ResidualMonitor",
    "ResidualRecord",
    "SIGNED_SUM_METRIC",
    "Scorecard",
    "render_scorecards",
    "scorecards",
    "size_bucket",
]

ABS_ERROR_METRIC = "residual_abs_error"
SIGNED_SUM_METRIC = "residual_signed_error_sum"
MAX_ERROR_METRIC = "residual_max_abs_error"

#: |relative error| histograms span 2**-20 (~1e-6, exact) .. 2**4 (16x off).
_ERR_LO = -20
_ERR_HI = 4


def size_bucket(nbytes: float) -> str:
    """Power-of-two size-regime label: the smallest 2**k >= nbytes."""
    n = int(math.ceil(float(nbytes)))
    if n <= 1:
        return "1"
    return str(1 << (n - 1).bit_length())


@dataclass(frozen=True)
class ResidualRecord:
    """One ingested (prediction, measurement) pair, reduced."""

    model: str
    operation: str
    nbytes: int
    predicted: float
    measured: float
    signed_error: float

    @property
    def abs_error(self) -> float:
        return abs(self.signed_error)

    @property
    def bucket(self) -> str:
        return size_bucket(self.nbytes)


class ResidualMonitor:
    """Folds (prediction, measurement) pairs into residual metrics.

    With no explicit ``registry`` the monitor targets whatever telemetry
    session is active *at ingest time* — and is a silent no-op while
    telemetry is off, so instrumented call sites need no guard of their
    own beyond the usual ``ACTIVE is None`` fast path.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry

    def _target(self) -> Optional[MetricsRegistry]:
        if self._registry is not None:
            return self._registry
        tel = _runtime.ACTIVE
        return tel.registry if tel is not None else None

    def record(
        self,
        model: str,
        operation: str,
        nbytes: int,
        predicted: float,
        measured: float,
    ) -> Optional[ResidualRecord]:
        """Ingest one pair; returns the reduced record (None if dropped).

        Pairs with a non-positive or non-finite measurement are dropped —
        a relative error against zero is undefined, not infinite.
        """
        reg = self._target()
        if reg is None:
            return None
        predicted = float(predicted)
        measured = float(measured)
        if not (math.isfinite(predicted) and math.isfinite(measured)) or measured <= 0:
            return None
        signed = (predicted - measured) / measured
        record = ResidualRecord(
            model=str(model), operation=str(operation), nbytes=int(nbytes),
            predicted=predicted, measured=measured, signed_error=signed,
        )
        labels = dict(model=record.model, operation=record.operation,
                      bucket=record.bucket)
        reg.histogram(
            ABS_ERROR_METRIC, "abs relative prediction error",
            lo=_ERR_LO, hi=_ERR_HI, **labels,
        ).observe(record.abs_error)
        reg.gauge(
            SIGNED_SUM_METRIC, "running signed relative error sum", **labels
        ).inc(signed)
        worst = reg.gauge(
            MAX_ERROR_METRIC, "worst abs relative error seen", **labels
        )
        if record.abs_error > worst.value:
            worst.set(record.abs_error)
        return record


# -- scorecards -------------------------------------------------------------------
@dataclass(frozen=True)
class BucketScore:
    """Residual aggregates for one (model, operation, size bucket)."""

    bucket: str
    count: int
    mean_abs_error: float
    bias: float
    p50: float
    p95: float
    max_abs_error: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "bucket": self.bucket, "count": self.count,
            "mean_abs_error": self.mean_abs_error, "bias": self.bias,
            "p50": self.p50, "p95": self.p95,
            "max_abs_error": self.max_abs_error,
        }


@dataclass(frozen=True)
class Scorecard:
    """Calibration of one model on one operation, across size buckets.

    The top-level numbers mirror :class:`repro.analysis.accuracy.ModelScore`
    (mean/max relative error, signed bias, point count); the per-bucket
    breakdown is what a one-shot accuracy table cannot give you.
    """

    model: str
    operation: str
    count: int
    mean_abs_error: float
    bias: float
    p50: float
    p95: float
    max_abs_error: float
    buckets: tuple[BucketScore, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model, "operation": self.operation,
            "count": self.count, "mean_abs_error": self.mean_abs_error,
            "bias": self.bias, "p50": self.p50, "p95": self.p95,
            "max_abs_error": self.max_abs_error,
            "buckets": [b.to_dict() for b in self.buckets],
        }


def scorecards(metrics: Mapping[str, Any]) -> list[Scorecard]:
    """Rebuild every scorecard from a metrics snapshot section.

    ``metrics`` is the ``"metrics"`` mapping of a snapshot document (or
    ``registry.snapshot()`` of a live session).  Returns one card per
    (model, operation), sorted by model then operation.
    """
    hist_family = metrics.get(ABS_ERROR_METRIC)
    if not hist_family:
        return []
    grouped: dict[tuple[str, str], list[Mapping[str, Any]]] = {}
    for sample in hist_family.get("samples", ()):
        labels = sample.get("labels", {})
        key = (str(labels.get("model", "")), str(labels.get("operation", "")))
        grouped.setdefault(key, []).append(sample)
    # Each gauge family read once, keyed by child: looking a bucket up
    # with family_sum would rescan the family for every bucket.
    signed, worst = (
        {
            tuple(sorted(sample.get("labels", {}).items())): float(sample["value"])
            for sample in (metrics.get(name) or {}).get("samples", ())
        }
        for name in (SIGNED_SUM_METRIC, MAX_ERROR_METRIC)
    )

    cards: list[Scorecard] = []
    for (model, operation), samples in sorted(grouped.items()):
        bucket_scores: list[BucketScore] = []
        for sample in sorted(
            samples, key=lambda s: int(s.get("labels", {}).get("bucket", "0"))
        ):
            labels = sample.get("labels", {})
            count = int(sample["count"])
            if count == 0:
                continue
            child = tuple(sorted(labels.items()))
            bucket_scores.append(BucketScore(
                bucket=str(labels.get("bucket", "")),
                count=count,
                mean_abs_error=float(sample["sum"]) / count,
                bias=signed.get(child, 0.0) / count,
                p50=bucket_quantile(sample["buckets"], count, 0.50),
                p95=bucket_quantile(sample["buckets"], count, 0.95),
                max_abs_error=worst.get(child, 0.0),
            ))
        if not bucket_scores:
            continue
        total = sum(b.count for b in bucket_scores)
        merged = merged_buckets({"samples": samples})
        cards.append(Scorecard(
            model=model,
            operation=operation,
            count=total,
            mean_abs_error=sum(float(s["sum"]) for s in samples) / total,
            bias=sum(b.bias * b.count for b in bucket_scores) / total,
            p50=bucket_quantile(merged, total, 0.50),
            p95=bucket_quantile(merged, total, 0.95),
            max_abs_error=max(b.max_abs_error for b in bucket_scores),
            buckets=tuple(bucket_scores),
        ))
    return cards


def render_scorecards(cards: list[Scorecard]) -> str:
    """Terminal table in the :meth:`AccuracyReport.render` style."""
    if not cards:
        return "residual scorecards: (no pairs ingested)"
    lines = [
        f"{'model':<14} {'operation':<12} {'n':>5} {'mean err':>9} "
        f"{'p50':>7} {'p95':>7} {'worst':>7} {'bias':>12}"
    ]
    for card in sorted(cards, key=lambda c: c.mean_abs_error):
        tendency = "pessimistic" if card.bias > 0 else "optimistic"
        lines.append(
            f"{card.model:<14} {card.operation:<12} {card.count:>5} "
            f"{card.mean_abs_error:>8.1%} {card.p50:>6.1%} {card.p95:>6.1%} "
            f"{card.max_abs_error:>6.1%} {card.bias:>+7.1%} ({tendency[:4]})"
        )
    return "\n".join(lines)
