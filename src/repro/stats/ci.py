"""Confidence intervals and summary statistics for timing samples.

MPIBlib [12] (the paper's benchmarking library) repeats each measurement
until the Student-t confidence interval is narrower than a requested
relative error at a requested confidence level (the paper uses 95% / 2.5%
throughout).  :class:`SampleSummary` packages one such batch of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SampleSummary",
    "mad_outlier_mask",
    "summarize",
    "t_confidence_halfwidth",
]


def t_confidence_halfwidth(samples: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the Student-t CI of the mean (0 for < 2 samples)."""
    data = np.asarray(samples, dtype=float)
    if data.size < 2:
        return 0.0
    sem = data.std(ddof=1) / np.sqrt(data.size)
    if sem == 0.0:
        return 0.0
    # The Student-t quantile scipy.stats.t.ppf evaluates.  scipy.special
    # is imported here, at the first interval, so that importing the
    # package (and serving, estimating or running a campaign, which
    # compute no interval) does not load scipy.
    from scipy.special import stdtrit

    t_crit = stdtrit(data.size - 1, 0.5 + confidence / 2.0)
    return float(t_crit * sem)


@dataclass(frozen=True)
class SampleSummary:
    """Summary of repeated measurements of one quantity."""

    mean: float
    std: float
    count: int
    ci_halfwidth: float
    confidence: float
    minimum: float
    maximum: float

    @property
    def relative_error(self) -> float:
        """CI half-width over mean (inf for a zero mean)."""
        if self.mean == 0.0:
            return 0.0 if self.ci_halfwidth == 0.0 else float("inf")
        return self.ci_halfwidth / abs(self.mean)

    def within(self, rel_err: float) -> bool:
        """True when the CI is at least as tight as ``rel_err``."""
        return self.relative_error <= rel_err


def summarize(samples: Sequence[float], confidence: float = 0.95) -> SampleSummary:
    """Summarize a batch of samples with a Student-t CI."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample batch")
    return SampleSummary(
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        count=int(data.size),
        ci_halfwidth=t_confidence_halfwidth(data, confidence),
        confidence=confidence,
        minimum=float(data.min()),
        maximum=float(data.max()),
    )


def mad_outlier_mask(samples: Sequence[float], threshold: float = 5.0) -> np.ndarray:
    """Boolean mask of outliers by the MAD rule.

    A sample is an outlier when it deviates from the median by more than
    ``threshold`` times the median absolute deviation (scaled to be
    consistent with a normal sigma).  All-equal batches have no outliers.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot screen an empty sample batch")
    median = np.median(data)
    mad = np.median(np.abs(data - median)) * 1.4826
    if mad == 0.0:
        return np.zeros(data.size, dtype=bool)
    return np.abs(data - median) > threshold * mad
