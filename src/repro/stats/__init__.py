"""Measurement statistics: confidence intervals, adaptive repetition, outlier screening."""

from repro.stats.adaptive import MeasurementPolicy, measure_until_confident
from repro.stats.ci import (
    SampleSummary,
    mad_outlier_mask,
    summarize,
    t_confidence_halfwidth,
)

__all__ = [
    "MeasurementPolicy",
    "SampleSummary",
    "mad_outlier_mask",
    "measure_until_confident",
    "summarize",
    "t_confidence_halfwidth",
]
