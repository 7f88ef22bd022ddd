"""Tests for confidence intervals, adaptive repetition and outlier screening."""

import numpy as np
import pytest

from repro.stats import (
    MeasurementPolicy,
    measure_until_confident,
    summarize,
    t_confidence_halfwidth,
)


# --------------------------------------------------------------------- CI
def test_halfwidth_zero_for_single_sample():
    assert t_confidence_halfwidth([1.0]) == 0.0


def test_halfwidth_zero_for_constant_samples():
    assert t_confidence_halfwidth([2.0, 2.0, 2.0]) == 0.0


def test_halfwidth_shrinks_with_sample_count():
    rng = np.random.default_rng(0)
    base = rng.normal(1.0, 0.1, size=400)
    assert t_confidence_halfwidth(base[:10]) > t_confidence_halfwidth(base)


def test_halfwidth_grows_with_confidence():
    samples = [1.0, 1.1, 0.9, 1.05, 0.95]
    assert t_confidence_halfwidth(samples, 0.99) > t_confidence_halfwidth(samples, 0.9)


def test_summarize_fields():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.count == 3
    assert s.minimum == 1.0 and s.maximum == 3.0
    assert s.std == pytest.approx(1.0)
    assert s.relative_error > 0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_within_threshold():
    s = summarize([1.0, 1.0, 1.0])
    assert s.within(0.01)


# ----------------------------------------------------------------- adaptive
def test_policy_validation():
    with pytest.raises(ValueError):
        MeasurementPolicy(confidence=1.5)
    with pytest.raises(ValueError):
        MeasurementPolicy(rel_err=0)
    with pytest.raises(ValueError):
        MeasurementPolicy(min_reps=10, max_reps=5)


def test_paper_policy_values():
    policy = MeasurementPolicy.paper()
    assert policy.confidence == 0.95
    assert policy.rel_err == 0.025


def test_fixed_policy_runs_exactly_n():
    calls = []
    policy = MeasurementPolicy.fixed(7)
    summary = measure_until_confident(lambda: calls.append(1) or 1.0, policy)
    assert summary.count == 7 and len(calls) == 7


def test_adaptive_stops_early_for_stable_measurements():
    policy = MeasurementPolicy(min_reps=3, max_reps=100)
    summary = measure_until_confident(lambda: 1.0, policy)
    assert summary.count == 3


def test_adaptive_keeps_sampling_noisy_measurements():
    rng = np.random.default_rng(1)
    policy = MeasurementPolicy(min_reps=3, max_reps=50, rel_err=0.001)
    summary = measure_until_confident(lambda: float(rng.normal(1, 0.3)), policy)
    assert summary.count == 50  # never reached 0.1% precision


def test_adaptive_reaches_paper_precision():
    rng = np.random.default_rng(2)
    summary = measure_until_confident(
        lambda: float(rng.normal(1, 0.02)), MeasurementPolicy.paper()
    )
    assert summary.within(0.025)
    assert summary.count < 100


# ------------------------------------------------------------------- robust
def test_mad_outlier_mask_flags_the_spike():
    from repro.stats import mad_outlier_mask

    rng = np.random.default_rng(0)
    samples = list(rng.normal(1.0, 0.01, size=50)) + [2.0]
    mask = mad_outlier_mask(samples)
    assert mask[-1]
    assert mask[:-1].sum() == 0


def test_mad_outlier_mask_constant_batch_has_none():
    from repro.stats import mad_outlier_mask

    assert not mad_outlier_mask([3.0, 3.0, 3.0]).any()
    with pytest.raises(ValueError):
        mad_outlier_mask([], 5.0)
    with pytest.raises(ValueError):
        mad_outlier_mask([1.0], 0.0)
