"""Tests for the noise model."""

import numpy as np
import pytest

from repro.cluster import NoiseModel


def test_disabled_noise_is_identity():
    rng = np.random.default_rng(0)
    model = NoiseModel.none()
    assert not model.enabled
    for d in [0.0, 1e-6, 1.0]:
        assert model.perturb(d, rng) == d


def test_default_noise_is_small_and_positive():
    rng = np.random.default_rng(1)
    model = NoiseModel.default()
    base = 1e-3
    samples = np.array([model.perturb(base, rng) for _ in range(2000)])
    assert (samples > 0).all()
    # Median multiplicative factor ~1, spread ~1%.
    assert np.median(samples) == pytest.approx(base, rel=0.01)
    assert samples.std() / base < 0.2  # spikes allowed but rare


def test_spikes_occur_at_configured_rate():
    rng = np.random.default_rng(2)
    model = NoiseModel(rel_sigma=0.0, spike_prob=0.5, spike_mean=1.0)
    base = 1e-6
    samples = [model.perturb(base, rng) for _ in range(1000)]
    spiked = sum(1 for s in samples if s > 0.01)
    assert 400 < spiked < 600


def test_noise_is_reproducible_per_rng_seed():
    model = NoiseModel.default()
    a = [model.perturb(1.0, np.random.default_rng(7)) for _ in range(1)]
    b = [model.perturb(1.0, np.random.default_rng(7)) for _ in range(1)]
    assert a == b


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        NoiseModel.default().perturb(-1.0, np.random.default_rng(0))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        NoiseModel(rel_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(spike_prob=1.5)


def _perturb_via_normal(model, duration, rng):
    """The lognormal factor drawn as exp(rng.normal(0, sigma))."""
    value = duration
    if model.rel_sigma > 0:
        value *= float(np.exp(rng.normal(0.0, model.rel_sigma)))
    if model.spike_prob > 0 and rng.random() < model.spike_prob:
        value += float(rng.exponential(model.spike_mean))
    return value


@pytest.mark.parametrize("seed", [0, 1, 23])
@pytest.mark.parametrize("rel_sigma", [0.01, 0.05, 0.3])
def test_perturb_draws_the_stream_of_rng_normal(seed, rel_sigma):
    """sigma * standard_normal() is the draw rng.normal(0, sigma) makes:
    the same factors, bit for bit, and the same bits consumed."""
    model = NoiseModel(rel_sigma=rel_sigma, spike_prob=0.01, spike_mean=1e-3)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    durations = np.random.default_rng(seed + 100).uniform(0.0, 1e-3, 2000)
    for duration in durations:
        assert model.perturb(duration, ours) == _perturb_via_normal(
            model, duration, theirs
        )
    assert ours.random() == theirs.random()
