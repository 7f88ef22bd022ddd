"""Measurement / OS noise model for the simulated cluster.

Real clusters never produce perfectly repeatable timings: scheduler jitter,
cache state and interrupt handling perturb every stage.  The paper copes by
repeating measurements to a 95% confidence level with 2.5% relative error;
for that statistical machinery to be exercised meaningfully, the simulator
must be noisy too.

:class:`NoiseModel` perturbs every activity duration with

* multiplicative lognormal noise (relative sigma ``rel_sigma``), and
* rare additive OS-jitter spikes (probability ``spike_prob``, exponential
  magnitude ``spike_mean``), mimicking daemon wakeups.

``NoiseModel.none()`` disables both — runs become bit-for-bit deterministic,
which exactness tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseModel"]


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic perturbation of activity durations."""

    #: Relative sigma of the multiplicative lognormal factor.
    rel_sigma: float = 0.01
    #: Probability of an additive OS-jitter spike per activity.
    spike_prob: float = 0.001
    #: Mean of the exponential spike magnitude (seconds).
    spike_mean: float = 1e-3

    def __post_init__(self) -> None:
        if self.rel_sigma < 0 or not (0 <= self.spike_prob <= 1) or self.spike_mean < 0:
            raise ValueError(f"invalid noise parameters: {self}")

    @property
    def enabled(self) -> bool:
        """False when this model never perturbs anything."""
        return self.rel_sigma > 0 or self.spike_prob > 0

    def perturb(self, duration: float, rng: np.random.Generator) -> float:
        """A noisy version of ``duration`` (never negative)."""
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        value = duration
        if self.rel_sigma > 0:
            # Lognormal with unit median: exp(N(0, sigma)).  numpy draws
            # rng.normal(0.0, sigma) as 0.0 + sigma * standard_normal(), so
            # this is the same stream without normal()'s argument handling.
            value *= float(np.exp(self.rel_sigma * rng.standard_normal()))
        if self.spike_prob > 0 and rng.random() < self.spike_prob:
            value += float(rng.exponential(self.spike_mean))
        return value

    @staticmethod
    def none() -> "NoiseModel":
        """A disabled noise model (deterministic simulation)."""
        return NoiseModel(rel_sigma=0.0, spike_prob=0.0, spike_mean=0.0)

    @staticmethod
    def default() -> "NoiseModel":
        """The standard mild noise used for 'observed' measurements."""
        return NoiseModel()
