"""Robust estimation path: timeouts, retries, rejection, quarantine."""

import numpy as np
import pytest

from repro.cluster import (
    FaultInjector,
    FaultPlan,
    FlakyLink,
    GroundTruth,
    IDEAL,
    LAM_7_1_3,
    NodeHang,
    NoiseModel,
    SimulatedCluster,
    random_cluster,
)
from repro.estimation import (
    AnalyticEngine,
    CampaignConfig,
    DESEngine,
    EstimationFailure,
    RetryPolicy,
    estimate_extended_lmo,
    estimate_extended_lmo_robust,
    roundtrip,
    run_schedule,
    run_schedule_robust,
)
from repro.estimation.robust import screened_mean
from repro.mpi.runtime import DeadlockError

KB = 1024


def quiet_cluster(n=5, seed=3):
    gt = GroundTruth.random(n, seed=seed)
    return SimulatedCluster(
        random_cluster(n, seed=seed), ground_truth=gt,
        profile=IDEAL, noise=NoiseModel.none(), seed=seed,
    )


class StubEngine:
    """Scripted engine: per-call durations, optional deadlock schedule."""

    def __init__(self, durations, deadlock_first=0):
        self.durations = durations
        self.deadlocks_left = deadlock_first
        self.n = 3
        self.estimation_time = 0.0
        self.calls = 0

    def _next(self, exp):
        if self.deadlocks_left > 0:
            self.deadlocks_left -= 1
            raise DeadlockError("stub stuck")
        self.calls += 1
        value = self.durations(exp, self.calls) if callable(self.durations) else self.durations
        self.estimation_time += value
        return value

    def run(self, exp):
        return self._next(exp)

    def run_batch(self, exps):
        if self.deadlocks_left > 0:
            self.deadlocks_left -= 1
            raise DeadlockError("stub stuck")
        return [self._next(exp) for exp in exps]


# -- RetryPolicy / screened_mean ----------------------------------------------

def test_retry_policy_validation():
    with pytest.raises(ValueError, match="timeout"):
        RetryPolicy(timeout=0)
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError, match="mad_threshold"):
        RetryPolicy(mad_threshold=0)


@pytest.mark.parametrize("kwargs", [
    {"timeout": float("nan")},
    {"timeout": float("inf")},
    {"timeout": True},
    {"backoff": float("nan")},
    {"backoff": float("inf")},
    {"mad_threshold": float("nan")},
    {"max_retries": 2.5},
])
def test_retry_policy_is_as_strict_as_the_campaign_config(kwargs):
    """One validation: a campaign's measurement discipline is a
    RetryPolicy, so both refuse the same values."""
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        RetryPolicy(**kwargs)
    with pytest.raises(ValueError, match=name):
        CampaignConfig(**kwargs)


def test_screened_mean_drops_the_spike():
    assert screened_mean([1.0, 1.01, 0.99, 250.0]) == pytest.approx(1.0, rel=0.02)
    assert screened_mean([2.0, 4.0]) == 3.0  # too few samples to screen
    with pytest.raises(ValueError, match="empty"):
        screened_mean([])


# -- run_schedule_robust -------------------------------------------------------

def test_clean_run_matches_plain_schedule():
    experiments = [roundtrip(0, 1, 8 * KB), roundtrip(2, 3, 8 * KB)]
    plain = run_schedule(DESEngine(quiet_cluster()), experiments, reps=3)
    robust, stats = run_schedule_robust(DESEngine(quiet_cluster()), experiments, reps=3)
    for exp in experiments:
        assert robust[exp] == pytest.approx(plain[exp], rel=1e-12)
    assert stats.timeouts == 0
    assert stats.retries == 0
    assert stats.deadlocks == 0
    assert not stats.degraded


def test_escalations_are_timed_out_and_remeasured():
    cluster = quiet_cluster()
    cluster.profile = LAM_7_1_3
    baseline = run_schedule(DESEngine(quiet_cluster()), [roundtrip(0, 1, 8 * KB)], reps=3)
    cluster.attach_injector(FaultInjector(FaultPlan(
        faults=(FlakyLink(a=0, b=1, loss_prob=0.5),), seed=9,
    )))
    results, stats = run_schedule_robust(
        DESEngine(cluster), [roundtrip(0, 1, 8 * KB)], reps=3,
    )
    assert stats.timeouts > 0
    # The surviving value is escalation-free: within a whisker of the
    # fault-free measurement, nowhere near the ~0.2 s RTO.
    clean = baseline[roundtrip(0, 1, 8 * KB)]
    assert results[roundtrip(0, 1, 8 * KB)] == pytest.approx(clean, rel=1e-6)


def test_persistently_slow_experiment_degrades_gracefully():
    policy = RetryPolicy(timeout=1e-4, max_retries=2, backoff=2.0)
    engine = StubEngine(durations=5e-3)  # always 50x over budget
    exp = roundtrip(0, 1, KB)
    results, stats = run_schedule_robust(engine, [exp], reps=2, policy=policy)
    assert results[exp] == 5e-3  # least-contaminated observation kept
    assert stats.degraded == [exp]
    assert stats.retries == policy.max_retries


def test_deadlocked_batches_recover_via_serial_retries():
    engine = StubEngine(durations=1e-3, deadlock_first=2)
    exps = [roundtrip(0, 1, KB), roundtrip(0, 2, KB)]
    results, stats = run_schedule_robust(
        engine, exps, reps=2, policy=RetryPolicy(timeout=0.05),
    )
    assert stats.deadlocks == 2
    assert all(results[exp] == 1e-3 for exp in exps)


def test_unrecoverable_experiment_raises_estimation_failure():
    engine = StubEngine(durations=1e-3, deadlock_first=10**6)
    with pytest.raises(EstimationFailure, match="no sample"):
        run_schedule_robust(
            engine, [roundtrip(0, 1, KB)], reps=1,
            policy=RetryPolicy(timeout=0.05, max_retries=2),
        )


def test_outlier_samples_are_screened():
    exp = roundtrip(0, 1, KB)
    # Tiny per-call jitter keeps the MAD positive so the spike is screenable.
    spiky = StubEngine(
        durations=lambda _exp, call: 4e-2 if call == 1 else 1e-3 + call * 1e-7,
    )
    results, stats = run_schedule_robust(
        spiky, [exp], reps=5, policy=RetryPolicy(timeout=0.05),
    )
    assert stats.dropped_outliers == 1
    assert results[exp] == pytest.approx(1e-3, rel=1e-3)


def test_rejects_bad_reps():
    with pytest.raises(ValueError, match="reps"):
        run_schedule_robust(StubEngine(1e-3), [roundtrip(0, 1, KB)], reps=0)


# -- estimate_extended_lmo_robust ---------------------------------------------

def test_clean_cluster_matches_plain_estimate():
    robust = estimate_extended_lmo_robust(DESEngine(quiet_cluster()), reps=2)
    plain = estimate_extended_lmo(DESEngine(quiet_cluster()), reps=2)
    np.testing.assert_allclose(robust.model.C, plain.model.C, rtol=1e-9, atol=1e-12)
    # Per-triplet t estimates spread even noiselessly (DES discretization),
    # so the robust reduction may clamp a near-zero t that the plain mean
    # leaves slightly positive; sub-nanosecond agreement is exactness here.
    np.testing.assert_allclose(robust.model.t, plain.model.t, atol=1e-9)
    np.testing.assert_allclose(robust.model.L, plain.model.L, rtol=1e-9, atol=1e-12)
    assert robust.clean
    assert robust.total_triplets == 10
    assert "clean run" in robust.summary()


def test_flaky_link_does_not_poison_the_model():
    clean_cluster = quiet_cluster(n=5)
    clean_cluster.profile = LAM_7_1_3
    clean = estimate_extended_lmo_robust(DESEngine(clean_cluster), reps=3)
    cluster = quiet_cluster(n=5)
    cluster.profile = LAM_7_1_3
    cluster.attach_injector(FaultInjector(FaultPlan(
        faults=(FlakyLink(a=0, b=3, loss_prob=0.4),), seed=5,
    )))
    result = estimate_extended_lmo_robust(DESEngine(cluster), reps=3)
    assert result.run_stats.timeouts > 0
    # The escalations were filtered, not averaged in: the faulty-cluster
    # estimate matches the fault-free one (an RTO is ~0.2 s, four orders
    # of magnitude above these parameters — any leakage would show).
    np.testing.assert_allclose(result.model.C, clean.model.C, rtol=0.05, atol=2e-6)
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_allclose(
        result.model.L[off], clean.model.L[off], rtol=0.25, atol=5e-6,
    )


def test_hangs_are_survived():
    cluster = quiet_cluster(n=4)
    cluster.attach_injector(FaultInjector(FaultPlan(
        faults=(NodeHang(node=1, start=0.0, duration=0.02),),
    )))
    result = estimate_extended_lmo_robust(DESEngine(cluster), reps=2)
    assert cluster.injector.stats.hang_stalls > 0
    assert (result.model.C >= 0).all()


def test_inconsistent_node_is_quarantined_and_reported():
    truth = GroundTruth.random(5, seed=11)

    class CorruptingEngine(AnalyticEngine):
        """Shrinks every one-to-two rooted at node 2: its solved C_2 goes
        negative, so every triplet containing node 2 turns unphysical."""

        def run(self, exp):
            value = super().run(exp)
            if exp.kind == "one_to_two" and 2 in exp.nodes:
                value *= 0.4
            return value

        def run_batch(self, exps):
            return [self.run(exp) for exp in exps]

    result = estimate_extended_lmo_robust(CorruptingEngine(truth), reps=1)
    assert result.quarantined == [2]
    assert result.rejected_triplets
    assert all(2 in nodes for nodes in result.rejected_triplets)
    assert not result.clean
    assert "quarantined nodes: [2]" in result.summary()
    # The healthy nodes' parameters survive untouched by the corruption.
    for node in (0, 1, 3, 4):
        assert result.model.C[node] == pytest.approx(truth.C[node], rel=1e-6)
    # The model is still physical even for the quarantined node.
    assert (result.model.C >= 0).all()
    assert (result.model.t >= 0).all()


def test_robust_estimate_validates_inputs():
    engine = DESEngine(quiet_cluster())
    with pytest.raises(ValueError, match="probe_nbytes"):
        estimate_extended_lmo_robust(engine, probe_nbytes=0)
    with pytest.raises(ValueError, match="quarantine_fraction"):
        estimate_extended_lmo_robust(engine, quarantine_fraction=0.0)
    with pytest.raises(ValueError, match="unmeasured"):
        estimate_extended_lmo_robust(engine, triplets=[(0, 1, 2)])
