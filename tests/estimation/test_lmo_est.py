"""Tests for the LMO estimation procedure (paper eqs. 6-12).

The gold standard: against the analytic oracle (which evaluates the
paper's equations exactly), the estimator must recover the ground truth to
machine precision.  Against the DES, the recovered model must *predict*
point-to-point times accurately even though the C/L split shifts (receive
processing overlaps in the real pipeline; the roundtrip-observable sums
``C_i + L_ij + C_j`` are preserved exactly).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.estimation import (
    AnalyticEngine,
    DESEngine,
    estimate_extended_lmo,
    star_triplets,
)

KB = 1024


def off_diag(n):
    return ~np.eye(n, dtype=bool)


# ---------------------------------------------------------- analytic oracle
@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 7), seed=st.integers(0, 1000))
def test_exact_recovery_from_analytic_engine(n, seed):
    """Noiseless equations in => exact parameters out (all four kinds)."""
    gt = GroundTruth.random(n, seed=seed)
    result = estimate_extended_lmo(AnalyticEngine(gt), reps=1)
    mask = off_diag(n)
    assert np.allclose(result.model.C, gt.C, rtol=1e-9)
    assert np.allclose(result.model.t, gt.t, rtol=1e-6)
    assert np.allclose(result.model.L[mask], gt.L[mask], rtol=1e-9)
    assert np.allclose(result.model.beta[mask], gt.beta[mask], rtol=1e-6)


def test_exact_recovery_with_star_triplets():
    gt = GroundTruth.random(8, seed=5)
    result = estimate_extended_lmo(AnalyticEngine(gt), triplets=star_triplets(8), reps=1)
    mask = off_diag(8)
    assert np.allclose(result.model.C, gt.C, rtol=1e-9)
    assert np.allclose(result.model.L[mask], gt.L[mask], rtol=1e-9)


def test_noisy_analytic_recovery_improves_with_reps():
    gt = GroundTruth.random(5, seed=6)
    noise = NoiseModel(rel_sigma=0.02, spike_prob=0.0)

    def c_error(reps, seed):
        engine = AnalyticEngine(gt, noise=noise, seed=seed)
        result = estimate_extended_lmo(engine, reps=reps, clamp=True)
        return np.abs(result.model.C - gt.C).max()

    few = np.mean([c_error(1, s) for s in range(5)])
    many = np.mean([c_error(10, s) for s in range(5)])
    assert many < few


def test_redundant_samples_counted_per_eq12():
    """C_i comes from C(n-1,2) triplets, L_ij from n-2 (paper eq. 12)."""
    n = 6
    gt = GroundTruth.random(n, seed=7)
    result = estimate_extended_lmo(AnalyticEngine(gt), reps=1)
    assert all(len(v) == (n - 1) * (n - 2) // 2 for v in result.c_samples.values())
    assert all(len(v) == (n - 1) * (n - 2) // 2 for v in result.t_samples.values())
    assert all(len(v) == n - 2 for v in result.l_samples.values())
    assert all(len(v) == n - 2 for v in result.beta_samples.values())


def test_parameter_spread_is_zero_for_noiseless_oracle():
    gt = GroundTruth.random(5, seed=8)
    result = estimate_extended_lmo(AnalyticEngine(gt), reps=1)
    spread = result.parameter_spread()
    assert all(value < 1e-6 for value in spread.values())


# ------------------------------------------------------------------ the DES
def test_des_recovery_preserves_roundtrip_sums_exactly():
    """C_i + L_ij + C_j (the Hockney alpha) is identified exactly even on
    the DES: it is directly observable in the empty roundtrip."""
    n = 6
    gt = GroundTruth.random(n, seed=9)
    cluster = SimulatedCluster(random_cluster(n, seed=9), ground_truth=gt,
                               profile=IDEAL, noise=NoiseModel.none(), seed=9)
    result = estimate_extended_lmo(DESEngine(cluster), reps=1, clamp=True)
    est, truth = result.model, gt
    est_alpha = est.C[:, None] + est.L + est.C[None, :]
    true_alpha = truth.C[:, None] + truth.L + truth.C[None, :]
    mask = off_diag(n)
    assert np.allclose(est_alpha[mask], true_alpha[mask], rtol=1e-9)


def test_des_recovery_predicts_p2p_times_well():
    n = 6
    gt = GroundTruth.random(n, seed=10)
    cluster = SimulatedCluster(random_cluster(n, seed=10), ground_truth=gt,
                               profile=IDEAL, noise=NoiseModel.none(), seed=10)
    model = estimate_extended_lmo(DESEngine(cluster), reps=1, clamp=True).model
    for M in [0, 4 * KB, 64 * KB]:
        for i, j in [(0, 1), (2, 5), (3, 4)]:
            assert model.p2p_time(i, j, M) == pytest.approx(gt.p2p_time(i, j, M), rel=0.06)


def test_des_recovery_with_noise_stays_reasonable():
    n = 5
    gt = GroundTruth.random(n, seed=11)
    cluster = SimulatedCluster(random_cluster(n, seed=11), ground_truth=gt,
                               profile=IDEAL, noise=NoiseModel(rel_sigma=0.01, spike_prob=0),
                               seed=11)
    model = estimate_extended_lmo(DESEngine(cluster), reps=8, clamp=True).model
    M = 32 * KB
    for i, j in [(0, 1), (2, 4)]:
        assert model.p2p_time(i, j, M) == pytest.approx(gt.p2p_time(i, j, M), rel=0.12)


# ------------------------------------------------------------------ interface
def test_rejects_too_few_processors():
    gt = GroundTruth.random(2, seed=12)
    with pytest.raises(ValueError, match="at least 3"):
        estimate_extended_lmo(AnalyticEngine(gt))


def test_rejects_nonpositive_probe():
    gt = GroundTruth.random(4, seed=13)
    with pytest.raises(ValueError, match="positive"):
        estimate_extended_lmo(AnalyticEngine(gt), probe_nbytes=0)


def test_rejects_uncovering_triplets():
    gt = GroundTruth.random(5, seed=14)
    with pytest.raises(ValueError, match="unmeasured"):
        estimate_extended_lmo(AnalyticEngine(gt), triplets=[(0, 1, 2)])


def test_all_and_star_triplet_helpers():
    star = star_triplets(6, center=0)
    assert len(star) == 10
    assert all(0 in t for t in star)
    with pytest.raises(ValueError):
        star_triplets(4, center=9)


def test_serial_and_parallel_estimation_agree():
    gt = GroundTruth.random(5, seed=15)
    serial = estimate_extended_lmo(AnalyticEngine(gt), parallel=False, reps=1)
    parallel = estimate_extended_lmo(AnalyticEngine(gt), parallel=True, reps=1)
    assert np.allclose(serial.model.C, parallel.model.C)
    assert serial.estimation_time > parallel.estimation_time


def test_probe_inside_irregular_region_corrupts_estimation():
    """Paper Sec. IV: 'The additional collective communication experiments
    should be designed very carefully in order to avoid the irregularities'
    — a probe size in the escalation region wrecks the parameters, which
    is exactly why the preliminary sweep exists."""
    from repro.cluster import LAM_7_1_3, table1_cluster
    from repro.cluster.machine import SimulatedCluster

    def estimate_with_probe(probe):
        cluster = SimulatedCluster(table1_cluster(), profile=LAM_7_1_3,
                                   noise=NoiseModel.none(), seed=17)
        model = estimate_extended_lmo(
            DESEngine(cluster), probe_nbytes=probe, reps=3,
            triplets=star_triplets(16), clamp=True,
        ).model
        gt = cluster.ground_truth
        M = 32 * KB
        errs = [
            abs(model.p2p_time(0, j, M) - gt.p2p_time(0, j, M)) / gt.p2p_time(0, j, M)
            for j in range(1, 16)
        ]
        return float(np.mean(errs))

    # A one-to-two experiment sends to TWO receivers: bursts of 2*probe
    # toward... each port separately (no incast) — but the *roundtrip
    # replies* of size probe converge on the root: probe just under the
    # incast threshold for two senders stays clean, while a probe above
    # the eager threshold tangles with the rendezvous leap.
    clean_err = estimate_with_probe(32 * KB)
    dirty_err = estimate_with_probe(80 * KB)  # above the 64 KB eager limit
    assert clean_err < 0.1
    assert dirty_err > 2 * clean_err


def test_sparse_design_generalizes_to_unmeasured_links():
    """A triplet chain covers every node but not every pair; the LMO
    model still predicts the held-out links (single-switch links are
    near-uniform, so mean-completion works) — something no per-pair
    Hockney-style model can do at all."""
    n = 8
    gt = GroundTruth.random(n, seed=18, l_range=(48e-6, 55e-6),
                            beta_range=(0.95e8, 1.05e8))
    chain = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)]
    result = estimate_extended_lmo(AnalyticEngine(gt), triplets=chain, reps=1,
                                   clamp=True)
    model = result.model
    measured_pairs = {tuple(sorted(p)) for t in chain
                      for p in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]}
    heldout = [(i, j) for i in range(n) for j in range(i + 1, n)
               if (i, j) not in measured_pairs]
    assert heldout, "the chain design must leave some pairs unmeasured"
    M = 32 * KB
    for i, j in heldout:
        predicted = model.p2p_time(i, j, M)
        actual = gt.p2p_time(i, j, M)
        assert predicted == pytest.approx(actual, rel=0.1)
        assert np.isfinite(model.beta[i, j])
        assert model.L[i, j] > 0
