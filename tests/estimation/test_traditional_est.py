"""Tests for Hockney / LogP / LogGP / PLogP estimation."""

import numpy as np
import pytest

from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.estimation import (
    AnalyticEngine,
    DESEngine,
    estimate_heterogeneous_hockney,
    estimate_loggp,
    estimate_logp,
    estimate_plogp,
)
from repro.estimation.plogp_est import adaptive_sizes

KB = 1024


def make_engines(n=5, seed=0):
    gt = GroundTruth.random(n, seed=seed)
    cluster = SimulatedCluster(
        random_cluster(n, seed=seed), ground_truth=gt,
        profile=IDEAL, noise=NoiseModel.none(), seed=seed,
    )
    return DESEngine(cluster), AnalyticEngine(gt), gt


# ----------------------------------------------------------------- Hockney
def test_hockney_recovers_alpha_beta_exactly_from_des():
    """On the quiet DES the roundtrip *is* alpha + beta M, so the Hockney
    estimator must be exact: alpha = C_i+L+C_j, beta = t_i+1/b+t_j."""
    des, _ana, gt = make_engines(seed=1)
    model = estimate_heterogeneous_hockney(des, reps=1).model
    mask = ~np.eye(gt.n, dtype=bool)
    assert np.allclose(model.alpha[mask], gt.hockney_alpha()[mask], rtol=1e-9)
    assert np.allclose(model.beta[mask], gt.hockney_beta()[mask], rtol=1e-9)


def test_hockney_homogeneous_average():
    des, _ana, gt = make_engines(seed=2)
    hom = estimate_heterogeneous_hockney(des, reps=1).model.averaged()
    mask = ~np.eye(gt.n, dtype=bool)
    assert hom.alpha == pytest.approx(gt.hockney_alpha()[mask].mean(), rel=1e-9)
    assert hom.beta == pytest.approx(gt.hockney_beta()[mask].mean(), rel=1e-9)


def test_hockney_parallel_estimation_cheaper_same_model():
    des_serial, _a, gt = make_engines(n=8, seed=3)
    serial = estimate_heterogeneous_hockney(des_serial, reps=1, parallel=False)
    des_parallel = DESEngine(des_serial.cluster)
    parallel = estimate_heterogeneous_hockney(des_parallel, reps=1, parallel=True)
    assert np.allclose(serial.model.alpha, parallel.model.alpha, rtol=1e-12)
    assert parallel.estimation_time < serial.estimation_time / 2


def test_hockney_rejects_bad_probe():
    _des, ana, _gt = make_engines()
    with pytest.raises(ValueError):
        estimate_heterogeneous_hockney(ana, probe_nbytes=0)


# ------------------------------------------------------------- LogP family
def test_logp_overheads_match_processor_costs():
    des, _ana, gt = make_engines(seed=4)
    result = estimate_logp(des, reps=1, pairs=[(0, 1)])
    assert result.o_s == pytest.approx(gt.send_cost(0, KB), rel=1e-9)
    assert result.o_r == pytest.approx(gt.send_cost(1, KB), rel=1e-9)


def test_logp_latency_positive_and_close_to_wire():
    des, _ana, gt = make_engines(seed=5)
    result = estimate_logp(des, reps=1, pairs=[(0, 1)])
    # L = RTT/2 - o_s - o_r = L_01 + M/beta at the probe size.
    expected = gt.L[0, 1] + 1024 / gt.beta[0, 1]
    assert result.L == pytest.approx(expected, rel=1e-6)


def test_loggp_G_close_to_bottleneck_per_byte():
    des, _ana, gt = make_engines(seed=6)
    model = estimate_loggp(des, reps=1, pairs=[(0, 1)])
    bottleneck = max(1 / gt.beta[0, 1], gt.t[0], gt.t[1])
    assert model.G == pytest.approx(bottleneck, rel=0.1)


def test_logp_models_constructible():
    _des, ana, _gt = make_engines(seed=7)
    result = estimate_logp(ana, reps=1, pairs=[(0, 1), (2, 3)])
    logp = result.logp(P=5)
    loggp = result.loggp(P=5)
    assert logp.p2p_time(0, 1, 100) > 0
    assert loggp.p2p_time(0, 1, 100_000) > loggp.p2p_time(0, 1, 100)
    assert result.pairs_measured == 2


# -------------------------------------------------------------------- PLogP
def test_adaptive_sizes_inserts_midpoint_at_kink():
    """A piecewise function with a kink must trigger refinement there."""

    def kinked(m):
        return 1.0 * m if m < 10_000 else 10_000 + 10.0 * (m - 10_000)

    values, refinements = adaptive_sizes(kinked, grid=(0, 8_000, 16_000, 32_000),
                                         tolerance=0.2)
    assert refinements >= 1
    assert any(8_000 < m < 16_000 for m in values)


def test_adaptive_sizes_no_refinement_for_linear_function():
    values, refinements = adaptive_sizes(lambda m: 5.0 + 2.0 * m,
                                         grid=(0, 1000, 2000, 4000, 8000))
    assert refinements == 0
    assert set(values) == {0, 1000, 2000, 4000, 8000}


def test_adaptive_sizes_needs_three_points():
    with pytest.raises(ValueError):
        adaptive_sizes(lambda m: m, grid=(0, 1000))


def test_plogp_estimation_produces_usable_model():
    des, _ana, gt = make_engines(seed=8)
    result = estimate_plogp(des, pair=(0, 1), reps=1,
                            grid=(0, 2 * KB, 8 * KB, 32 * KB, 64 * KB))
    model = result.model
    # Gap at large M ~ bottleneck stage time.
    M = 64 * KB
    bottleneck = max(gt.send_cost(0, M), M / gt.beta[0, 1], gt.send_cost(1, M))
    assert model.g(M) == pytest.approx(bottleneck, rel=0.15)
    # o_s / o_r are the processor costs.
    assert model.o_s(8 * KB) == pytest.approx(gt.send_cost(0, 8 * KB), rel=1e-6)
    assert model.o_r(8 * KB) == pytest.approx(gt.send_cost(1, 8 * KB), rel=1e-6)
    assert model.L >= 0
    assert result.estimation_time > 0


def test_plogp_estimation_cost_exceeds_hockney():
    """The paper: PLogP estimation is the most time-consuming."""
    des1, _a, _gt = make_engines(n=4, seed=9)
    hockney_result = estimate_heterogeneous_hockney(des1, reps=1, parallel=False)
    des2 = DESEngine(des1.cluster)
    plogp_result = estimate_plogp(des2, pair=(0, 1), reps=1)
    assert plogp_result.estimation_time > hockney_result.estimation_time
