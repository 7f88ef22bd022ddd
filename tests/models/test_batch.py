"""Property tests: a sweep over many sizes equals its one-size calls.

``p2p_time`` is a thin wrapper over ``p2p_time_batch``, and every scalar
collective predictor is a one-size call of its sweep, so equality here
is exact (``==``), not approximate: a sweep's value at one size must not
depend on the other sizes in the array.  The formula values themselves
are pinned by ``test_golden_formulas.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GroundTruth, SimulatedCluster, table1_cluster
from repro.models import (
    ExtendedLMOModel,
    GatherIrregularity,
    GatherPrediction,
    HeterogeneousHockneyModel,
    HockneyModel,
    LogGPModel,
    LogPModel,
    PiecewiseLinear,
    PLogPModel,
    predict_binomial_gather,
    predict_binomial_gather_sweep,
    predict_binomial_scatter,
    predict_binomial_scatter_sweep,
    predict_linear_gather,
    predict_linear_gather_sweep,
    predict_linear_scatter,
    predict_linear_scatter_sweep,
)
from repro.models.base import validate_nbytes, validate_nbytes_batch
from repro.models.collectives.formulas_ext import (
    _PREDICTORS,
    predict_collective,
    predict_collective_sweep,
)

KB = 1024


def all_models(n=6, seed=0, irregularity=True):
    gt = GroundTruth.random(n, seed=seed)
    f = PiecewiseLinear((0.0, 1024.0, 65536.0), (4e-5, 1e-4, 6e-4))
    irr = (
        GatherIrregularity(m1=4 * KB, m2=64 * KB, escalation_value=0.25)
        if irregularity else None
    )
    return [
        HockneyModel(alpha=1e-4, beta=8e-8, n=n),
        HeterogeneousHockneyModel.from_ground_truth(gt),
        LogPModel(L=3e-5, o=1e-5, g=1.2e-5, P=n, packet_bytes=1500),
        LogGPModel(L=3e-5, o=1e-5, g=1.2e-5, G=9e-9, P=n),
        PLogPModel(L=3.5e-5, o_s=f, o_r=f, g=f, P=n),
        ExtendedLMOModel.from_ground_truth(gt, irr),
        ExtendedLMOModel.from_ground_truth(gt).to_original_lmo(),
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 100),
    sizes=st.lists(
        st.floats(0.0, 2.0**20, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12,
    ),
    i=st.integers(0, 5),
    j=st.integers(0, 5),
)
def test_p2p_batch_matches_scalar_elementwise(seed, sizes, i, j):
    if i == j:
        j = (j + 1) % 6
    nb = np.asarray(sizes)
    for model in all_models(n=6, seed=seed):
        batch = model.p2p_time_batch(i, j, nb)
        scalar = np.array([model.p2p_time(i, j, m) for m in sizes])
        assert batch.shape == nb.shape
        assert np.array_equal(batch, scalar), type(model).__name__


def test_p2p_batch_broadcasts_ranks():
    model = all_models()[-2]  # extended LMO
    i = np.array([0, 1, 2])
    nb = np.array([1024.0, 2048.0, 4096.0])
    batch = model.p2p_time_batch(i, 5, nb)
    expected = np.array([model.p2p_time(k, 5, m) for k, m in zip(i, nb)])
    assert np.array_equal(batch, expected)


def test_p2p_batch_zero_d_returns_scalar_shape():
    for model in all_models():
        out = model.p2p_time_batch(0, 1, 1024.0)
        assert np.shape(out) == ()
        assert float(out) == model.p2p_time(0, 1, 1024.0)


@pytest.mark.parametrize("sweep,scalar", [
    (predict_linear_scatter_sweep, predict_linear_scatter),
    (predict_binomial_scatter_sweep, predict_binomial_scatter),
    (predict_binomial_gather_sweep, predict_binomial_gather),
])
def test_core_sweeps_match_scalar(sweep, scalar):
    sizes = np.array([0.0, 1.0, 512.0, 4096.0, 65536.0, 300000.0])
    for model in all_models(seed=3):
        batch = sweep(model, sizes)
        loop = np.array([float(scalar(model, m)) for m in sizes])
        assert np.array_equal(batch, loop), type(model).__name__


def test_gather_sweep_matches_scalar_expected():
    sizes = np.array([0.0, 512.0, 8 * KB, 32 * KB, 100 * KB])
    for model in all_models(seed=4):
        batch = predict_linear_gather_sweep(model, sizes)
        loop = []
        for m in sizes:
            value = predict_linear_gather(model, m)
            loop.append(value.expected if isinstance(value, GatherPrediction)
                        else float(value))
        assert np.array_equal(batch, np.array(loop)), type(model).__name__


def test_menu_sweeps_match_scalar():
    # Power-of-two n so recursive doubling is in play.
    model = all_models(n=8, seed=5)[-2]
    sizes = np.array([1.0, 4096.0, 65536.0, 262144.0])
    for (operation, algorithm) in sorted(_PREDICTORS):
        batch = predict_collective_sweep(model, operation, algorithm, sizes)
        loop = np.array([
            float(predict_collective(model, operation, algorithm, m))
            for m in sizes
        ])
        assert np.array_equal(batch, loop), (operation, algorithm)


def test_batch_matches_scalar_on_fault_degraded_cluster():
    """Models rebuilt from a degraded cluster (PR 1 fault injection) keep
    the batch/scalar equivalence."""
    cluster = SimulatedCluster(table1_cluster(), seed=7)
    cluster.degrade_node(3, 4.0)
    cluster.degrade_node(11, 2.5)
    model = ExtendedLMOModel.from_ground_truth(cluster.ground_truth)
    sizes = np.array([0.0, 100.0, 8 * KB, 64 * KB, 1 << 20])
    batch = model.p2p_time_batch(3, 11, sizes)
    loop = np.array([model.p2p_time(3, 11, m) for m in sizes])
    assert np.array_equal(batch, loop)
    scatter = predict_linear_scatter_sweep(model, sizes)
    scatter_loop = np.array([float(predict_linear_scatter(model, m)) for m in sizes])
    assert np.array_equal(scatter, scatter_loop)


# -- validator hardening --------------------------------------------------------
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_scalar_validator_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        validate_nbytes(bad)


def test_scalar_validator_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        validate_nbytes(-1.0)


@pytest.mark.parametrize("bad", [
    [1.0, float("nan")],
    [float("inf"), 2.0],
    np.array([0.0, -np.inf]),
])
def test_batch_validator_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        validate_nbytes_batch(bad)


def test_batch_validator_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        validate_nbytes_batch([10.0, -2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_models_reject_non_finite_everywhere(bad):
    for model in all_models():
        with pytest.raises(ValueError, match="non-finite"):
            model.p2p_time(0, 1, bad)
        with pytest.raises(ValueError, match="non-finite"):
            model.p2p_time_batch(0, 1, np.array([1.0, bad]))
