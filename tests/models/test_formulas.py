"""Tests for Table II closed forms and the binomial recursion (eqs. 1-3)."""

import pytest

from repro import api
from repro.api.errors import InvalidRequest
from repro.cluster import GroundTruth
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
    binomial_tree,
    flat_tree,
    predict_binomial_gather,
    predict_binomial_scatter,
    predict_linear_gather,
    predict_linear_gather_sweep,
    predict_linear_pipelined,
    predict_linear_scatter,
    predict_linear_scatter_sweep,
    predict_tree_time,
)
from tests.models.test_batch import all_models

KB = 1024


def lmo_model(n=8, seed=0):
    return ExtendedLMOModel.from_ground_truth(GroundTruth.random(n, seed=seed))


# ------------------------------------------------------------- linear scatter
def test_hom_hockney_sequential_and_parallel():
    model = HockneyModel(alpha=50e-6, beta=8e-8, n=16)
    M = 10 * KB
    per = 50e-6 + 8e-8 * M
    assert predict_linear_scatter(model, M, assumption="sequential") == pytest.approx(15 * per)
    assert predict_linear_scatter(model, M, assumption="parallel") == pytest.approx(per)
    with pytest.raises(ValueError):
        predict_linear_scatter(model, M, assumption="quantum")


def test_het_hockney_sequential_is_sum_parallel_is_max():
    gt = GroundTruth.random(6, seed=1)
    model = HeterogeneousHockneyModel.from_ground_truth(gt)
    M = 20 * KB
    terms = [model.p2p_time(0, i, M) for i in range(1, 6)]
    assert predict_linear_scatter(model, M) == pytest.approx(sum(terms))
    assert predict_linear_scatter(model, M, assumption="parallel") == pytest.approx(max(terms))


def test_loggp_table2_formula():
    model = LogGPModel(L=30e-6, o=10e-6, g=15e-6, G=8e-8, P=16)
    M, n = 10 * KB, 16
    expected = 30e-6 + 20e-6 + (n - 1) * (M - 1) * 8e-8 + (n - 2) * 15e-6
    assert predict_linear_scatter(model, M) == pytest.approx(expected)


def test_plogp_table2_formula():
    g = PiecewiseLinear((0.0, 64 * 1024.0), (40e-6, 5.3e-3))
    model = PLogPModel(L=35e-6, o_s=g, o_r=g, g=g, P=16)
    M = 32 * KB
    assert predict_linear_scatter(model, M) == pytest.approx(35e-6 + 15 * g(M))


def test_logp_linear_prediction_counts_packets():
    model = LogPModel(L=30e-6, o=10e-6, g=12e-6, P=4, packet_bytes=1000)
    t = predict_linear_scatter(model, 2000)  # 2 packets x 3 receivers
    assert t == pytest.approx(30e-6 + 20e-6 + 5 * 12e-6)


def test_lmo_formula4_structure():
    """(n-1)(C_r + M t_r) + max_i (L_ri + M/b_ri + C_i + M t_i)."""
    model = lmo_model(n=5, seed=2)
    M = 40 * KB
    serial = 4 * (model.C[0] + M * model.t[0])
    parallel = max(
        model.L[0, i] + M / model.beta[0, i] + model.C[i] + M * model.t[i]
        for i in range(1, 5)
    )
    assert predict_linear_scatter(model, M) == pytest.approx(serial + parallel)


def test_lmo_scatter_beats_het_hockney_sequential_pessimism():
    """Same parameters, regrouped: Hockney-sequential must exceed LMO
    because it serializes wire time the switch actually parallelizes."""
    model = lmo_model(n=16, seed=3)
    hockney = model.to_heterogeneous_hockney()
    M = 100 * KB
    assert predict_linear_scatter(hockney, M) > predict_linear_scatter(model, M)
    # ... and Hockney-parallel is optimistic: below LMO.
    assert predict_linear_scatter(hockney, M, assumption="parallel") < (
        predict_linear_scatter(model, M)
    )


def test_participants_subset_and_validation():
    model = lmo_model(n=8, seed=4)
    t_all = predict_linear_scatter(model, KB)
    t_sub = predict_linear_scatter(model, KB, participants=[0, 1, 2])
    assert t_sub < t_all
    with pytest.raises(ValueError, match="root"):
        predict_linear_scatter(model, KB, root=5, participants=[0, 1])
    with pytest.raises(ValueError, match="duplicate"):
        predict_linear_scatter(model, KB, participants=[0, 1, 1])


@pytest.mark.parametrize("root,participants,message", [
    (0, (0, -1), "out of range"),
    (0, (0, 9), "out of range"),
    (0, (0,), "besides the root"),
    (3, (3,), "besides the root"),
])
def test_bad_participant_lists_are_rejected(root, participants, message):
    """Every model rejects out-of-range ranks and root-only lists, in the
    formulas and through the facade, instead of wrapping or crashing."""
    for model in all_models(n=6):
        for predict in (predict_linear_scatter, predict_linear_gather,
                        predict_linear_scatter_sweep, predict_linear_gather_sweep):
            with pytest.raises(ValueError, match=message):
                predict(model, KB, root=root, participants=participants)
        for operation in ("scatter", "gather"):
            with pytest.raises(InvalidRequest, match=message):
                api.predict(model, operation, "linear", KB, root=root,
                            participants=participants)


def test_unknown_model_type_rejected():
    with pytest.raises(TypeError):
        predict_linear_scatter(object(), 100)


# -------------------------------------------------------------- linear gather
def test_traditional_gather_equals_scatter():
    """Paper Sec. II: same formulas for scatter and gather."""
    gt = GroundTruth.random(6, seed=5)
    for model in [
        HeterogeneousHockneyModel.from_ground_truth(gt),
        LogGPModel(L=30e-6, o=10e-6, g=15e-6, G=8e-8, P=6),
    ]:
        M = 8 * KB
        assert predict_linear_gather(model, M) == predict_linear_scatter(model, M)


def test_lmo_gather_small_regime_uses_max_branch():
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB)
    model = lmo_model(n=8, seed=6).with_irregularity(irr)
    M = 2 * KB
    pred = predict_linear_gather(model, M)
    assert isinstance(pred, GatherPrediction)
    assert pred.regime == "small"
    assert pred.escalation_probability == 0.0
    serial = 7 * (model.C[0] + M * model.t[0])
    parallel = max(
        model.L[0, i] + M / model.beta[0, i] + model.C[i] + M * model.t[i]
        for i in range(1, 8)
    )
    assert pred.base == pytest.approx(serial + parallel)
    assert pred.expected == pred.base


def test_lmo_gather_large_regime_uses_sum_branch():
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB)
    model = lmo_model(n=8, seed=7).with_irregularity(irr)
    M = 100 * KB
    pred = predict_linear_gather(model, M)
    assert pred.regime == "large"
    serial = 7 * (model.C[0] + M * model.t[0])
    total = sum(
        model.L[0, i] + M / model.beta[0, i] + model.C[i] + M * model.t[i]
        for i in range(1, 8)
    )
    assert pred.base == pytest.approx(serial + total)


def test_lmo_gather_medium_regime_reports_escalations():
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB, escalation_value=0.25, p_at_m2=0.8)
    model = lmo_model(n=8, seed=8).with_irregularity(irr)
    pred = predict_linear_gather(model, 30 * KB)
    assert pred.regime == "medium"
    assert 0 < pred.escalation_probability < 0.8
    assert pred.escalation_value == 0.25
    assert pred.expected > pred.base


def test_lmo_gather_slope_steeper_above_m2():
    """The sum branch has a much steeper slope than the max branch —
    the two lines of paper Fig. 5."""
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB)
    model = lmo_model(n=16, seed=9).with_irregularity(irr)
    small_slope = (
        predict_linear_gather(model, 3 * KB).base - predict_linear_gather(model, 1 * KB).base
    ) / (2 * KB)
    large_slope = (
        predict_linear_gather(model, 200 * KB).base
        - predict_linear_gather(model, 150 * KB).base
    ) / (50 * KB)
    assert large_slope > 3 * small_slope


def test_lmo_gather_without_irregularity_defaults_to_max_branch():
    model = lmo_model(n=4, seed=10)
    pred = predict_linear_gather(model, 10 * KB)
    assert pred.regime == "small"


# ------------------------------------------------------------------- binomial
def test_hom_hockney_binomial_matches_eq3():
    """For power-of-two n, the recursion gives log2(n) a + (n-1) b M."""
    model = HockneyModel(alpha=50e-6, beta=8e-8, n=8)
    M = 4 * KB
    t = predict_binomial_scatter(model, M)
    assert t == pytest.approx(3 * 50e-6 + 7 * 8e-8 * M)


def test_het_hockney_binomial_matches_eq2_expansion():
    """Hand-expand formula (2) for 8 processors and compare."""
    gt = GroundTruth.random(8, seed=11)
    model = HeterogeneousHockneyModel.from_ground_truth(gt)
    M = 16 * KB
    a, b = model.alpha, model.beta

    def p2p(i, j, nbytes):
        return a[i, j] + b[i, j] * nbytes

    expected = p2p(0, 4, 4 * M) + max(
        p2p(0, 2, 2 * M) + max(p2p(0, 1, M), p2p(2, 3, M)),
        p2p(4, 6, 2 * M) + max(p2p(4, 5, M), p2p(6, 7, M)),
    )
    assert predict_binomial_scatter(model, M) == pytest.approx(expected)


def test_binomial_gather_equals_scatter_for_traditional_models():
    gt = GroundTruth.random(8, seed=12)
    model = HeterogeneousHockneyModel.from_ground_truth(gt)
    assert predict_binomial_gather(model, KB) == predict_binomial_scatter(model, KB)


def test_lmo_binomial_below_hockney_binomial():
    """LMO parallelizes wire+receiver inside each stage, so its binomial
    estimate is below the Hockney recursion on the same hardware."""
    model = lmo_model(n=16, seed=13)
    hockney = model.to_heterogeneous_hockney()
    M = 50 * KB
    assert predict_binomial_scatter(model, M) < predict_binomial_scatter(hockney, M)


def test_binomial_accepts_custom_tree():
    model = lmo_model(n=4, seed=14)
    tree = binomial_tree(4, 0)
    default = predict_binomial_scatter(model, KB)
    explicit = predict_binomial_scatter(model, KB, tree=tree)
    assert default == explicit
    remapped = predict_binomial_scatter(model, KB, tree=tree.remap([1, 0, 2, 3]))
    assert remapped != default  # mapping matters on a heterogeneous cluster


def test_lmo_binomial_gather_close_to_scatter():
    model = lmo_model(n=8, seed=15)
    s = predict_binomial_scatter(model, 10 * KB)
    g = predict_binomial_gather(model, 10 * KB)
    assert g == pytest.approx(s, rel=0.3)


# -------------------------------------------------------------- tree evaluator
def test_tree_eval_flat_tree_sequential_hockney():
    """Flat tree + all-serial costs = the sequential linear formula."""
    gt = GroundTruth.random(5, seed=16)
    model = HeterogeneousHockneyModel.from_ground_truth(gt)
    M = 2 * KB
    t = predict_tree_time(
        flat_tree(5, 0), M, serial_cost=model.p2p_time, parallel_cost=lambda i, j, b: 0.0
    )
    assert t == pytest.approx(predict_linear_scatter(model, M))


def test_pipelined_linear_at_most_formula4():
    """The pipelined refinement never exceeds the paper's formula (4)."""
    model = lmo_model(n=16, seed=17)
    for M in [0, KB, 64 * KB, 200 * KB]:
        assert predict_linear_pipelined(model, M) <= predict_linear_scatter(model, M) + 1e-15


def test_tree_eval_rejects_negative_block():
    model = lmo_model(n=4, seed=18)
    with pytest.raises(ValueError):
        predict_tree_time(flat_tree(4, 0), -1.0, model.p2p_time, lambda i, j, b: 0.0)
