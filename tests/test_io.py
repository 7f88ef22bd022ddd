"""Tests for model serialization (round trips for every type)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GroundTruth
from repro.io import SCHEMA_VERSION, dumps, load, loads, save
from repro.models import (
    ExtendedLMOModel,
    GatherIrregularity,
    HeterogeneousHockneyModel,
    HockneyModel,
    LMOModel,
    LogGPModel,
    LogPModel,
    PiecewiseLinear,
    PLogPModel,
)

KB = 1024


def roundtrip(obj):
    return loads(dumps(obj))


def test_ground_truth_roundtrip():
    gt = GroundTruth.random(5, seed=1)
    back = roundtrip(gt)
    assert isinstance(back, GroundTruth)
    assert np.allclose(back.C, gt.C)
    assert np.allclose(back.L, gt.L)
    # inf diagonal survives the 'inf' string encoding.
    assert np.isinf(back.beta[0, 0])
    assert back.p2p_time(0, 3, 10 * KB) == pytest.approx(gt.p2p_time(0, 3, 10 * KB))


def test_extended_lmo_roundtrip_with_irregularity():
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB, escalation_value=0.22, p_at_m2=0.7)
    model = ExtendedLMOModel.from_ground_truth(GroundTruth.random(4, seed=2), irr)
    back = roundtrip(model)
    assert isinstance(back, ExtendedLMOModel)
    assert back.gather_irregularity == irr
    assert back.p2p_time(1, 2, KB) == pytest.approx(model.p2p_time(1, 2, KB))


def test_extended_lmo_roundtrip_without_irregularity():
    model = ExtendedLMOModel.from_ground_truth(GroundTruth.random(3, seed=3))
    assert roundtrip(model).gather_irregularity is None


def test_original_lmo_roundtrip():
    gt = GroundTruth.random(3, seed=4)
    model = ExtendedLMOModel.from_ground_truth(gt).to_original_lmo()
    back = roundtrip(model)
    assert isinstance(back, LMOModel)
    assert back.p2p_time(0, 2, KB) == pytest.approx(model.p2p_time(0, 2, KB))


def test_hockney_roundtrips():
    hom = HockneyModel(alpha=1e-4, beta=8e-8, n=8)
    assert roundtrip(hom) == hom
    het = HeterogeneousHockneyModel.from_ground_truth(GroundTruth.random(4, seed=5))
    back = roundtrip(het)
    assert np.allclose(back.alpha, het.alpha)


def test_logp_family_roundtrips():
    logp = LogPModel(L=3e-5, o=1e-5, g=1.2e-5, P=8, packet_bytes=1500)
    assert roundtrip(logp) == logp
    loggp = LogGPModel(L=3e-5, o=1e-5, g=1.2e-5, G=9e-9, P=8)
    assert roundtrip(loggp) == loggp


def test_plogp_roundtrip():
    f = PiecewiseLinear((0.0, 1024.0, 65536.0), (4e-5, 1e-4, 6e-4))
    model = PLogPModel(L=3.5e-5, o_s=f, o_r=f, g=f, P=16)
    back = roundtrip(model)
    assert isinstance(back, PLogPModel)
    assert back.g(32 * KB) == pytest.approx(model.g(32 * KB))
    assert back.p2p_time(0, 1, KB) == pytest.approx(model.p2p_time(0, 1, KB))


def test_file_save_load(tmp_path):
    model = ExtendedLMOModel.from_ground_truth(GroundTruth.random(3, seed=6))
    path = tmp_path / "model.json"
    save(model, str(path))
    back = load(str(path))
    assert back.p2p_time(0, 1, 100) == pytest.approx(model.p2p_time(0, 1, 100))


def test_envelope_validation():
    v1_hockney = (
        '{"format": "repro-model", "version": 1, "payload": '
        '{"type": "HockneyModel", "alpha": 0.0001, "beta": 8e-08, "n": 8}}'
    )
    with pytest.raises(ValueError, match="not a schema-v2 repro-model document"):
        loads(v1_hockney)


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        dumps(object())


def test_v2_envelope_shape():
    import json

    doc = json.loads(dumps(HockneyModel(alpha=1e-4, beta=8e-8, n=8)))
    assert doc["model"] == "HockneyModel"
    assert doc["schema_version"] == SCHEMA_VERSION == 2
    assert isinstance(doc["params"], dict)


def test_v2_envelope_validation():
    with pytest.raises(ValueError, match="schema version"):
        loads('{"model": "HockneyModel", "schema_version": 99, "params": {}}')
    with pytest.raises(ValueError, match="unknown document"):
        loads('{"model": "Nope", "schema_version": 2, "params": {}}')
    with pytest.raises(ValueError, match="params"):
        loads('{"model": "HockneyModel", "schema_version": 2}')
    with pytest.raises(ValueError, match="not a repro-model"):
        loads("[1, 2, 3]")


def test_all_six_models_roundtrip_v2():
    gt = GroundTruth.random(4, seed=11)
    f = PiecewiseLinear((0.0, 1024.0), (4e-5, 1e-4))
    models = [
        HockneyModel(alpha=1e-4, beta=8e-8, n=4),
        HeterogeneousHockneyModel.from_ground_truth(gt),
        LogPModel(L=3e-5, o=1e-5, g=1.2e-5, P=4, packet_bytes=1500),
        LogGPModel(L=3e-5, o=1e-5, g=1.2e-5, G=9e-9, P=4),
        PLogPModel(L=3.5e-5, o_s=f, o_r=f, g=f, P=4),
        ExtendedLMOModel.from_ground_truth(
            gt, GatherIrregularity(m1=4 * KB, m2=65 * KB, escalation_value=0.2)
        ),
    ]
    for model in models:
        back = roundtrip(model)
        assert type(back) is type(model)
        assert back.p2p_time(0, 1, KB) == pytest.approx(model.p2p_time(0, 1, KB))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 500), m=st.integers(0, 1 << 18))
def test_roundtrip_preserves_all_p2p_times(n, seed, m):
    model = ExtendedLMOModel.from_ground_truth(GroundTruth.random(n, seed=seed))
    back = roundtrip(model)
    assert back.p2p_time(0, n - 1, m) == pytest.approx(model.p2p_time(0, n - 1, m))


def test_cluster_spec_roundtrip():
    from repro.cluster import table1_cluster

    spec = table1_cluster()
    back = roundtrip(spec)
    assert back == spec
    assert back.n == 16
    assert back.describe() == spec.describe()
