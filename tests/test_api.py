"""Tests for the repro.api facade."""

import json

import numpy as np
import pytest

from repro import api
from repro.cluster import SimulatedCluster
from repro.models import ExtendedLMOModel, HeterogeneousHockneyModel


@pytest.fixture(scope="module")
def cluster():
    return api.load_cluster(nodes=5, seed=0)


@pytest.fixture(scope="module")
def outcome(cluster):
    return api.estimate(cluster, model="lmo", reps=1, quick=True, empirical=True)


def test_load_cluster_defaults():
    cluster = api.load_cluster()
    assert isinstance(cluster, SimulatedCluster)
    assert cluster.n == 16
    assert cluster.spec.name == "ucd-hcl-16"


def test_load_cluster_truncates_and_validates():
    assert api.load_cluster(nodes=4).n == 4
    with pytest.raises(api.InvalidRequest, match="nodes"):
        api.load_cluster(nodes=1)
    with pytest.raises(api.InvalidRequest, match="profile"):
        api.load_cluster(profile="nope")
    # The taxonomy keeps the historical ValueError contract.
    with pytest.raises(ValueError, match="profile"):
        api.load_cluster(profile="nope")


def test_load_cluster_from_saved_spec(tmp_path):
    spec = api.load_cluster(nodes=3).spec
    path = tmp_path / "spec.json"
    from repro.io import save

    save(spec, str(path))
    cluster = api.load_cluster(spec=str(path))
    assert cluster.spec == spec


def test_load_cluster_rejects_non_spec_file(tmp_path):
    path = tmp_path / "model.json"
    api.save_model(HeterogeneousHockneyModel(alpha=np.zeros((2, 2)),
                                             beta=np.zeros((2, 2))), str(path))
    with pytest.raises(TypeError, match="not a cluster spec"):
        api.load_cluster(spec=str(path))


def test_estimate_returns_typed_outcome(cluster, outcome):
    assert isinstance(outcome, api.EstimateOutcome)
    assert isinstance(outcome.model, ExtendedLMOModel)
    assert outcome.model_name == "lmo"
    assert outcome.n == cluster.n
    assert outcome.estimation_time > 0
    assert outcome.model.gather_irregularity is not None
    # The dict form is JSON-clean.
    json.dumps(outcome.to_dict())


def test_estimate_unknown_model(cluster):
    with pytest.raises(api.InvalidRequest, match="unknown model"):
        api.estimate(cluster, model="bogus")


def test_predict_returns_prediction(outcome):
    p = api.predict(outcome.model, "scatter", "linear", 65536)
    assert isinstance(p, api.Prediction)
    assert p.seconds > 0
    assert p.regime is None
    json.dumps(p.to_dict())


def test_predict_gather_carries_regime(outcome):
    irr = outcome.model.gather_irregularity
    mid = (irr.m1 + irr.m2) / 2
    p = api.predict(outcome.model, "gather", "linear", mid)
    assert p.regime == "medium"
    assert 0 <= p.escalation_probability <= 1


def test_predict_accepts_participants_as_a_list_or_a_tuple(outcome):
    for operation in ("scatter", "gather"):
        as_list = api.predict(outcome.model, operation, "linear", 65536,
                              participants=[0, 1, 2])
        as_tuple = api.predict(outcome.model, operation, "linear", 65536,
                               participants=(0, 1, 2))
        assert as_list == as_tuple
        assert as_list.seconds < api.predict(outcome.model, operation, "linear",
                                             65536).seconds


def test_predict_unsupported_pair_raises(outcome):
    het = HeterogeneousHockneyModel.from_ground_truth(
        api.load_cluster(nodes=4).ground_truth
    )
    with pytest.raises(KeyError):
        api.predict(het, "bcast", "pipeline", 1024)


def test_predict_many_matches_predict(outcome):
    requests = [
        api.PredictRequest("scatter", "linear", 1024.0),
        api.PredictRequest("gather", "linear", 65536.0),
        api.PredictRequest("bcast", "binomial", 4096.0),
        api.PredictRequest("scatter", "linear", 65536.0),
    ]
    values = api.predict_many(outcome.model, requests)
    assert values.shape == (4,)
    for req, value in zip(requests, values):
        single = api.predict(outcome.model, req.operation, req.algorithm,
                             req.nbytes, root=req.root)
        assert value == single.seconds


def test_measure_returns_measurement(cluster):
    m = api.measure(cluster, "scatter", "linear", 4096, max_reps=4)
    assert isinstance(m, api.Measurement)
    assert m.mean > 0
    assert m.reps <= 4
    assert m.confidence == 0.95
    json.dumps(m.to_dict())


def test_optimize_gather_splits_medium_regime(outcome):
    irr = outcome.model.gather_irregularity
    sizes = [irr.m1 / 2, (irr.m1 + irr.m2) / 2, irr.m2 * 2]
    plan = api.optimize_gather(outcome.model, sizes)
    assert isinstance(plan, api.GatherOptimization)
    assert plan.chunk_counts[0] == 1 and plan.chunk_counts[2] == 1
    assert plan.chunk_counts[1] > 1
    # Splitting the escalation-regime size must help; the others are untouched.
    assert plan.speedups[1] > 1.0
    assert plan.optimized_seconds[0] == plan.native_seconds[0]
    json.dumps(plan.to_dict())


def test_optimize_gather_without_irregularity(outcome):
    bare = outcome.model.with_irregularity(None)
    plan = api.optimize_gather(bare, [1024.0, 65536.0])
    assert plan.chunk_counts == (1, 1)
    assert plan.optimized_seconds == plan.native_seconds


def test_model_roundtrip_through_facade(tmp_path, outcome):
    path = tmp_path / "model.json"
    api.save_model(outcome.model, str(path))
    back = api.load_model(str(path))
    assert back.p2p_time(0, 1, 1024) == outcome.model.p2p_time(0, 1, 1024)


def test_available_algorithms_reexported(outcome):
    pairs = api.available_algorithms(outcome.model)
    assert ("scatter", "linear") in pairs
    assert ("bcast", "pipeline") in pairs


# -- durable campaigns through the facade --------------------------------------

@pytest.mark.campaign
def test_run_campaign_roundtrip(tmp_path):
    cluster = api.load_cluster(nodes=4, seed=0)
    journal = str(tmp_path / "campaign.jsonl")
    result = api.run_campaign(cluster, journal, api.CampaignConfig(timeout=5.0))
    assert isinstance(result, api.CampaignResult)
    assert result.stopped == "complete"
    assert result.coverage == 1.0
    assert isinstance(result.model, ExtendedLMOModel)
    json.dumps(result.to_dict())  # serializable, model excluded
    status = api.campaign_status(journal)
    assert isinstance(status, api.CampaignStatus)
    assert status.complete
    assert status.completed == result.completed


@pytest.mark.campaign
def test_resume_campaign_after_budget_stop(tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    config = api.CampaignConfig(timeout=5.0, max_repetitions=20)
    stopped = api.run_campaign(api.load_cluster(nodes=4, seed=0), journal, config)
    assert stopped.resumable and stopped.model is None
    resumed = api.resume_campaign(
        api.load_cluster(nodes=4, seed=0), journal, max_repetitions=10**6,
    )
    assert resumed.stopped == "complete"
    assert resumed.model is not None


@pytest.mark.campaign
def test_campaign_validates_inputs_at_the_boundary(tmp_path):
    cluster = api.load_cluster(nodes=4, seed=0)
    journal = str(tmp_path / "campaign.jsonl")
    with pytest.raises(ValueError, match="reps"):
        api.run_campaign(cluster, journal, api.CampaignConfig(reps=-1))
    with pytest.raises(ValueError, match="timeout"):
        api.run_campaign(cluster, journal,
                         api.CampaignConfig(timeout=float("nan")))
    with pytest.raises(ValueError, match="max_sim_seconds"):
        api.run_campaign(cluster, journal,
                         api.CampaignConfig(max_sim_seconds=-1.0))
    assert not (tmp_path / "campaign.jsonl").exists()  # rejected before I/O


@pytest.mark.campaign
def test_resume_campaign_wrong_cluster_is_actionable(tmp_path):
    from repro.estimation import FingerprintMismatch
    journal = str(tmp_path / "campaign.jsonl")
    config = api.CampaignConfig(timeout=5.0, max_repetitions=20)
    api.run_campaign(api.load_cluster(nodes=4, seed=0), journal, config)
    with pytest.raises(FingerprintMismatch, match="same spec, ground truth"):
        api.resume_campaign(api.load_cluster(nodes=4, seed=1), journal)


def test_check_fidelity_scores_models_without_telemetry(cluster, outcome):
    from repro.obs import runtime as _obs

    _obs.disable()
    check = api.check_fidelity(
        cluster,
        {"lmo": outcome.model},
        [("gather", "linear", 4096), ("scatter", "binomial", 8192)],
        max_reps=4,
    )
    assert isinstance(check, api.FidelityCheck)
    assert len(check.records) == 2
    assert {r.operation for r in check.records} == {
        "gather/linear", "scatter/binomial",
    }
    cards = {(c.model, c.operation) for c in check.scorecards}
    assert cards == {("lmo", "gather/linear"), ("lmo", "scatter/binomial")}
    assert "lmo" in check.render()
    json.dumps(check.to_dict())
    # Telemetry stayed off: the check used its own private registry.
    assert _obs.ACTIVE is None


def test_check_fidelity_accepts_bare_model_sequences(cluster, outcome):
    from repro.predict_service import model_label

    check = api.check_fidelity(
        cluster, [outcome.model], [("gather", "linear", 1024)], max_reps=2,
    )
    assert check.records[0].model == model_label(outcome.model)
    assert check.records[0].model.startswith("ExtendedLMOModel:")


def test_check_fidelity_skips_unsupported_points(cluster, outcome):
    hockney = api.estimate(cluster, model="hockney", reps=1, quick=True).model
    check = api.check_fidelity(
        cluster,
        {"lmo": outcome.model, "hockney": hockney},
        [("bcast", "pipeline", 4096)],  # extended-LMO only
        max_reps=2,
    )
    assert {r.model for r in check.records} == {"lmo"}


def test_check_fidelity_validates_points(cluster, outcome):
    with pytest.raises(ValueError, match="at least one"):
        api.check_fidelity(cluster, {"lmo": outcome.model}, [])


def test_measure_with_models_feeds_active_telemetry(cluster, outcome):
    from repro.obs import runtime as _obs
    from repro.obs.insight import scorecards

    tel = _obs.enable(fresh=True)
    try:
        api.measure(cluster, "gather", "linear", 4096, max_reps=2,
                    models={"lmo": outcome.model})
        cards = scorecards(tel.registry.snapshot())
        assert [(c.model, c.operation) for c in cards] == [("lmo", "gather/linear")]
    finally:
        _obs.disable()


def test_telemetry_facade_controls_the_global_session(outcome):
    from repro.obs import runtime as _obs
    from repro.predict_service import clear_cache

    _obs.disable()
    try:
        assert api.telemetry(enable=False) is None  # peek has no side effects
        tel = api.telemetry()
        assert api.telemetry() is tel  # idempotent
        clear_cache()
        api.predict(outcome.model, "scatter", "linear", 65536)
        assert tel.registry.value("predict_cache_total", result="miss") == 1
        fresh = api.telemetry(fresh=True)
        assert fresh is not tel
        assert fresh.registry.total("predict_cache_total") == 0
        snapshot = fresh.to_dict()
        assert snapshot["format"] == "repro-telemetry"
    finally:
        _obs.disable()
        clear_cache()
