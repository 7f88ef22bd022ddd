"""End-to-end checks that the instrumented subsystems feed telemetry.

Every test here exercises a real code path — a campaign, a breaker, the
sweep cache, a simulated transfer over a flaky link, a maintenance
cycle — with telemetry enabled, and asserts the metrics/events/spans it
must produce.  The final test asserts the inverse: with telemetry off,
nothing is recorded anywhere.
"""

import pytest

from repro import predict_service
from repro.cluster import (
    IDEAL,
    FaultInjector,
    FaultPlan,
    FlakyLink,
    GroundTruth,
    LAM_7_1_3,
    NoiseModel,
    SimulatedCluster,
    random_cluster,
)
from repro.estimation import (
    Campaign,
    CampaignConfig,
    DESEngine,
    ModelMaintainer,
    RetryPolicy,
    campaign_status,
    roundtrip,
    run_schedule_robust,
)
from repro.estimation.breakers import BreakerPolicy, CircuitBreaker
from repro.models import ExtendedLMOModel
from repro.obs import runtime as _obs
from repro.obs.metrics import family_sum

pytestmark = pytest.mark.campaign

KB = 1024


def quiet_cluster(n=4, seed=5):
    gt = GroundTruth.random(n, seed=seed)
    return SimulatedCluster(
        random_cluster(n, seed=seed), ground_truth=gt, profile=IDEAL,
        noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0), seed=7,
    )


# -- campaign + journal ---------------------------------------------------------
def test_campaign_emits_unit_journal_and_budget_metrics(tmp_path):
    tel = _obs.enable(fresh=True)
    path = str(tmp_path / "camp.jsonl")
    result = Campaign.start(
        DESEngine(quiet_cluster()), path, CampaignConfig(seed=11, timeout=5.0),
    ).run()
    assert result.stopped == "complete"

    reg = tel.registry
    total = result.total_experiments
    assert reg.value("campaign_units_total", outcome="done") == total
    assert reg.value("campaign_units_started_total") == total
    # Every unit ran under a span, inside one campaign.run span.
    assert len(tel.spans.finished("campaign.unit")) == total
    assert len(tel.spans.finished("campaign.run")) == 1
    # Journal instrumentation: one append per started/done record at
    # minimum, with matching latency observations.
    appends = family_sum(reg.snapshot(), "journal_appends_total")
    assert appends >= 2 * total
    hist = reg.histogram("journal_append_seconds")
    assert hist.count == appends
    assert hist.sum > 0
    # Budgets and board state are flushed as gauges.
    assert reg.value("campaign_budget_repetitions_used") == result.repetitions
    assert reg.value("campaign_coverage") == 1.0
    assert reg.value("breaker_nodes", state="closed") == 4
    assert reg.value("breaker_nodes", state="open") == 0
    # Checkpoints narrate as events.
    assert tel.events.count("campaign_checkpoint") >= 1


def test_status_replay_is_suppressed_not_recounted(tmp_path):
    path = str(tmp_path / "camp.jsonl")
    Campaign.start(
        DESEngine(quiet_cluster()), path, CampaignConfig(seed=11, timeout=5.0),
    ).run()

    tel = _obs.enable(fresh=True)
    status = campaign_status(path)
    # Replaying the journal rebuilt a breaker board, but none of that is
    # live activity: no counters, no events leaked into the session.
    metrics = tel.registry.snapshot()
    assert family_sum(metrics, "breaker_transitions_total") == 0
    assert family_sum(metrics, "campaign_units_total") == 0
    assert len(tel.events) == 0
    assert status.coverage == 1.0
    assert status.quarantined == ()
    assert status.solved_triplets == status.total_triplets == 4


# -- circuit breakers -----------------------------------------------------------
def test_breaker_transitions_count_and_narrate():
    tel = _obs.enable(fresh=True)
    breaker = CircuitBreaker(3, BreakerPolicy(failure_threshold=2, cooldown_units=3))
    breaker.record_failure(0)
    breaker.record_failure(1)          # -> OPEN
    assert breaker.allows(4)           # cooldown over -> HALF_OPEN
    breaker.record_success()           # probe ok -> CLOSED

    reg = tel.registry
    assert reg.value("breaker_transitions_total", to="open") == 1
    assert reg.value("breaker_transitions_total", to="half_open") == 1
    assert reg.value("breaker_transitions_total", to="closed") == 1
    assert reg.value("breaker_opens_total", node="3") == 1
    assert reg.value("breaker_half_opens_total", node="3") == 1
    trips = tel.events.events("breaker_transition", min_level="warning")
    assert len(trips) == 1
    assert trips[0]["node"] == 3 and trips[0]["new"] == "open"


# -- robust runner --------------------------------------------------------------
def test_robust_runner_flushes_sample_accounting():
    tel = _obs.enable(fresh=True)
    cluster = quiet_cluster(n=5, seed=3)
    cluster.profile = LAM_7_1_3
    cluster.attach_injector(FaultInjector(FaultPlan(
        faults=(FlakyLink(a=0, b=1, loss_prob=0.5),), seed=9,
    )))
    _results, stats = run_schedule_robust(
        DESEngine(cluster), [roundtrip(0, 1, 8 * KB)], reps=3,
        policy=RetryPolicy(),
    )
    assert stats.timeouts > 0
    reg = tel.registry
    assert reg.value("robust_samples_total", reason="timeout") == stats.timeouts
    assert reg.value("robust_samples_total", reason="retry") == stats.retries
    assert reg.value("robust_samples_total", reason="degraded") == len(stats.degraded)


# -- prediction sweep cache -----------------------------------------------------
def test_predict_cache_counters_track_cache_info():
    tel = _obs.enable(fresh=True)
    predict_service.clear_cache()
    gt = GroundTruth.random(4, seed=2)
    model = ExtendedLMOModel(gt.C, gt.t, gt.L, gt.beta)
    sizes = [KB, 2 * KB, 4 * KB]
    predict_service.predict_sweep(model, "scatter", "linear", sizes)
    predict_service.predict_sweep(model, "scatter", "linear", sizes)  # hit

    info = predict_service.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1
    reg = tel.registry
    assert reg.value("predict_cache_total", result="hit") == info["hits"]
    assert reg.value("predict_cache_total", result="miss") == info["misses"]
    batch = reg.histogram("predict_sweep_batch_size", lo=0, hi=20)
    assert batch.count == 1 and batch.sum == len(sizes)
    assert reg.histogram("predict_sweep_seconds").count == 1
    predict_service.clear_cache()


# -- simulated cluster ----------------------------------------------------------
def test_kernel_event_counts_flush_on_reset():
    tel = _obs.enable(fresh=True)
    cluster = quiet_cluster()
    DESEngine(cluster).run(roundtrip(0, 1, KB))
    processed = cluster.sim.events_processed
    assert processed > 0
    assert family_sum(tel.registry.snapshot(), "sim_events_total") == 0  # not yet flushed
    cluster.reset()
    assert tel.registry.value("sim_events_total") == processed
    cluster.reset()  # fresh sim, nothing new to flush
    assert tel.registry.value("sim_events_total") == processed


def test_rto_escalations_match_injector_accounting():
    tel = _obs.enable(fresh=True)
    cluster = quiet_cluster(n=5, seed=3)
    cluster.profile = LAM_7_1_3
    injector = FaultInjector(FaultPlan(
        faults=(FlakyLink(a=0, b=1, loss_prob=0.5),), seed=9,
    ))
    cluster.attach_injector(injector)
    engine = DESEngine(cluster)
    for _ in range(20):
        engine.run(roundtrip(0, 1, 8 * KB))

    losses = injector.stats.loss_escalations
    assert losses > 0
    assert tel.registry.value("rto_escalations_total", cause="loss") == losses
    events = tel.events.events("rto_escalation", cause="loss")
    assert len(events) == losses
    sample = events[0]
    assert {sample["src"], sample["dst"]} == {0, 1}
    assert sample["delay"] > 0 and sample["sim_time"] >= 0
    assert sample["level"] == "warning"


# -- maintainer -----------------------------------------------------------------
def test_maintainer_cycles_feed_metrics_events_and_spans():
    tel = _obs.enable(fresh=True)
    maintainer = ModelMaintainer(DESEngine(quiet_cluster()))
    maintainer.bootstrap()
    maintainer.cycle()

    reg = tel.registry
    assert reg.value("maintainer_cycles_total", action="bootstrap") == 1
    assert reg.value("maintainer_cycles_total", action="ok") == 1
    assert reg.value("maintainer_worst_drift") >= 0
    # The session event log mirrors the maintainer's own history.
    assert tel.events.count("heal_cycle") == len(maintainer.health_records()) == 2
    assert len(tel.spans.finished("maintainer.bootstrap")) == 1
    assert len(tel.spans.finished("maintainer.cycle")) == 1


# -- transfer-size telemetry (the escalation detector's feed) -------------------
def lam_cluster(n=6, seed=3):
    gt = GroundTruth.random(n, seed=seed)
    return SimulatedCluster(
        random_cluster(n, seed=seed), ground_truth=gt, profile=LAM_7_1_3,
        noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0), seed=7,
    )


def test_transfers_feed_size_histograms_and_incast_marks_escalated():
    import repro.api as api

    tel = _obs.enable(fresh=True)
    cluster = lam_cluster()
    # Gather in the irregularity region: incast escalations are natural.
    api.measure(cluster, "gather", "linear", 32 * KB, max_reps=8)
    reg = tel.registry
    metrics = reg.snapshot()
    transfers = family_sum(metrics, "sim_transfer_bytes")
    escalated = family_sum(metrics, "sim_escalated_transfer_bytes")
    incasts = reg.value("rto_escalations_total", cause="incast")
    assert transfers > 0
    # Every natural escalation marked exactly one sized transfer.
    assert escalated == incasts > 0
    # The narrated escalation events now carry the transfer size.
    events = tel.events.events("rto_escalation", cause="incast")
    assert events and all(e["nbytes"] == 32 * KB for e in events)
    # Delay samples landed in the cause-labeled histogram.
    snap = reg.snapshot()
    delay_samples = snap["rto_escalation_seconds"]["samples"]
    assert any(s["labels"] == {"cause": "incast"} and s["count"] == incasts
               for s in delay_samples)


def test_loss_escalations_do_not_count_as_escalated_transfers():
    tel = _obs.enable(fresh=True)
    cluster = quiet_cluster(n=4, seed=3)
    cluster.profile = LAM_7_1_3
    cluster.attach_injector(FaultInjector(FaultPlan(
        faults=(FlakyLink(a=0, b=1, loss_prob=0.6),), seed=9,
    )))
    engine = DESEngine(cluster)
    for _ in range(20):
        engine.run(roundtrip(0, 1, KB))  # far below M1: no incast
    reg = tel.registry
    losses = reg.value("rto_escalations_total", cause="loss")
    assert losses > 0
    # Injected-fault escalations are size-independent noise: they must
    # not pollute the escalation-region estimate.
    metrics = reg.snapshot()
    assert family_sum(metrics, "sim_escalated_transfer_bytes") == 0
    assert family_sum(metrics, "sim_transfer_bytes") > 0


# -- residual feeds --------------------------------------------------------------
def test_api_measure_feeds_residual_monitor():
    import repro.api as api
    from repro.obs.insight import scorecards

    cluster = quiet_cluster()
    outcome = api.estimate(cluster, "lmo", quick=True)
    tel = _obs.enable(fresh=True)
    api.measure(cluster, "gather", "linear", 4 * KB, models={"lmo": outcome.model})
    cards = scorecards(tel.registry.snapshot())
    assert [(c.model, c.operation) for c in cards] == [("lmo", "gather/linear")]
    assert cards[0].count == 1


def test_maintainer_spot_checks_feed_residuals():
    from repro.obs.insight.residuals import ABS_ERROR_METRIC

    tel = _obs.enable(fresh=True)
    maintainer = ModelMaintainer(DESEngine(quiet_cluster()))
    maintainer.bootstrap()
    maintainer.cycle()
    snap = tel.registry.snapshot()
    assert ABS_ERROR_METRIC in snap
    labels = snap[ABS_ERROR_METRIC]["samples"][0]["labels"]
    assert labels["model"] == "lmo" and labels["operation"] == "roundtrip"


# -- the off switch -------------------------------------------------------------
def test_everything_is_silent_when_disabled(tmp_path):
    assert _obs.ACTIVE is None
    path = str(tmp_path / "camp.jsonl")
    Campaign.start(
        DESEngine(quiet_cluster()), path, CampaignConfig(seed=11, timeout=5.0),
    ).run()
    predict_service.clear_cache()
    gt = GroundTruth.random(4, seed=2)
    predict_service.predict_sweep(
        ExtendedLMOModel(gt.C, gt.t, gt.L, gt.beta), "scatter", "linear", [KB],
    )
    # Nothing above turned telemetry on as a side effect.
    assert _obs.ACTIVE is None
    predict_service.clear_cache()
