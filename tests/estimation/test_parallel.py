"""Parallel campaigns: a process pool, per-worker journals, deterministic merge.

The tentpole acceptance: the parallel executor's output — model
parameters, coverage, breaker board — is bit-identical to a serial run
with the same seed, including under chaos-injected worker kills (torn
tails included), a hung worker, and a coordinator crash followed by
resume.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as model_io
from repro.cluster import GroundTruth, NoiseModel, SimulatedCrash
from repro.estimation import (
    AnalyticEngineRecipe,
    Campaign,
    CampaignConfig,
    ChaosKill,
    DESEngineRecipe,
    JournalCorruption,
    JournalError,
    ParallelCampaign,
    ParallelConfig,
    campaign_status,
    merge_worker_journals,
    parallel_shards_exist,
    parallel_status,
    recipe_for_cluster,
    worker_journal_paths,
)
from repro.estimation import parallel
from repro.estimation.journal import replay
from repro.estimation.parallel import coordinator_path
from repro.obs import runtime as _obs
from repro.obs.metrics import family_sum

from tests.procs import children, needs_proc, wait_gone

pytestmark = pytest.mark.campaign

CONFIG = CampaignConfig(seed=11, timeout=5.0)


def make_recipe(gt_seed=2):
    gt = GroundTruth.random(4, seed=gt_seed)
    return AnalyticEngineRecipe(
        gt, noise=NoiseModel(rel_sigma=0.05, spike_prob=0.0), seed=0
    )


def models_equal(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("C", "t", "L", "beta")
    )


def assert_same_output(serial, parallel_result):
    """The ISSUE's byte-identical acceptance: model, coverage, breakers."""
    assert models_equal(serial.model, parallel_result.model)
    assert parallel_result.coverage == serial.coverage
    assert parallel_result.breakers == serial.breakers
    assert parallel_result.completed == serial.completed
    assert parallel_result.failed == serial.failed


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "serial.jsonl"
    recipe = make_recipe()
    return Campaign.start(recipe.build(), str(path), CONFIG).run()


# -- the happy path --------------------------------------------------------------
def test_parallel_is_bit_identical_to_serial(serial_run, tmp_path):
    path = str(tmp_path / "par.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(workers=2),
    ).run()
    assert result.stopped == "complete"
    assert result.completed == 36
    assert not result.degraded
    assert_same_output(serial_run, result)
    # The canonical merged journal exists and replays cleanly in unit order.
    rep = replay(path)
    done = rep.of_type("experiment_done")
    assert [rec["index"] for rec in done] == sorted(rec["index"] for rec in done)
    assert len(done) == 36
    assert rep.header["merged_from_workers"] == len(worker_journal_paths(path))


def test_single_worker_degenerates_to_serial(serial_run, tmp_path):
    path = str(tmp_path / "one.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(workers=1),
    ).run()
    assert_same_output(serial_run, result)


def test_start_refuses_existing_journal_or_shards(serial_run, tmp_path):
    with pytest.raises(JournalError, match="already exists"):
        ParallelCampaign.start(make_recipe(), serial_run.journal_path, CONFIG)
    path = str(tmp_path / "shards.jsonl")
    with pytest.raises(SimulatedCrash):
        ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(workers=1, chaos_coordinator_crash_after=2),
        ).run()
    with pytest.raises(JournalError, match="shard set already exists"):
        ParallelCampaign.start(make_recipe(), path, CONFIG)


# -- chaos: worker kills ---------------------------------------------------------
def test_killed_worker_is_reclaimed_and_result_identical(serial_run, tmp_path):
    path = str(tmp_path / "kill.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(
            workers=2,
            chaos_kills=(ChaosKill(worker=0, after_units=2, torn_tail=True),),
        ),
    ).run()
    assert result.stopped == "complete"
    assert_same_output(serial_run, result)
    coord = replay(coordinator_path(path))
    assert coord.of_type("worker_dead"), "the chaos kill must be journaled"
    assert coord.of_type("units_reclaimed"), "in-flight units must be reclaimed"
    # The torn tail the dying worker left is tolerated everywhere.
    assert len(replay(path).of_type("experiment_done")) == 36


def test_both_initial_workers_killed_still_completes(serial_run, tmp_path):
    path = str(tmp_path / "kill2.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(
            workers=2,
            chaos_kills=(
                ChaosKill(worker=0, after_units=1, torn_tail=True),
                ChaosKill(worker=1, after_units=3),
            ),
        ),
    ).run()
    assert result.stopped == "complete"
    assert_same_output(serial_run, result)
    dead = replay(coordinator_path(path)).of_type("worker_dead")
    # A lost pool takes all of its workers down; both initial ones are gone.
    assert {0, 1} <= {worker for rec in dead for worker in rec["workers"]}


def test_fleet_exhaustion_finishes_serially(serial_run, tmp_path):
    """The pool's only worker dies before landing a unit, so no fresh
    pool is started: the leftovers go to the assembly pass, which
    finishes them serially — the result still lands, still bit-identical."""
    path = str(tmp_path / "exhaust.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(
            workers=1, chaos_kills=(ChaosKill(worker=0, after_units=0),),
        ),
    ).run()
    coord = replay(coordinator_path(path))
    reclaimed = coord.of_type("units_reclaimed")
    assert [rec["reason"] for rec in reclaimed] == ["fleet_exhausted"]
    assert reclaimed[0]["requeued"] == list(range(36))
    assert [rec["workers"] for rec in coord.of_type("worker_dead")] == [[0]]
    assert result.stopped == "complete"
    assert_same_output(serial_run, result)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the hang is patched into forked workers",
)
def test_hung_worker_is_killed_at_the_progress_deadline(
    serial_run, tmp_path, monkeypatch
):
    """A worker stuck inside a unit lands nothing; once no group lands
    for the progress deadline its pool is killed, and the stuck unit is
    finished without it — the result is still bit-identical."""
    coordinator = os.getpid()
    process_unit = Campaign._process_unit

    def hang_on_unit_zero(self, index):
        if index == 0 and os.getpid() != coordinator:
            time.sleep(60)
        return process_unit(self, index)

    monkeypatch.setattr(parallel, "PROGRESS_DEADLINE", 0.5)
    monkeypatch.setattr(Campaign, "_process_unit", hang_on_unit_zero)
    path = str(tmp_path / "hung.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(workers=2),
    ).run()
    assert result.stopped == "complete"
    assert_same_output(serial_run, result)
    coord = replay(coordinator_path(path))
    reasons = [rec["reason"] for rec in coord.of_type("worker_dead")]
    assert "progress_deadline" in reasons


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the failure is patched into forked workers",
)
def test_task_exception_is_reraised_in_the_coordinator(tmp_path, monkeypatch):
    """An exception raised inside a task is a bug, not a lost worker: it
    reaches the caller, after every worker has been reaped."""
    coordinator = os.getpid()
    process_unit = Campaign._process_unit

    def fail_on_unit_zero(self, index):
        if index == 0 and os.getpid() != coordinator:
            raise RuntimeError("unit 0 exploded")
        return process_unit(self, index)

    monkeypatch.setattr(Campaign, "_process_unit", fail_on_unit_zero)
    path = str(tmp_path / "boom.jsonl")
    with pytest.raises(RuntimeError, match="unit 0 exploded"):
        ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(workers=2),
        ).run()
    assert multiprocessing.active_children() == []
    assert not replay(coordinator_path(path)).of_type("worker_dead")


# -- chaos: coordinator crash + resume -------------------------------------------
def test_coordinator_crash_resumes_bit_identical(serial_run, tmp_path):
    path = str(tmp_path / "coord.jsonl")
    with pytest.raises(SimulatedCrash):
        ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(workers=2,
                                    chaos_coordinator_crash_after=5),
        ).run()
    assert parallel_shards_exist(path)
    assert not os.path.exists(path)  # no canonical journal yet
    status = campaign_status(path)  # the status fallback reads the shard set
    assert 0 < status.completed < 36
    assert not status.complete
    resumed = ParallelCampaign.resume(
        make_recipe(), path, parallel=ParallelConfig(workers=2)
    ).run()
    assert resumed.stopped == "complete"
    assert_same_output(serial_run, resumed)
    coord = replay(coordinator_path(path))
    assert coord.of_type("coordinator_resumed")
    # Nothing measured before the crash was re-measured after it... except
    # units that were in flight when the fleet died (deduplicated anyway).
    done = replay(path).of_type("experiment_done")
    assert len(done) == 36
    assert len({rec["index"] for rec in done}) == 36


def test_worker_kill_then_coordinator_crash_then_resume(serial_run, tmp_path):
    """The compound failure: one worker dies mid-unit with a torn tail,
    then the coordinator dies, then a fresh coordinator resumes."""
    path = str(tmp_path / "compound.jsonl")
    with pytest.raises(SimulatedCrash):
        ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(
                workers=2,
                chaos_kills=(ChaosKill(worker=0, after_units=1, torn_tail=True),),
                chaos_coordinator_crash_after=8,
            ),
        ).run()
    resumed = ParallelCampaign.resume(
        make_recipe(), path, parallel=ParallelConfig(workers=2)
    ).run()
    assert_same_output(serial_run, resumed)


def test_budget_stop_is_resumable_through_parallel_path(serial_run, tmp_path):
    path = str(tmp_path / "budget.jsonl")
    config = CampaignConfig(seed=11, timeout=5.0, max_repetitions=30)
    result = ParallelCampaign.start(
        make_recipe(), path, config=config,
        parallel=ParallelConfig(workers=2),
    ).run()
    assert result.stopped == "budget_repetitions"
    assert result.resumable
    assert result.model is None
    assert not os.path.exists(path)  # still sharded, no canonical journal
    resumed = ParallelCampaign.resume(
        make_recipe(), path,
        parallel=ParallelConfig(workers=2),
        max_repetitions=10**6,
    ).run()
    assert resumed.stopped == "complete"
    assert_same_output(serial_run, resumed)


@pytest.mark.parametrize("workers", [2, 4])
def test_budget_stops_every_worker_within_one_unit(tmp_path, workers):
    """A cap stops the whole pool, not only the coordinator: each worker
    checks the pool's shared tally before every unit, so a stopped run
    spends at most one unit per worker past the cap - and resuming it
    still writes the serial run's model.  Four workers on a small host
    also stress the tally's locked updates: a lost one lets the pool
    run past the bound."""
    gt = GroundTruth.random(6, seed=2)
    recipe = AnalyticEngineRecipe(
        gt, noise=NoiseModel(rel_sigma=0.05, spike_prob=0.0), seed=0
    )
    cap = 200
    path = str(tmp_path / "capped.jsonl")
    config = CampaignConfig(seed=11, timeout=5.0, max_repetitions=cap)
    stopped = ParallelCampaign.start(
        recipe, path, config=config, parallel=ParallelConfig(workers=workers),
    ).run()
    assert stopped.stopped == "budget_repetitions"
    bound = cap - 1 + workers * (config.reps + config.max_retries)
    assert cap <= stopped.repetitions <= bound
    assert campaign_status(path).repetitions == stopped.repetitions
    resumed = ParallelCampaign.resume(
        recipe, path, parallel=ParallelConfig(workers=workers),
        max_repetitions=10**6,
    ).run()
    serial = Campaign.start(
        recipe.build(), str(tmp_path / "serial.jsonl"), CONFIG
    ).run()
    assert resumed.stopped == serial.stopped == "complete"
    assert model_io.dumps(resumed.model) == model_io.dumps(serial.model)


def test_resume_budget_also_governs_the_serial_finish(serial_run, tmp_path):
    """Units the fleet never landed are finished serially under the
    budget the resume was given, not the one the campaign started with."""
    path = str(tmp_path / "cap.jsonl")
    config = CampaignConfig(seed=11, timeout=5.0, max_repetitions=30)
    stopped = ParallelCampaign.start(
        make_recipe(), path, config=config, parallel=ParallelConfig(workers=1),
    ).run()
    assert stopped.stopped == "budget_repetitions"
    # The fresh pool's only worker dies before landing a unit, so every
    # remaining unit goes to the serial finish.
    doomed = ChaosKill(worker=len(worker_journal_paths(path)), after_units=0)
    resumed = ParallelCampaign.resume(
        make_recipe(), path,
        parallel=ParallelConfig(workers=1, chaos_kills=(doomed,)),
        max_repetitions=10**6,
    ).run()
    assert resumed.stopped == "complete"
    assert_same_output(serial_run, resumed)


def test_resume_counts_failed_units_against_the_budget(tmp_path):
    """Attempts spent on failed units count toward the cap on resume, as
    the status and a serial resume count them: a campaign whose spend
    already reached its cap stops before starting a pool."""
    path = str(tmp_path / "failing.jsonl")
    config = CampaignConfig(seed=11, timeout=1e-9, max_retries=0,
                            max_repetitions=12)
    ParallelCampaign.start(
        make_recipe(), path, config=config, parallel=ParallelConfig(workers=1),
    ).run()
    status = campaign_status(path)
    assert status.completed == 0 and status.failed > 0
    resumed = ParallelCampaign.resume(
        make_recipe(), path, parallel=ParallelConfig(workers=1),
    ).run()
    assert resumed.stopped == "budget_repetitions"
    assert resumed.repetitions == status.repetitions
    assert len(worker_journal_paths(path)) == 1  # no new pool


# -- merge semantics -------------------------------------------------------------
def _shard_set_with_crash(tmp_path):
    path = str(tmp_path / "m.jsonl")
    with pytest.raises(SimulatedCrash):
        ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(workers=2,
                                    chaos_coordinator_crash_after=6),
        ).run()
    return path


def test_merge_deduplicates_identical_records(tmp_path):
    path = _shard_set_with_crash(tmp_path)
    shards = worker_journal_paths(path)
    assert len(shards) == 2
    donor = replay(shards[0]).of_type("experiment_done")[0]
    dup = dict(donor)
    dup["wall_cost"] = 123.456  # wall clock is volatile, not identity
    with open(shards[1], "a") as handle:
        handle.write(json.dumps(dup) + "\n")
    with pytest.warns(UserWarning, match="duplicate unit record"):
        units, duplicates = merge_worker_journals(path)
    assert duplicates == 1
    done = replay(path).of_type("experiment_done")
    assert len({rec["index"] for rec in done}) == len(done) == units


def test_merge_rejects_conflicting_records(tmp_path):
    path = _shard_set_with_crash(tmp_path)
    shards = worker_journal_paths(path)
    donor = replay(shards[0]).of_type("experiment_done")[0]
    evil = dict(donor)
    evil["samples"] = [s * 2 for s in evil["samples"]]
    with open(shards[1], "a") as handle:
        handle.write(json.dumps(evil) + "\n")
    with pytest.raises(JournalCorruption, match="disagrees"):
        merge_worker_journals(path)


def test_merge_rejects_headerless_shard(tmp_path):
    """Shard headers are written atomically, so an empty worker journal
    cannot be a crash artifact — it is damage, and merge says so."""
    path = _shard_set_with_crash(tmp_path)
    open(path + ".w7", "w").close()
    with pytest.raises(JournalCorruption, match="no complete header"):
        merge_worker_journals(path)


# -- status over a shard set -----------------------------------------------------
def test_parallel_status_reports_progress(tmp_path):
    path = _shard_set_with_crash(tmp_path)
    status = parallel_status(path)
    assert status.total_experiments == 36
    assert 0 < status.completed < 36
    assert status.coverage == pytest.approx(status.completed / 36)
    assert status.repetitions > 0
    assert status.estimation_time > 0
    assert not status.complete
    text = status.summary()
    assert "s wall clock" in text
    # campaign_status falls through to the shard set when the canonical
    # journal does not exist yet.
    assert campaign_status(path).completed == status.completed


def test_status_counts_each_unit_once(tmp_path):
    """A unit one worker skipped and another measured is measured: the
    shard set reports each unit by its merged outcome, as merge does."""
    path = _shard_set_with_crash(tmp_path)
    shards = worker_journal_paths(path)
    measured = replay(shards[0]).of_type("experiment_done")[0]["index"]
    with open(shards[1], "a") as handle:
        handle.write(json.dumps({
            "type": "experiment_skipped", "index": measured, "open_nodes": [],
        }) + "\n")
    status = parallel_status(path)
    assert status.skipped == 0
    assert status.completed + status.failed + len(status.in_flight) <= 36


# -- recipes and config ----------------------------------------------------------
def test_recipe_for_cluster_round_trips_identity(tmp_path):
    import pickle

    from repro.cluster import (
        IDEAL, FaultInjector, FaultPlan, NodeCrash, SimulatedCluster,
        random_cluster,
    )

    gt = GroundTruth.random(4, seed=5)
    cluster = SimulatedCluster(
        random_cluster(4, seed=5), ground_truth=gt, profile=IDEAL,
        noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0), seed=7,
    )
    cluster.attach_injector(
        FaultInjector(FaultPlan(faults=(NodeCrash(node=3),)))
    )
    recipe = recipe_for_cluster(cluster)
    assert isinstance(recipe, DESEngineRecipe)
    rebuilt = pickle.loads(pickle.dumps(recipe)).build()
    assert rebuilt.n == 4
    assert rebuilt.cluster.injector is not None


def test_parallel_config_validation():
    import dataclasses
    import inspect

    from repro import api

    # workers is the executor's only knob; the rest is test-only chaos.
    assert [f.name for f in dataclasses.fields(ParallelConfig)] == [
        "workers", "chaos_kills", "chaos_coordinator_crash_after",
    ]
    for entry in (api.run_campaign, api.resume_campaign):
        assert "parallel" not in inspect.signature(entry).parameters
    with pytest.raises(ValueError, match="workers"):
        ParallelConfig(workers=0)
    with pytest.raises(ValueError, match="chaos_coordinator_crash_after"):
        ParallelConfig(chaos_coordinator_crash_after=0)
    with pytest.raises(ValueError, match="worker"):
        ChaosKill(worker=-1, after_units=0)


# -- telemetry -------------------------------------------------------------------
def test_parallel_run_emits_pool_and_worker_metrics(tmp_path):
    path = str(tmp_path / "tel.jsonl")
    tel = _obs.enable(fresh=True)
    try:
        ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(
                workers=2,
                chaos_kills=(ChaosKill(worker=0, after_units=1),),
            ),
        ).run()
        metrics = tel.registry.snapshot()
        assert family_sum(metrics, "parallel_workers_spawned_total") >= 2
        assert family_sum(metrics, "parallel_worker_units_total") > 0
        assert family_sum(metrics, "parallel_workers_dead_total") >= 1
        assert family_sum(metrics, "parallel_units_reclaimed_total") >= 1
        assert family_sum(metrics, "parallel_merge_units_total") == 36
        names = {span.name for span in tel.spans.finished()}
        assert "campaign.parallel.run" in names
        assert "campaign.parallel.merge" in names
        assert tel.events.events(name="parallel_worker_dead")
        assert tel.events.events(name="parallel_units_reclaimed")
    finally:
        _obs.disable()


# -- the api front door ----------------------------------------------------------
def test_api_run_campaign_workers_matches_serial(tmp_path):
    from repro import api
    from repro.cluster import IDEAL, SimulatedCluster, random_cluster

    def cluster():
        gt = GroundTruth.random(4, seed=5)
        return SimulatedCluster(
            random_cluster(4, seed=5), ground_truth=gt, profile=IDEAL,
            noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0), seed=7,
        )

    serial = api.run_campaign(cluster(), str(tmp_path / "s.jsonl"), CONFIG)
    par = api.run_campaign(cluster(), str(tmp_path / "p.jsonl"), CONFIG, workers=2)
    assert_same_output(serial, par)


def test_api_resume_campaign_detects_shard_set(tmp_path):
    from repro import api
    from repro.cluster import IDEAL, SimulatedCluster, random_cluster

    def cluster():
        gt = GroundTruth.random(4, seed=5)
        return SimulatedCluster(
            random_cluster(4, seed=5), ground_truth=gt, profile=IDEAL,
            noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0), seed=7,
        )

    serial = api.run_campaign(cluster(), str(tmp_path / "s.jsonl"), CONFIG)
    path = str(tmp_path / "p.jsonl")
    recipe = recipe_for_cluster(cluster())
    with pytest.raises(SimulatedCrash):
        ParallelCampaign.start(
            recipe, path, config=CONFIG,
            parallel=ParallelConfig(workers=2,
                                    chaos_coordinator_crash_after=4),
        ).run()
    resumed = api.resume_campaign(cluster(), path, workers=2)
    assert_same_output(serial, resumed)


@needs_proc
def test_workers_exit_when_the_coordinator_is_killed(tmp_path):
    """A ``kill -9`` of the coordinator must not leave its pool workers
    idle forever: each one exits once its parent is gone."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "run",
         "--journal", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "c.json"),
         "--nodes", "16", "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
    ) as coordinator:
        try:
            deadline = time.monotonic() + 120
            while len(children(coordinator.pid)) < 2:
                assert coordinator.poll() is None, "the campaign ended first"
                assert time.monotonic() < deadline, "no worker pool appeared"
                time.sleep(0.05)
            workers = children(coordinator.pid)
        finally:
            coordinator.kill()
            coordinator.wait(timeout=30)
    assert wait_gone(workers, timeout=5.0) == []

# -- property: determinism under random schedules, fleets and kill points --------
@settings(max_examples=5, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=3),
    kill_after=st.integers(min_value=0, max_value=12),
    torn=st.booleans(),
)
def test_any_kill_point_merges_identically(
    workers, kill_after, torn, serial_run, tmp_path_factory
):
    tmp_path = tmp_path_factory.mktemp("prop")
    path = str(tmp_path / "j.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(
            workers=workers,
            chaos_kills=(
                ChaosKill(worker=0, after_units=kill_after, torn_tail=torn),
            ),
        ),
    ).run()
    assert result.stopped == "complete"
    assert_same_output(serial_run, result)


def test_trace_id_propagates_into_every_journal_header(tmp_path):
    """An active trace context stamps the coordinator header, every
    worker shard, and the canonical merged journal — so a distributed
    campaign correlates with the spans of whoever launched it."""
    import random

    from repro.obs import trace as _trace

    path = str(tmp_path / "traced.jsonl")
    ctx = _trace.new_context(random.Random(5))
    with _trace.use(ctx):
        result = ParallelCampaign.start(
            make_recipe(), path, config=CONFIG,
            parallel=ParallelConfig(workers=1),
        ).run()
    assert result.stopped == "complete"
    assert replay(path).header["trace_id"] == ctx.trace_id
    for shard in worker_journal_paths(path):
        assert replay(shard).header["trace_id"] == ctx.trace_id


def test_untraced_campaign_writes_no_trace_id(serial_run, tmp_path):
    path = str(tmp_path / "untraced.jsonl")
    result = ParallelCampaign.start(
        make_recipe(), path, config=CONFIG,
        parallel=ParallelConfig(workers=1),
    ).run()
    assert result.stopped == "complete"
    assert "trace_id" not in replay(path).header
