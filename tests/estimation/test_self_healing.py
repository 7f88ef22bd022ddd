"""End-to-end self-healing acceptance: estimate, break, detect, heal.

The scenario from the issue: a seeded :class:`FaultPlan` with one degraded
node and one flaky link is injected after a clean bootstrap.  The loop
must (a) complete estimation with bounded retries and no unphysical
parameters, (b) attribute the drift to the degraded node, (c) re-estimate
only the triplets touching implicated nodes, and (d) restore the
worst-pair prediction error to within 2x of the fault-free baseline —
deterministically for a given pair of seeds.
"""

import numpy as np

from repro.cluster import (
    FaultInjector,
    FaultPlan,
    FlakyLink,
    NodeSlowdown,
    NoiseModel,
    SimulatedCluster,
    random_cluster,
)
from repro.estimation import (
    DESEngine,
    ModelMaintainer,
    detect_model_drift,
    estimate_extended_lmo_robust,
    star_triplets,
)

N = 5
CYCLES = 3

PLAN = FaultPlan(faults=(
    NodeSlowdown(node=1, factor=4.0),
    FlakyLink(a=0, b=3, loss_prob=0.25),
), seed=13)


def fresh_cluster():
    return SimulatedCluster(
        random_cluster(N, seed=3), seed=7, noise=NoiseModel.default(),
    )


def run_scenario(with_faults):
    """Bootstrap clean, optionally inject PLAN, run maintenance cycles."""
    cluster = fresh_cluster()
    maintainer = ModelMaintainer(DESEngine(cluster))
    maintainer.bootstrap()
    if with_faults:
        cluster.attach_injector(FaultInjector(PLAN))
    records = [maintainer.cycle() for _ in range(CYCLES)]
    return maintainer, records


def test_self_healing_demo():
    baseline_maintainer, baseline_records = run_scenario(with_faults=False)
    assert all(record.action == "ok" for record in baseline_records)
    baseline_worst = max(record.worst_error for record in baseline_records)

    maintainer, records = run_scenario(with_faults=True)

    # Drift was detected and attributed to the degraded node first.
    heals = [record for record in records if record.action in ("heal", "refresh")]
    assert heals, "no heal happened under faults"
    assert 1 in heals[0].implicated
    assert heals[0].worst_error > maintainer.policy.drift_threshold

    # Each heal re-estimated only the implicated nodes' star triplets.
    for record in heals:
        if record.action != "heal":
            continue
        expected = {
            triple
            for node in record.implicated
            for triple in star_triplets(N, node)
        }
        assert f"{len(expected)} triplets re-estimated" in record.detail

    # Retries stayed bounded and the healed model is physical.
    stats = maintainer.last_result.run_stats
    assert stats.deadlocks == 0
    assert not stats.degraded
    model = maintainer.model
    assert (model.C >= 0).all() and (model.t >= 0).all()
    off = ~np.eye(N, dtype=bool)
    assert (model.beta[off] > 0).all()

    # The healed model tracks the degraded cluster again: worst-pair
    # prediction error within 2x of the fault-free baseline.
    post = maintainer.spot_check()
    assert not post.drifted
    assert post.worst_error <= 2.0 * baseline_worst

    # The loop settled: the last cycle found nothing left to fix.
    assert records[-1].action == "ok"


def test_self_healing_is_deterministic_per_seed():
    first, first_records = run_scenario(with_faults=True)
    second, second_records = run_scenario(with_faults=True)
    np.testing.assert_array_equal(first.model.C, second.model.C)
    np.testing.assert_array_equal(first.model.t, second.model.t)
    np.testing.assert_array_equal(first.model.L, second.model.L)
    np.testing.assert_array_equal(first.model.beta, second.model.beta)
    assert [
        (record.action, record.worst_error, record.implicated)
        for record in first_records
    ] == [
        (record.action, record.worst_error, record.implicated)
        for record in second_records
    ]


def test_drift_implicates_exactly_the_degraded_node():
    """E2E chaos check: degrade one node mid-run, catch it by name."""
    cluster = fresh_cluster()
    engine = DESEngine(cluster)
    model = estimate_extended_lmo_robust(engine, reps=3).model
    report = detect_model_drift(model, engine, aggregate=np.min)
    assert not report.drifted

    cluster.degrade_node(2, 4.0)
    report = detect_model_drift(model, engine, aggregate=np.min)
    assert report.drifted
    assert report.drifted_nodes() == [2]
    assert 2 in report.worst_pair


def test_health_log_renders_every_cycle():
    maintainer, records = run_scenario(with_faults=True)
    text = maintainer.render_log()
    assert "bootstrap" in text
    assert "heal" in text
    assert text.count("\n") == len(maintainer.health_records()) - 1
    assert ModelMaintainer(DESEngine(fresh_cluster())).render_log() == (
        "(no maintenance cycles recorded)"
    )


def test_health_history_is_a_structured_event_log():
    """The canonical history is an EventLog; records rebuild from it."""
    maintainer, _records = run_scenario(with_faults=True)
    events = maintainer.health_events.events("heal_cycle")
    records = maintainer.health_records()
    assert len(events) == len(records) == 1 + CYCLES  # bootstrap + cycles
    assert events[0]["action"] == "bootstrap"
    assert [e["cycle"] for e in events] == list(range(len(events)))
    # Field-filtered queries work on the maintenance history.
    heals = maintainer.health_events.events("heal_cycle", action="heal")
    assert all(e["action"] == "heal" for e in heals)


def test_maintainer_journals_heal_cycles(tmp_path):
    """With a journal attached, every cycle is durably logged through the
    campaign's write-ahead layer."""
    import pytest as _pytest
    from repro.estimation import CampaignJournal, replay

    path = str(tmp_path / "maintenance.jsonl")
    journal = CampaignJournal.create(path, {"kind": "maintenance", "n": N})
    cluster = fresh_cluster()
    maintainer = ModelMaintainer(DESEngine(cluster), journal=journal)
    maintainer.bootstrap()
    cluster.attach_injector(FaultInjector(PLAN))
    maintainer.cycle()
    journal.close()

    records = replay(path).of_type("heal_cycle")
    history = maintainer.health_records()
    assert len(records) == len(history)
    assert records[0]["action"] == "bootstrap"
    assert records[-1]["action"] == history[-1].action
    assert records[-1]["worst_error"] == _pytest.approx(history[-1].worst_error)
