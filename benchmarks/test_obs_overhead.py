"""Microbenchmark: telemetry hooks are free when no sink is attached.

The observability tentpole's bar: an instrumented campaign must run
within 5% of its uninstrumented wall-clock when telemetry is disabled.
There is no uninstrumented build to race against, so the check is
analytic and conservative:

1. time a full campaign with telemetry off (what users actually run);
2. count every hook the same campaign fires when telemetry is *on*
   (units, journal appends, kernel events, spans) — an upper bound on
   the disabled-mode guard checks the run executes;
3. measure the cost of one disabled-mode guard (``_obs.ACTIVE`` load +
   ``is None`` branch) by timing a million of them;
4. assert ``hooks x guard_cost < 5%`` of the disabled campaign time.

Results land in ``BENCH_obs.json`` at the repo root (the regression
gate reads ``guard_ns``).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -s
"""

import json
import time
from pathlib import Path

from repro.cluster import (
    IDEAL,
    GroundTruth,
    NoiseModel,
    SimulatedCluster,
    random_cluster,
)
from repro.estimation import Campaign, CampaignConfig, DESEngine
from repro.obs import runtime as _obs

REPEATS = 3
GUARD_ITERATIONS = 1_000_000
BUDGET_FRACTION = 0.05
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
CONFIG = CampaignConfig(seed=11, timeout=5.0)


def make_engine():
    gt = GroundTruth.random(5, seed=5)
    cluster = SimulatedCluster(
        random_cluster(5, seed=5), ground_truth=gt, profile=IDEAL,
        noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0), seed=7,
    )
    return DESEngine(cluster)


def run_campaign(tmp_path, tag):
    path = str(tmp_path / f"camp-{tag}.jsonl")
    start = time.perf_counter()
    result = Campaign.start(make_engine(), path, CONFIG).run()
    elapsed = time.perf_counter() - start
    assert result.stopped == "complete"
    return elapsed, result


def time_disabled_guard():
    """Seconds per ``ACTIVE is None`` check — the whole disabled hook."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(GUARD_ITERATIONS):
            tel = _obs.ACTIVE
            if tel is not None:  # pragma: no cover - telemetry is off here
                raise AssertionError("telemetry must be disabled")
        best = min(best, time.perf_counter() - start)
    return best / GUARD_ITERATIONS


def count_hooks(tmp_path):
    """Hook executions of one campaign, counted by running it instrumented."""
    tel = _obs.enable(fresh=True)
    try:
        _elapsed, result = run_campaign(tmp_path, "instrumented")
        result_engine_events = tel.registry.total("sim_events_total")
        reg = tel.registry
        units = reg.total("campaign_units_total")
        appends = reg.total("journal_appends_total")
        spans = len(tel.spans.finished()) + tel.spans.dropped
        events = len(tel.events) + tel.events.dropped
        # Per-site accounting, deliberately over-counted:
        #  - kernel: one always-on int increment per simulated event,
        #    billed as two full guards although it is cheaper — 2 per event;
        #  - journal: guard + histogram + counter ~ 3 guard-equivalents;
        #  - units: started/done/retry/wall hooks ~ 6 per unit;
        #  - spans/events/checkpoints: 2 each for enter/exit.
        hooks = (
            2 * result_engine_events
            + 3 * appends
            + 6 * units
            + 2 * (spans + events)
            + 64  # flushes, budget gauges, board scans
        )
        return int(hooks), {
            "sim_events": int(result_engine_events),
            "journal_appends": int(appends),
            "units": int(units),
            "spans": int(spans),
            "events": int(events),
        }
    finally:
        _obs.disable()


def test_disabled_telemetry_overhead_under_5_percent(tmp_path):
    _obs.disable()
    disabled_s = min(
        run_campaign(tmp_path, f"off-{i}")[0] for i in range(REPEATS)
    )
    hooks, breakdown = count_hooks(tmp_path)
    guard_s = time_disabled_guard()

    overhead_s = hooks * guard_s
    overhead_fraction = overhead_s / disabled_s
    payload = {
        "benchmark": "telemetry guard overhead, sinks detached",
        "campaign_seconds_disabled": round(disabled_s, 6),
        "guard_ns": round(guard_s * 1e9, 3),
        "hook_executions": hooks,
        "hook_breakdown": breakdown,
        "overhead_seconds": round(overhead_s, 6),
        "overhead_fraction": round(overhead_fraction, 6),
        "budget_fraction": BUDGET_FRACTION,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\ncampaign {disabled_s * 1e3:.1f} ms disabled, "
          f"{hooks} hooks x {guard_s * 1e9:.0f} ns = "
          f"{overhead_fraction:.2%} overhead -> {RESULT_PATH.name}")
    assert overhead_fraction < BUDGET_FRACTION, (
        f"disabled-telemetry overhead {overhead_fraction:.2%} "
        f"exceeds the {BUDGET_FRACTION:.0%} budget"
    )
