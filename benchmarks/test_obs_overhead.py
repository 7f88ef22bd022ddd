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

The second arm gates the *enabled* steady-state additions from the
flight-recorder issue: a serving process ticks its timeline once per
second (finest tier width) and mirrors its flight spill four times per
second (default ``--flight-sync-interval 0.25``).  Both are timed
against a realistically populated registry and the analytic per-second
cost ``tick x 1 Hz + sync x 4 Hz`` must stay under 1% of wall-clock.

Results land in ``BENCH_obs.json`` at the repo root (the two arms merge
into one document; the regression gate reads ``guard_ns``).  Run with::

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
from repro.obs.flight import FlightRecorder
from repro.obs.timeline import DEFAULT_TIERS, TimelineStore

REPEATS = 3
GUARD_ITERATIONS = 1_000_000
BUDGET_FRACTION = 0.05
TIMELINE_BUDGET_FRACTION = 0.01
TICK_HZ = 1.0   # maybe_tick fires at the finest tier width (1 s)
SYNC_HZ = 4.0   # default --flight-sync-interval 0.25
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def merge_result(section):
    """Fold one arm's payload into BENCH_obs.json without clobbering the
    other arm (each test can run alone)."""
    doc = {}
    if RESULT_PATH.exists():
        try:
            doc = json.loads(RESULT_PATH.read_text())
        except ValueError:
            doc = {}
    doc.update(section)
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")

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
    merge_result(payload)
    print(f"\ncampaign {disabled_s * 1e3:.1f} ms disabled, "
          f"{hooks} hooks x {guard_s * 1e9:.0f} ns = "
          f"{overhead_fraction:.2%} overhead -> {RESULT_PATH.name}")
    assert overhead_fraction < BUDGET_FRACTION, (
        f"disabled-telemetry overhead {overhead_fraction:.2%} "
        f"exceeds the {BUDGET_FRACTION:.0%} budget"
    )


def populate_serving_registry(reg):
    """A registry shaped like a busy serve worker: labelled request and
    outcome counters, latency histograms, queue/budget gauges."""
    for verb in ("predict", "fit", "health", "models"):
        for outcome in ("ok", "error"):
            reg.counter("service_requests_total", verb=verb,
                        outcome=outcome).inc(1000)
        reg.histogram("service_request_seconds", verb=verb,
                      buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0))
        for _ in range(200):
            reg.histogram("service_request_seconds", verb=verb).observe(0.004)
    for model in ("lmo", "hockney", "plogp"):
        reg.counter("service_predictions_total", model=model).inc(500)
        reg.gauge("model_rmse", model=model).set(0.02)
    reg.gauge("service_inflight").set(2)
    reg.gauge("journal_bytes").set(1 << 20)
    reg.counter("journal_appends_total").inc(4096)


def test_timeline_and_flight_overhead_under_1_percent(tmp_path):
    """Steady-state cost of the always-on arms added by the flight
    recorder issue: 1 Hz timeline ticks + 4 Hz spill syncs < 1%/s."""
    tel = _obs.enable(fresh=True)
    try:
        populate_serving_registry(tel.registry)
        for i in range(48):  # a representative span/event population
            with _obs.span("serve.request", verb="predict", i=i):
                pass
            tel.events.info("request", verb="predict", i=i)

        clock = [0.0]
        store = TimelineStore(registry=tel.registry, tiers=DEFAULT_TIERS,
                              clock=lambda: clock[0])
        store.tick(0.0)
        tick_s = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(100):
                clock[0] += 1.0
                # keep the registry moving so every tick folds real deltas
                tel.registry.counter("service_requests_total",
                                     verb="predict", outcome="ok").inc(7)
                tel.registry.histogram("service_request_seconds",
                                       verb="predict").observe(0.003)
                store.tick(clock[0])
            tick_s = min(tick_s, (time.perf_counter() - start) / 100)

        recorder = FlightRecorder(tel, process="bench",
                                  spill_path=str(tmp_path / "bench.spill"),
                                  sync_interval=0.0)
        sync_s = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(100):
                recorder.sync()
            sync_s = min(sync_s, (time.perf_counter() - start) / 100)
        recorder.close()
    finally:
        _obs.disable()

    steady_cost_per_s = tick_s * TICK_HZ + sync_s * SYNC_HZ
    fraction = steady_cost_per_s / 1.0
    merge_result({"timeline_flight": {
        "benchmark": "timeline tick + flight sync steady state",
        "tick_us": round(tick_s * 1e6, 3),
        "sync_us": round(sync_s * 1e6, 3),
        "tick_hz": TICK_HZ,
        "sync_hz": SYNC_HZ,
        "overhead_fraction": round(fraction, 6),
        "budget_fraction": TIMELINE_BUDGET_FRACTION,
    }})
    print(f"\ntick {tick_s * 1e6:.1f} us x {TICK_HZ:.0f} Hz + "
          f"sync {sync_s * 1e6:.1f} us x {SYNC_HZ:.0f} Hz = "
          f"{fraction:.3%} of wall-clock -> {RESULT_PATH.name}")
    assert fraction < TIMELINE_BUDGET_FRACTION, (
        f"timeline+flight steady-state overhead {fraction:.2%} exceeds "
        f"the {TIMELINE_BUDGET_FRACTION:.0%} budget"
    )
