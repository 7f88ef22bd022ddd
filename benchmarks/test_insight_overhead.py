"""Microbenchmark: the observatory is cheap, on and off.

Three numbers, landing in ``BENCH_insight.json`` at the repo root:

1. **dashboard render** — ``build_dashboard`` + ``render_html`` on a
   realistically-populated snapshot (residuals across models and size
   buckets, escalation traffic, events, spans) must finish well under a
   second: the dashboard is something you re-render in a watch loop.
2. **monitor ingest** — streaming throughput of
   :class:`ResidualMonitor.record` with telemetry on; the scorecard
   aggregates are simple registry ops, so six figures of pairs/second is
   the expectation.
3. **disabled path** — the analytic guard-cost check from
   ``test_obs_overhead.py``, applied to the new call sites: a simulated
   transfer fires one extra guard (plus one when it escalates), and a
   ``measure(models=...)`` caller adds one guarded monitor hit per
   pair.  Their summed guard cost must stay under 5% of
   an uninstrumented campaign.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_insight_overhead.py -s
"""

import json
import time
from pathlib import Path

from repro.obs import runtime as _obs
from repro.obs.insight.dashboard import build_dashboard, render_html
from repro.obs.insight.residuals import ResidualMonitor
from repro.obs.metrics import family_sum
from repro.obs.runtime import Telemetry

from benchmarks.test_obs_overhead import run_campaign, time_disabled_guard

REPEATS = 3
INGEST_PAIRS = 20_000
RENDER_BUDGET_SECONDS = 1.0
BUDGET_FRACTION = 0.05
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_insight.json"

KB = 1024


def populated_snapshot():
    """A snapshot the size a real fig5-style chaos run produces."""
    tel = Telemetry()
    reg = tel.registry
    monitor = ResidualMonitor(reg)
    for model in ("lmo", "hockney", "pgm"):
        for op in ("gather/linear", "scatter/binomial", "bcast/pipeline"):
            for k in range(4, 22):
                nbytes = 1 << k
                monitor.record(model, op, nbytes, 1.0 + 0.01 * k, 1.0)
    for k in range(8, 20):
        for i in range(40):
            reg.histogram("sim_transfer_bytes", lo=0, hi=28).observe(1 << k)
            if 14 <= k <= 17 and i % 5 == 0:
                reg.histogram(
                    "sim_escalated_transfer_bytes", lo=0, hi=28
                ).observe(1 << k)
                reg.histogram("rto_escalation_seconds", cause="incast").observe(0.2)
    reg.counter("rto_escalations_total", cause="incast").inc(96)
    reg.gauge("breaker_nodes", state="closed").set(6)
    for i in range(200):
        tel.events.info("campaign_checkpoint", index=i)
    for _ in range(100):
        with tel.spans.span("campaign.unit"):
            pass
    return tel.to_dict()


def test_dashboard_render_is_fast_enough():
    doc = populated_snapshot()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        data = build_dashboard(doc)
        html = render_html(data)
        best = min(best, time.perf_counter() - start)
    assert len(html) > 10_000  # it actually rendered content
    assert data["scorecards"] and data["irregularity"] is not None

    _obs.disable()
    tel = _obs.enable(fresh=True)
    try:
        start = time.perf_counter()
        for i in range(INGEST_PAIRS):
            tel.registry  # keep the loop honest about attribute access
            ResidualMonitor().record(
                "lmo", "gather/linear", 1 << (4 + i % 18), 1.01, 1.0
            )
        ingest_s = time.perf_counter() - start
    finally:
        _obs.disable()
    pairs_per_second = INGEST_PAIRS / ingest_s

    payload = {
        "benchmark": "observatory render + ingest + disabled-path overhead",
        "render_seconds": round(best, 6),
        "render_budget_seconds": RENDER_BUDGET_SECONDS,
        "html_bytes": len(html),
        "ingest_pairs": INGEST_PAIRS,
        "ingest_seconds": round(ingest_s, 6),
        "pairs_per_second": round(pairs_per_second, 1),
    }
    _merge_result(payload)
    print(f"\ndashboard render {best * 1e3:.1f} ms, "
          f"ingest {pairs_per_second:,.0f} pairs/s -> {RESULT_PATH.name}")
    assert best < RENDER_BUDGET_SECONDS
    assert pairs_per_second > 10_000


def test_disabled_insight_overhead_under_5_percent(tmp_path):
    _obs.disable()
    disabled_s = min(
        run_campaign(tmp_path, f"insight-off-{i}")[0] for i in range(REPEATS)
    )
    guard_s = time_disabled_guard()

    # Guarded hooks the observatory adds to one campaign, over-counted:
    #  - every simulated transfer: 1 guard (sim_transfer_bytes), +1 when
    #    escalated — bound both by total kernel events;
    #  - residual feeds (measure/suite/maintainer): 1 guard per pair; a
    #    campaign's worth of spot-checks is < 1000 pairs.
    tel = _obs.enable(fresh=True)
    try:
        _elapsed, _result = run_campaign(tmp_path, "insight-instrumented")
        kernel_events = family_sum(tel.registry.snapshot(), "sim_events_total")
    finally:
        _obs.disable()
    hooks = int(2 * kernel_events + 1000)

    overhead_s = hooks * guard_s
    overhead_fraction = overhead_s / disabled_s
    payload = {
        "campaign_seconds_disabled": round(disabled_s, 6),
        "guard_ns": round(guard_s * 1e9, 3),
        "insight_hook_executions": hooks,
        "overhead_seconds": round(overhead_s, 6),
        "overhead_fraction": round(overhead_fraction, 6),
        "budget_fraction": BUDGET_FRACTION,
    }
    _merge_result(payload)
    print(f"\ncampaign {disabled_s * 1e3:.1f} ms disabled, "
          f"{hooks} insight hooks x {guard_s * 1e9:.0f} ns = "
          f"{overhead_fraction:.2%} overhead -> {RESULT_PATH.name}")
    assert overhead_fraction < BUDGET_FRACTION, (
        f"disabled-telemetry insight overhead {overhead_fraction:.2%} "
        f"exceeds the {BUDGET_FRACTION:.0%} budget"
    )


def _merge_result(payload):
    """Both tests write one file; merge so either ordering works."""
    existing = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except ValueError:
            existing = {}
    existing.update(payload)
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")
