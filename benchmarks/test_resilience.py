"""Resilience benchmark: availability and latency under wire chaos.

Boots the daemon in-process, then drives an identical call sequence
through two arms of the deterministic chaos proxy
(:class:`repro.serve.ChaosProxy`):

* **clean** — the proxy as a transparent relay (the control arm);
* **chaos** — the default chaos profile (~10% of calls hit a reset,
  truncation, flipped byte, stall or delayed delivery), with the
  resilient client's seeded retry/backoff/idempotency discipline doing
  the surviving.

Three things are asserted, not just reported:

1. **Availability ≥ 99% under chaos**: the fraction of logical calls
   that complete despite injected faults (with the fixed seeds below,
   every call completes — the floor guards against regressions in the
   retry whitelist or the proxy's fault accounting).
2. **Identity, always**: every completed reply — through however many
   retries — is bit-identical to the in-process ``api.predict`` answer.
   Corruption must be *detected* (CRC) and retried, never delivered.
3. **Faults actually happened**: the chaos arm must have injected a
   meaningful number of faults, or the availability number is
   measuring nothing.

Latency columns (p50/p99 per arm) are reported for the trajectory but
not gated: chaos p99 deliberately includes 500 ms stalls and backoff
sleeps, so gating it would only test the fault schedule.

Results land in ``BENCH_resilience.json`` at the repo root::

    PYTHONPATH=src python -m pytest benchmarks/test_resilience.py -s
"""

import json
import os
import time
from pathlib import Path

from repro import api
from repro.cluster import GroundTruth
from repro.models import ExtendedLMOModel, GatherIrregularity
from repro.serve import (
    ChaosConfig,
    ChaosProxy,
    ResilientClient,
    RetryPolicy,
    ServeConfig,
    ServerThread,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

KB = 1024
CALLS = 400
CHAOS_SEED = 2024
RETRY_SEED = 7
MIN_AVAILABILITY = 0.99


def make_model():
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB, escalation_value=0.22,
                             p_at_m2=0.7)
    return ExtendedLMOModel.from_ground_truth(GroundTruth.random(8, seed=3), irr)


def make_cases(count):
    cases = []
    for i in range(count):
        if i % 2 == 0:
            cases.append(("scatter", "linear", float(KB * (i % 40 + 1)), i % 8))
        else:
            cases.append(("gather", "linear", float(2 * KB * (i % 40 + 1)), i % 8))
    return cases


def drive_arm(host, chaos_config, expected):
    """One arm: the fixed call sequence through a fresh proxy.

    Returns (latencies of completed calls, completed, mismatches,
    retries, fault stats).
    """
    hostname, port = host.address
    latencies = []
    completed = 0
    mismatches = 0
    with ChaosProxy(hostname, port, chaos_config) as proxy:
        client = ResilientClient(
            host=proxy.host, port=proxy.port, timeout=2.0,
            retry=RetryPolicy(max_retries=10, base_delay=0.01,
                              max_delay=0.25, seed=RETRY_SEED),
        )
        try:
            for case, local in expected:
                operation, algorithm, nbytes, root = case
                t0 = time.perf_counter()
                try:
                    reply = client.predict("lmo", operation, algorithm,
                                           nbytes, root=root)
                except Exception:  # noqa: BLE001 - an unavailable call
                    continue
                latencies.append(time.perf_counter() - t0)
                completed += 1
                if reply != local:
                    mismatches += 1
            retries = client.retries_total
        finally:
            client.close()
        stats = proxy.stats.snapshot()
    return latencies, completed, mismatches, retries, stats


def percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def test_availability_and_identity_under_chaos():
    model = make_model()
    cases = make_cases(CALLS)
    expected = [
        (case, api.predict(model, case[0], case[1], case[2], root=case[3]))
        for case in cases
    ]
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=False)
    arms = {}
    with ServerThread(config) as host:
        for arm_name, chaos_config in (
            ("clean", ChaosConfig.clean(seed=CHAOS_SEED)),
            ("chaos", ChaosConfig(seed=CHAOS_SEED)),
        ):
            latencies, completed, mismatches, retries, stats = drive_arm(
                host, chaos_config, expected
            )
            faults = sum(stats[k] for k in ("resets", "partials",
                                            "corruptions", "stalls",
                                            "delays"))
            arms[arm_name] = {
                "calls": CALLS,
                "completed": completed,
                "availability": completed / CALLS,
                "mismatched_replies": mismatches,
                "retries": retries,
                "p50_ms": percentile(latencies, 0.50) * 1e3,
                "p99_ms": percentile(latencies, 0.99) * 1e3,
                "faults_injected": faults,
                "fault_stats": stats,
            }

    doc = {
        "benchmark": "service resilience under wire chaos",
        "cpus": os.cpu_count() or 1,
        "chaos_seed": CHAOS_SEED,
        "retry_seed": RETRY_SEED,
        "min_availability": MIN_AVAILABILITY,
        "arms": arms,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nresilience bench -> {RESULT_PATH}")
    for arm_name in ("clean", "chaos"):
        row = arms[arm_name]
        print(f"  {arm_name:>5}: availability {row['availability']:6.2%}, "
              f"p50 {row['p50_ms']:7.2f} ms, p99 {row['p99_ms']:7.2f} ms, "
              f"{row['faults_injected']:3d} faults, "
              f"{row['retries']:3d} retries")

    # The gates (self-contained: nothing here depends on a past run).
    assert arms["clean"]["availability"] == 1.0, (
        "calls failed with no faults injected — the proxy or server is broken"
    )
    assert arms["clean"]["faults_injected"] == 0
    assert arms["chaos"]["availability"] >= MIN_AVAILABILITY, (
        f"availability under chaos {arms['chaos']['availability']:.2%} is "
        f"below the {MIN_AVAILABILITY:.0%} floor"
    )
    assert arms["chaos"]["faults_injected"] >= CALLS // 50, (
        "the chaos arm injected almost nothing; the benchmark is vacuous"
    )
    for arm_name in ("clean", "chaos"):
        assert arms[arm_name]["mismatched_replies"] == 0, (
            f"{arm_name} arm delivered replies that diverged from "
            f"api.predict — corruption got through"
        )
