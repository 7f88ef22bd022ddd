"""Parallel campaign executor: speedup and determinism benchmark.

Races a serial campaign against the process-pool executor
(:mod:`repro.estimation.parallel`) on the same DES cluster and seed,
and asserts two things:

1. **Determinism, always**: the parallel result's model parameters,
   coverage and breaker board are bit-identical to the serial run's —
   on any machine, at any core count.
2. **Speedup, where cores exist**: on >= 4 cores the pool must beat
   the serial run by >= 2x (the CI bar; the 8-core target is 4x).
   Boxes with fewer cores (CI runners are often 2-core) still run the
   determinism check but skip the timing assertion: with fewer cores
   than workers the race measures the OS scheduler, not the executor.

Results land in ``BENCH_campaign_parallel.json`` at the repo root::

    PYTHONPATH=src python -m pytest benchmarks/test_campaign_parallel.py -s
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.cluster import IDEAL, GroundTruth, NoiseModel, random_cluster
from repro.estimation import (
    Campaign,
    CampaignConfig,
    DESEngineRecipe,
    ParallelCampaign,
    ParallelConfig,
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign_parallel.json"

N = 10  # 2*C(10,2) + 6*C(10,3) = 810 units, ~2 s serial — amortizes spawns
WORKER_TARGET = 8
SPEEDUP_FLOOR = 2.0  # CI bar at >= 4 cores; the 8-core local target is 4x
CONFIG = CampaignConfig(seed=11, timeout=5.0)


def make_recipe():
    gt = GroundTruth.random(N, seed=5)
    return DESEngineRecipe(
        spec=random_cluster(N, seed=5),
        ground_truth=gt,
        profile=IDEAL,
        noise=NoiseModel(rel_sigma=0.02, spike_prob=0.0),
        seed=7,
    )


def models_equal(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("C", "t", "L", "beta")
    )


def test_parallel_speedup_and_determinism(tmp_path):
    cores = os.cpu_count() or 1
    workers = min(WORKER_TARGET, max(2, cores))

    start = time.perf_counter()
    serial = Campaign.start(
        make_recipe().build(), str(tmp_path / "serial.jsonl"), CONFIG
    ).run()
    serial_s = time.perf_counter() - start
    assert serial.stopped == "complete"

    start = time.perf_counter()
    parallel = ParallelCampaign.start(
        make_recipe(), str(tmp_path / "par.jsonl"), config=CONFIG,
        parallel=ParallelConfig(workers=workers),
    ).run()
    parallel_s = time.perf_counter() - start
    assert parallel.stopped == "complete"

    determinism_ok = (
        models_equal(serial.model, parallel.model)
        and parallel.coverage == serial.coverage
        and parallel.breakers == serial.breakers
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    timing_gated = cores < 4
    payload = {
        "benchmark": "parallel campaign executor vs serial sweep",
        "n": N,
        "units": serial.total_experiments,
        "workers": workers,
        "cpu_count": cores,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "timing_asserted": not timing_gated,
        "determinism_ok": bool(determinism_ok),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nserial {serial_s:.2f} s, {workers} workers {parallel_s:.2f} s "
          f"({speedup:.2f}x on {cores} cores) -> {RESULT_PATH.name}")

    assert determinism_ok, (
        "parallel result diverged from the serial run — the deterministic "
        "merge is broken"
    )
    if not timing_gated:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{workers} workers on {cores} cores managed only "
            f"{speedup:.2f}x over serial (floor {SPEEDUP_FLOOR}x)"
        )
