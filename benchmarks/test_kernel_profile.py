"""Microbenchmark: the DES kernel's events/sec baseline, profiled.

Runs the canned kernel workload (:mod:`repro.benchlib.kernelprof`) twice:
an uninstrumented pass whose ``events_per_second`` /
``wall_seconds_per_million_events`` numbers become the committed baseline
the CI regression gate tracks, and a profiled pass whose per-event-type
breakdown lands in the same document.  The seeded cluster makes the event
stream identical run to run, so the profiler's frame *counts* are exact —
asserted below — and only the timing side is machine-dependent.

Artifacts at the repo root:

* ``BENCH_kernel_profile.json`` — gated by
  ``benchmarks/check_bench_regression.py`` on
  ``wall_seconds_per_million_events``;
* ``kernel_profile.speedscope.json`` — drop onto https://speedscope.app
  (uploaded by the CI bench job).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_profile.py -s
"""

import json
from pathlib import Path

from repro.benchlib.kernelprof import kernel_profile_document, run_kernel_workload
from repro.obs import prof as _prof

_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = _ROOT / "BENCH_kernel_profile.json"
SPEEDSCOPE_PATH = _ROOT / "kernel_profile.speedscope.json"

NODES = 8
#: ~1,440 events per repetition: 140 make ~200k events, about a second of
#: kernel time, long enough that the 25% gate on
#: ``wall_seconds_per_million_events`` sits well outside timer noise.
REPS = 140
SEED = 0


def test_kernel_profile_baseline_and_artifacts():
    doc, profiler = kernel_profile_document(nodes=NODES, reps=REPS, seed=SEED)

    # The baseline pass exercised the kernel long enough to time...
    assert doc["events_processed"] >= 200_000
    assert doc["events_per_second"] > 0
    assert doc["wall_seconds_per_million_events"] > 0
    # ...and the profiled pass saw the *same* deterministic event stream.
    assert doc["profiled_events"] == doc["events_processed"]
    assert doc["profile"]["frames"], "profiled pass produced no frames"
    # Kernel events are attributed per event type / handler process.
    names = {frame["name"] for frame in doc["profile"]["frames"]}
    assert any("proc:" in name for name in names), names

    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    SPEEDSCOPE_PATH.write_text(
        json.dumps(profiler.speedscope("kernel profile"),
                   separators=(",", ":")) + "\n"
    )
    print(f"\n{doc['events_processed']} events at "
          f"{doc['events_per_second']:,.0f} events/s "
          f"({doc['wall_seconds_per_million_events']:.3f} s/M events) "
          f"-> {RESULT_PATH.name}, {SPEEDSCOPE_PATH.name}")


def test_kernel_profile_frame_counts_are_deterministic():
    """Same seed, same workload => byte-identical frame counts."""
    with _prof.profiling() as first:
        run_kernel_workload(nodes=4, sizes=(1024,), reps=1, seed=3)
    with _prof.profiling() as second:
        run_kernel_workload(nodes=4, sizes=(1024,), reps=1, seed=3)
    counts_a = {name: s.count for name, s in first.stats().items()}
    counts_b = {name: s.count for name, s in second.stats().items()}
    assert counts_a and counts_a == counts_b
