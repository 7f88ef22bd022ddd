#!/usr/bin/env python3
"""Gate CI on microbenchmark regressions against committed baselines.

The bench job stashes the repo's committed ``BENCH_*.json`` files (the
baselines), re-runs the microbenchmarks (which overwrite those files at
the repo root), then runs this script to compare the two sets.  A gated
metric that got more than ``--tolerance`` worse (default 25%) than its
committed baseline fails the job.  So does a gated file or metric that
is missing on either side, or a non-positive baseline: a renamed
benchmark output must not silently drop its gate.

Only cost metrics are compared — everything in ``_GATED_METRICS`` is
lower-is-better seconds, nanoseconds or megabytes of peak memory.  Ratio
metrics like ``overhead_fraction`` are asserted by the benchmarks
themselves; counts and metadata are ignored here.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline-dir .bench-baseline --current-dir . [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: file name -> lower-is-better cost metrics gated against the baseline.
_GATED_METRICS: dict[str, tuple[str, ...]] = {
    "BENCH_prediction.json": ("batch_seconds",),
    "BENCH_obs.json": ("guard_ns",),
    "BENCH_insight.json": ("render_seconds", "ingest_seconds"),
    "BENCH_kernel.json": ("wall_seconds_per_million_events",),
    "BENCH_startup.json": ("import_seconds", "peak_rss_mb"),
}


def _load(path: Path) -> dict:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a JSON object")
    return doc


def compare(baseline_dir: Path, current_dir: Path, tolerance: float) -> int:
    """Print a comparison table; return the number of failed metrics
    (regressed, or missing on either side)."""
    failures = 0
    for name, metrics in sorted(_GATED_METRICS.items()):
        base_path = baseline_dir / name
        cur_path = current_dir / name
        if not base_path.exists():
            print(f"  {name}: MISSING committed baseline")
            failures += len(metrics)
            continue
        if not cur_path.exists():
            print(f"  {name}: MISSING, the benchmark produced no result")
            failures += len(metrics)
            continue
        baseline = _load(base_path)
        current = _load(cur_path)
        for metric in metrics:
            if metric not in baseline or metric not in current:
                print(f"  {name}:{metric}: MISSING on one side")
                failures += 1
                continue
            base_v = float(baseline[metric])
            cur_v = float(current[metric])
            if base_v <= 0:
                print(f"  {name}:{metric}: BAD BASELINE {base_v:g} (must be > 0)")
                failures += 1
                continue
            ratio = cur_v / base_v
            verdict = "ok"
            if ratio > 1.0 + tolerance:
                verdict = f"REGRESSION (> {tolerance:.0%} worse)"
                failures += 1
            print(f"  {name}:{metric}: {base_v:.6g} -> {cur_v:.6g} "
                  f"({ratio - 1.0:+.1%}) {verdict}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path, required=True,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--current-dir", type=Path, default=Path("."),
                        help="directory holding the fresh results (default .)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed regression fraction (default 0.25)")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("tolerance must be non-negative")

    print(f"benchmark regression check (tolerance {args.tolerance:.0%}):")
    failures = compare(args.baseline_dir, args.current_dir, args.tolerance)
    if failures:
        print(f"{failures} benchmark metric(s) regressed or missing")
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
