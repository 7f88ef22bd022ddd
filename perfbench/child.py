"""One measured phase in a fresh interpreter: the paper run or a campaign.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py paper --seed 0 [--trace] [--import-only]
    python3 perfbench/child.py campaign --phase serial --journal DIR/c.jsonl \
        --seed 0 [--trace] [--import-only]

The child prints ``READY`` once it is set up (the parent times spawn to
READY as ``setup_s``), then does the work and prints one ``RESULT`` line.
``--import-only`` stops after READY: an extra set-up sample.
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import json
import os
import pstats
import resource
import time
from typing import Any

import layers
import meta
from procs import announce

#: The first figure of the paper run; it estimates the model suite that the
#: later experiments reuse, so a user waits this long for any figure.
FIRST_FIGURE = "fig1"
#: The one check an experiment that raises is given in place of the shape
#: checks it never reached, so the crash counts as a failed operation.
RAN_CHECK = "ran to completion"


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _profile_layers(profiler: cProfile.Profile) -> dict[str, float]:
    import repro

    stats = pstats.Stats(profiler).stats
    grouped = layers.group_self_time(
        stats, layers.package_layer(os.path.dirname(repro.__file__))
    )
    total = layers.profile_total(stats)
    if abs(sum(grouped.values()) - total) > 1e-6 * max(total, 1.0):
        raise RuntimeError("layer self times do not sum to the profiled total")
    out = {f"{layer}.self_s": seconds for layer, seconds in grouped.items()}
    out["profile.total_s"] = total
    return out


def run_paper(args: argparse.Namespace) -> dict[str, Any]:
    start = time.perf_counter()
    import repro.api  # noqa: F401 - timed as the import layer
    import_s = time.perf_counter() - start
    from repro.experiments import ALL_EXPERIMENTS, common

    announce("READY", {"import_s": import_s})
    if args.import_only:
        return {}

    counters = layers.Counters()
    profiler = None
    if args.trace:
        layers.install_simulation_counters(counters)
        layers.install_benchmark_counters(counters)
        counters.wrap_function(common, "get_model_suite", counters.timed("experiments.suite_s"))
        profiler = cProfile.Profile()

    seconds: dict[str, float] = {}
    spans: list[list] = []
    checks: dict[str, dict[str, bool]] = {}
    series: dict[str, list] = {}
    errors: dict[str, str] = {}
    wall_start = time.perf_counter()
    for experiment_id, runner in ALL_EXPERIMENTS.items():
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = runner(quick=False, seed=args.seed)
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            result = None
            errors[experiment_id] = f"{type(exc).__name__}: {exc}"
        finally:
            if profiler is not None:
                profiler.disable()
        t1 = time.perf_counter()
        seconds[experiment_id] = t1 - t0
        if experiment_id == FIRST_FIGURE:
            first_figure = t1 - wall_start
        spans.append([f"experiment.{experiment_id}", t0, t1])
        if result is None:
            checks[experiment_id] = {RAN_CHECK: False}
            continue
        checks[experiment_id] = {name: bool(ok) for name, ok in result.checks.items()}
        series[experiment_id] = [[s.name, list(s.sizes), list(s.values)] for s in result.series]
    wall = time.perf_counter() - wall_start
    counters.remove()

    out: dict[str, Any] = {
        "wall_s": wall,
        "first_figure_s": first_figure,
        "import_s": import_s,
        "experiment_s": seconds,
        "spans": spans,
        "checks": checks,
        "errors": errors,
        "digest": meta.digest(series),
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
    }
    if profiler is not None:
        out["layers"] = _profile_layers(profiler)
        out["counters"] = dict(counters.values)
    return out


def _parallel_journal_counts(journal: str) -> dict[str, float]:
    """Units executed by workers and units reclaimed, from the journals."""
    executed = 0
    for path in glob.glob(glob.escape(journal) + ".w*"):
        with open(path) as handle:
            for line in handle:
                if '"experiment_done"' in line or '"experiment_failed"' in line:
                    executed += 1
    reclaimed = merged = 0
    with open(journal + ".coord") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "units_reclaimed":
                reclaimed += len(record.get("requeued", [])) + len(record.get("quarantined", []))
            elif record.get("type") == "merge_complete":
                merged += record["units"]
    return {
        "parallel.units_executed": executed,
        "parallel.units_reclaimed": reclaimed,
        "parallel.useful_ratio": merged / executed if executed else 0.0,
    }


def run_campaign(args: argparse.Namespace) -> dict[str, Any]:
    start = time.perf_counter()
    from repro import api
    from repro.estimation import CampaignConfig

    import_s = time.perf_counter() - start
    cluster = api.load_cluster(seed=args.seed)
    announce("READY", {"import_s": import_s})
    if args.import_only:
        return {}

    counters = layers.Counters()
    profiler = None
    if args.trace and args.phase == "serial":
        layers.install_simulation_counters(counters)
        layers.install_journal_counters(counters)
        profiler = cProfile.Profile()
    elif args.trace:
        from repro.estimation import parallel

        counters.wrap_function(
            parallel, "merge_worker_journals", counters.timed("parallel.merge_s"))

    workers = 1 if args.phase == "serial" else 2
    config = CampaignConfig(seed=args.seed)
    cpu_before = _cpu_s(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = api.run_campaign(cluster, args.journal, config=config, workers=workers)
    finally:
        if profiler is not None:
            profiler.disable()
    wall = time.perf_counter() - t0
    coordinator_cpu = _cpu_s(resource.RUSAGE_SELF) - cpu_before
    counters.remove()

    model_path = args.journal + ".model.json"
    if result.model is not None:
        api.save_model(result.model, model_path)
        with open(model_path, "rb") as handle:
            model_bytes = handle.read()
    else:
        model_bytes = b""
    out: dict[str, Any] = {
        "wall_s": wall,
        "import_s": import_s,
        "spans": [[f"campaign.{args.phase}", t0, t0 + wall]],
        "total": result.total_experiments,
        "completed": result.completed,
        "coverage": result.coverage,
        "repetitions": result.repetitions,
        "model_sha256": meta.digest(model_bytes.decode()),
        "peak_rss_mb": max(_maxrss_mb(resource.RUSAGE_SELF),
                           _maxrss_mb(resource.RUSAGE_CHILDREN)),
    }
    if args.trace:
        values = dict(counters.values)
        if profiler is not None:
            out["layers"] = _profile_layers(profiler)
            values["campaign.units"] = result.completed
            values["campaign.reps"] = result.repetitions
        else:
            workers_cpu = _cpu_s(resource.RUSAGE_CHILDREN)
            values.update(_parallel_journal_counts(args.journal))
            values["parallel.workers_cpu_s"] = workers_cpu
            values["parallel.coordinator_cpu_s"] = coordinator_cpu
            values["parallel.busy_ratio"] = workers_cpu / (workers * wall)
        out["counters"] = values
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=["paper", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=["serial", "parallel"], default="serial")
    parser.add_argument("--journal", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    out = run_paper(args) if args.kind == "paper" else run_campaign(args)
    if not args.import_only:
        announce("RESULT", out)


if __name__ == "__main__":
    main()
