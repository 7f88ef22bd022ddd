"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
the same workload and seed untraced and then traced, and prints every
per-layer metric (zero where the workload leaves a layer idle).  The last
line of stdout is the result object; the line before it carries the run's
details (metadata, digest, sample counts).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from typing import Any, Callable

import meta
import procs
from statistics import median

WORKLOADS = ("paper", "campaign", "serve_mixed")

#: End-to-end metrics and their units.  Every workload reports every one;
#: what "latency" and "throughput" measure on each is in perfbench/README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
}

EXPERIMENT_IDS = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table2",
    "estimation_cost", "ablations", "menu_accuracy", "accuracy_table", "thresholds",
)
SELF_TIME_LAYERS = (
    "analysis", "api", "apps", "benchlib", "cli", "cluster", "estimation",
    "experiments", "io", "models", "mpi", "obs", "optimize",
    "predict_service", "serve", "simlib", "stats", "other",
)

#: Every per-layer metric and its unit; a traced run prints all of them.
PER_LAYER = {
    "setup.import_s": "s",
    "simlib.events": "count",
    "simlib.runs": "count",
    "cluster.transmits": "count",
    "cluster.noise_draws": "count",
    "mpi.rank_runs": "count",
    "benchlib.points": "count",
    "benchlib.reps": "count",
    "benchlib.converged_ratio": "ratio",
    "experiments.suite_s": "s",
    **{f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS},
    "campaign.units": "count",
    "campaign.reps": "count",
    "journal.appends": "count",
    "journal.fsyncs": "count",
    "journal.bytes": "bytes",
    "parallel.workers_cpu_s": "s",
    "parallel.coordinator_cpu_s": "s",
    "parallel.busy_ratio": "ratio",
    "parallel.units_executed": "count",
    "parallel.units_reclaimed": "count",
    "parallel.useful_ratio": "ratio",
    "parallel.merge_s": "s",
    "predict_service.hit_ratio": "ratio",
    "predict_service.eval_ms": "ms",
    "serve.request_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.batch_eval_ms": "ms",
    "serve.batch_size": "count",
    "serve.framing_us": "us",
    "serve.transport_ms": "ms",
    "serve.cpu_ratio": "ratio",
    "serve.estimate_ms": "ms",
    "serve.register_ms": "ms",
    "client.framing_us": "us",
    "client.late_ms": "ms",
    "mixed_predict.p90_ms": "ms",
    "mixed_predict.p99_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "profile.total_s": "s",
    "trace.overhead": "ratio",
}

SETUP_SAMPLES = 3
#: Cold runs of the paper experiments per benchmark run, each in a fresh
#: interpreter; the paper metrics are their medians.
PAPER_RUNS = 2
#: Serial-then-parallel campaign pairs per benchmark run; medians again.
CAMPAIGN_RUNS = 2
CHILD_TIMEOUT = 600.0
MIN_SERVE_SECONDS = 5  # a phase length that leaves >= 10 samples beyond p90
CHILD = os.path.join(procs.HERE, "child.py")


def run_child(spans: meta.SpanLog, args: list[str]) -> tuple[dict, float]:
    """One fresh-interpreter phase; returns its RESULT and its set-up time."""
    with spans.span("child", args=args), procs.Child([CHILD, *args]) as child:
        _, ready = child.expect_json("READY", CHILD_TIMEOUT)
        spans.add("setup", child.started, ready)
        result, _ = child.expect_json("RESULT", CHILD_TIMEOUT)
        if child.wait(timeout=60) != 0:
            raise procs.ChildError(f"{args[0]} child failed")
        for name, start, end in result.pop("spans"):
            spans.add(name, start, end)
        return result, ready - child.started


def setup_sample(spans: meta.SpanLog, args: list[str]) -> float:
    with spans.span("setup", args=args), procs.Child([CHILD, *args, "--import-only"]) as child:
        _, ready = child.expect_json("READY", CHILD_TIMEOUT)
        child.wait(timeout=60)
        return ready - child.started


def paper(seed: int, seconds: float, trace: bool, spans: meta.SpanLog) -> dict[str, Any]:
    """The 14 experiments of ALL_EXPERIMENTS in full mode, caches cold, PAPER_RUNS times."""
    base = ["paper", "--seed", str(seed)]
    setups = [setup_sample(spans, base) for _ in range(SETUP_SAMPLES - PAPER_RUNS)]
    results = []
    for _ in range(PAPER_RUNS):
        result, setup = run_child(spans, base)
        setups.append(setup)
        results.append(result)
    checks = [(eid, name, ok) for result in results
              for eid, named in result["checks"].items() for name, ok in named.items()]
    digests = sorted({result["digest"] for result in results})
    wall = median(result["wall_s"] for result in results)
    report: dict[str, Any] = {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
            "latency_ms": median(result["first_figure_s"] for result in results) * 1e3,
            "throughput_per_s": median(len(result["experiment_s"]) / result["wall_s"]
                                       for result in results),
        },
        "attempted": len(checks),
        "failed": sum(not ok for _, _, ok in checks),
        # The same seed must give the same science in every cold run.
        "correct": len(digests) == 1,
        "details": {
            "setup_samples_s": setups,
            "paper_s": [result["wall_s"] for result in results],
            "first_figure_s": [result["first_figure_s"] for result in results],
            "failed_checks": sorted({f"{eid}: {name}" for eid, name, ok in checks if not ok}),
            "experiment_errors": results[0]["errors"],
            "experiment_s": results[0]["experiment_s"],
            "digest": digests[0] if len(digests) == 1 else digests,
        },
    }
    if trace:
        traced, _ = run_child(spans, base + ["--trace"])
        counters = traced["counters"]
        values = {**traced["layers"], **counters}
        values["setup.import_s"] = traced["import_s"]
        values.update({f"experiments.{eid}_s": s for eid, s in traced["experiment_s"].items()})
        points = counters.get("benchlib.points", 0.0)
        values["benchlib.converged_ratio"] = (
            counters.get("benchlib.converged", 0.0) / points if points else 0.0)
        values["trace.overhead"] = traced["wall_s"] / wall
        report["per_layer"] = values
    return report


def campaign(seed: int, seconds: float, trace: bool, spans: meta.SpanLog) -> dict[str, Any]:
    """The n = 16 LMO campaign, serially then with two workers, CAMPAIGN_RUNS times."""
    base = ["campaign", "--seed", str(seed)]
    journals = tempfile.mkdtemp(prefix="journals-", dir=procs.scratch_dir())
    try:
        numbers = itertools.count()

        def phase(name: str, *extra: str) -> tuple[dict, float]:
            path = os.path.join(journals, f"{name}-{next(numbers)}.jsonl")
            return run_child(spans, base + ["--phase", name, "--journal", path, *extra])

        setups, serials, parallels = [], [], []
        for _ in range(CAMPAIGN_RUNS):
            serial, setup = phase("serial")
            setups.append(setup)
            serials.append(serial)
            parallel, setup = phase("parallel")
            setups.append(setup)
            parallels.append(parallel)
        runs = serials + parallels
        identical = len({run["model_sha256"] for run in runs}) == 1
        covered = all(run["coverage"] == 1.0 for run in runs)
        serial_s = median(run["wall_s"] for run in serials)
        report: dict[str, Any] = {
            "metrics": {
                "setup_s": median(setups),
                "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
                "latency_ms": serial_s * 1e3,
                "throughput_per_s": median(run["completed"] / run["wall_s"]
                                           for run in parallels),
            },
            "attempted": sum(run["total"] for run in runs),
            "failed": sum(run["total"] - run["completed"] for run in runs),
            "correct": identical and covered,
            "details": {
                "setup_samples_s": setups,
                "campaign_serial_s": [run["wall_s"] for run in serials],
                "campaign_parallel_s": [run["wall_s"] for run in parallels],
                "models_identical": identical,
                "coverage": [run["coverage"] for run in runs],
                "repetitions": serials[0]["repetitions"],
                "digest": serials[0]["model_sha256"],
            },
        }
        if trace:
            traced_serial, _ = phase("serial", "--trace")
            traced_parallel, _ = phase("parallel", "--trace")
            values = {**traced_serial["layers"], **traced_serial["counters"],
                      **traced_parallel["counters"]}
            values["setup.import_s"] = traced_serial["import_s"]
            values["trace.overhead"] = traced_serial["wall_s"] / serial_s
            report["per_layer"] = values
        return report
    finally:
        shutil.rmtree(journals, ignore_errors=True)


def serve_mixed(seed: int, seconds: float, trace: bool, spans: meta.SpanLog) -> dict[str, Any]:
    """Estimates beside paced predicts against a ``repro serve`` process."""
    sys.path.insert(0, procs.SRC)  # the load generator imports the client
    import serve_load

    return serve_load.run_workload(seed, seconds, trace, spans)


RUNNERS: dict[str, Callable[..., dict[str, Any]]] = {
    "paper": paper,
    "campaign": campaign,
    "serve_mixed": serve_mixed,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(procs.SRC, "repro", "__init__.py")):
        print(f"no program to measure: {procs.SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.workload == "serve_mixed" and args.seconds < MIN_SERVE_SECONDS:
        print(f"{args.workload} needs --seconds >= {MIN_SERVE_SECONDS}", file=sys.stderr)
        return 2

    # A terminated run still unwinds, so every child it started is reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    before = meta.cpu_sample()
    reference_s = meta.reference_loop()
    spans = meta.SpanLog()
    with spans.span(args.workload, seed=args.seed, trace=args.trace):
        report = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), spans)
    after = meta.cpu_sample()

    if args.trace:
        values = report["per_layer"]
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(report["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **meta.host_info(),
        "reference_loop_s": reference_s,
        "loadavg_1m": [before.get("loadavg_1m"), after.get("loadavg_1m")],
        "steal_share": meta.steal_share(before, after),
        "run_wall_s": time.perf_counter() - started,
        **report["details"],
    }
    if args.trace:
        details["end_to_end"] = report["metrics"]
        with open(os.path.join(procs.scratch_dir(), f"trace-{args.workload}-{args.seed}.json"),
                  "w") as handle:
            json.dump({"details": details, "per_layer": report["per_layer"],
                       "spans": spans.spans}, handle, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
