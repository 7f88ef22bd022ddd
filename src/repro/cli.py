"""Command-line interface: ``python -m repro <subcommand>``.

Mirrors the workflow of the paper's software tool [13]: describe the
cluster, estimate a model's parameters (to JSON), predict collectives
with it, measure them for comparison, visualize a run, and regenerate
the paper's experiments.  All model I/O, cluster and campaign
construction, estimation, prediction and measurement route through the
:mod:`repro.api` facade.

Each subcommand's parser carries its handler (``set_defaults(run=...)``).
Every subcommand takes ``--format {text,json}``; JSON goes to stdout,
errors always go to stderr (see ``docs/cli.md``).  Handlers report bad
input by raising, and :func:`main` turns the error into one stderr line
and exit code 2: a :class:`UsageError` verbatim, an ``OSError`` as its
message, and an :class:`repro.api.ApiError`, ``ValueError`` or
``LookupError`` (also one raised below the facade) as ``code: message``
in the taxonomy of :func:`repro.api.errors.error_payload`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from repro import api
from repro.api.errors import error_payload
from repro.cluster import (
    FaultInjector,
    FaultPlan,
    FlakyLink,
    LinkDegradation,
    NodeCrash,
    NodeHang,
    NodeSlowdown,
    ProcessCrash,
    SimulatedCrash,
    table1_cluster,
)
from repro.estimation import (
    DESEngine,
    JournalError,
    MaintainerPolicy,
    ModelMaintainer,
    detect_model_drift,
)
from repro.models import ExtendedLMOModel
from repro.mpi import run_collective
from repro.mpi.collectives import ALGORITHMS, VARIABLE_BLOCK
from repro.obs import (
    chrome_trace,
    list_traces,
    render_report,
    snapshot_prometheus,
    stitch_chrome_trace,
    unwrap_snapshot,
    validate_snapshot,
)
from repro.obs import insight as _insight
from repro.obs import runtime as _obs
from repro.obs import trace as _tracectx
from repro.predict_service import PREDICTION_MENU, cache_info
from repro.simlib import Tracer

__all__ = ["main"]

KB = 1024


class UsageError(Exception):
    """Bad input to a subcommand; :func:`main` prints it verbatim, exit 2."""


def _emit(args, text: str, payload: dict) -> None:
    """Print ``text`` or, under ``--format json``, the payload."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


@contextlib.contextmanager
def _telemetry(args):
    """Record the block's telemetry when the command was given ``--metrics-out``.

    The snapshot document is written, and telemetry switched off, even
    when the block fails.
    """
    if args.metrics_out is None:
        yield
        return
    tel = _obs.enable(fresh=True)
    try:
        yield
    finally:
        try:
            with open(args.metrics_out, "w") as handle:
                json.dump(tel.to_dict(), handle, indent=2)
            if args.format == "text":
                print(f"telemetry snapshot written to {args.metrics_out}")
        finally:
            _obs.disable()


def _cluster(args, **kwargs):
    """The simulated cluster of the global ``--profile`` and ``--seed``."""
    return api.load_cluster(profile=args.profile, seed=args.seed, **kwargs)


def _check_collective(args, cluster) -> None:
    """Reject what ``measure``/``trace`` cannot run before anything runs.

    The variable-block collectives need per-rank counts, which no flag
    passes; a root outside the cluster would deadlock the simulation.
    """
    menu = sorted(f"{op}/{algo}" for op, algo in ALGORITHMS if op not in VARIABLE_BLOCK)
    if f"{args.operation}/{args.algorithm}" not in menu:
        raise UsageError(f"unsupported collective {args.operation}/{args.algorithm}; "
                         f"choose from {', '.join(menu)}")
    if not 0 <= args.root < cluster.n:
        raise UsageError(f"--root must be in [0, {cluster.n - 1}], got {args.root}")


def cmd_describe(args) -> int:
    cluster = _cluster(args)
    spec, gt, profile = cluster.spec, cluster.ground_truth, cluster.profile
    lines = [spec.describe(), "", f"derived parameters (seed {args.seed}):"]
    derived = []
    for rank, node in enumerate(spec.nodes):
        lines.append(f"  rank {rank:2d} {node.processor:<18} "
                     f"C={gt.C[rank] * 1e6:6.1f} us  t={gt.t[rank] * 1e9:5.2f} ns/B")
        derived.append({"rank": rank, "processor": node.processor,
                        "C": float(gt.C[rank]), "t": float(gt.t[rank])})
    lines.append(f"\nMPI profile {profile.name}: eager limit "
                 f"{profile.eager_threshold} B, M1(15 senders)="
                 f"{profile.m1(15) / KB:.1f} KB, M2={profile.m2 / KB:.1f} KB")
    _emit(args, "\n".join(lines), {
        "cluster": spec.to_dict(),
        "profile": {"name": profile.name,
                    "eager_threshold": profile.eager_threshold},
        "derived": derived,
    })
    return 0


def cmd_estimate(args) -> int:
    cluster = _cluster(args)
    outcome = api.estimate(cluster, model=args.model, reps=args.reps,
                           quick=args.quick, empirical=args.empirical)
    api.save_model(outcome.model, args.out)
    _emit(args,
          f"estimated {args.model} model on {cluster.n} nodes "
          f"({outcome.estimation_time:.2f} s of cluster time) -> {args.out}",
          {**outcome.to_dict(), "out": args.out})
    return 0


def cmd_predict(args) -> int:
    model = api.load_model(args.model_file)
    try:
        prediction = api.predict(model, args.operation, args.algorithm,
                                 args.nbytes, root=args.root)
    except api.ModelNotLoaded as exc:
        raise UsageError(
            f"no prediction formula for {args.operation}/{args.algorithm}"
        ) from exc
    lines = []
    if prediction.regime is not None:
        lines.append(f"regime: {prediction.regime}, escalation probability "
                     f"{prediction.escalation_probability:.2f}")
    lines.append(f"predicted {args.operation}/{args.algorithm} of "
                 f"{args.nbytes} B on {model.n} nodes: "
                 f"{prediction.seconds * 1e3:.3f} ms")
    _emit(args, "\n".join(lines),
          {**prediction.to_dict(), "cache": cache_info()})
    return 0


def cmd_measure(args) -> int:
    cluster = _cluster(args)
    _check_collective(args, cluster)
    measurement = api.measure(cluster, args.operation, args.algorithm,
                              args.nbytes, root=args.root,
                              max_reps=args.max_reps)
    _emit(args,
          f"measured {args.operation}/{args.algorithm} of {args.nbytes} B: "
          f"{measurement.mean * 1e3:.3f} ms +- "
          f"{measurement.ci_halfwidth * 1e3:.3f} ms "
          f"({measurement.reps} reps, CI {measurement.confidence:.0%})",
          measurement.to_dict())
    return 0


def cmd_trace(args) -> int:
    if args.action == "export" and not args.chrome:
        raise UsageError("trace export needs --chrome OUT.json")
    cluster = _cluster(args, noise=False)
    _check_collective(args, cluster)
    tracer = Tracer()
    cluster.attach_tracer(tracer)
    run_collective(cluster, args.operation, args.algorithm, args.nbytes, root=args.root)
    if args.action == "export":
        with open(args.chrome, "w") as handle:
            handle.write(chrome_trace(tracer=tracer))
        _emit(args,
              f"Chrome trace ({len(tracer.intervals)} intervals, "
              f"{len(tracer.lanes())} lanes) written to {args.chrome}",
              {"out": args.chrome, "intervals": len(tracer.intervals),
               "lanes": tracer.lanes()})
        return 0
    lanes = [f"cpu{args.root}"] + [
        lane for lane in tracer.lanes() if lane != f"cpu{args.root}"
    ]
    rendered = tracer.render(width=args.width, lanes=lanes[: args.max_lanes])
    utilization = tracer.utilization(f"cpu{args.root}")
    _emit(args,
          rendered + f"\n\nroot CPU utilization: {utilization:.0%} "
          "(s = send processing, r = receive processing, w = wire, R = TCP RTO)",
          {"lanes": lanes[: args.max_lanes], "utilization": float(utilization),
           "rendered": rendered})
    return 0


def cmd_suite(args) -> int:
    from repro.benchlib import BenchmarkSuite
    from repro.stats import MeasurementPolicy

    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise UsageError(
            f"bad --sizes {args.sizes!r}; use comma-separated byte counts"
        ) from None
    operations = args.operations.split(",") if args.operations else None
    with _telemetry(args):
        cluster = _cluster(args)
        suite = BenchmarkSuite(
            cluster,
            policy=MeasurementPolicy(min_reps=min(3, args.max_reps),
                                     max_reps=args.max_reps),
        )
        result = suite.run(operations=operations, sizes=sizes)
        cluster.reset()  # flush the final run's kernel counters
    _emit(args, result.render(), {
        "points": [
            {"operation": op, "algorithm": algo, "nbytes": m,
             "mean_seconds": point.mean}
            for (op, algo, m), point in sorted(result.points.items())
        ],
    })
    return 0


def cmd_partition(args) -> int:
    import numpy as np

    from repro.optimize import optimal_partition

    model = api.load_model(args.model_file)
    if not isinstance(model, ExtendedLMOModel):
        raise UsageError(
            f"partition needs an extended-LMO model, got {type(model).__name__}"
        )
    work = (
        [float(w) for w in args.work_rates.split(",")]
        if args.work_rates
        else [args.work_rate] * model.n
    )
    if len(work) != model.n:
        raise UsageError(f"need {model.n} work rates, got {len(work)}")
    part = optimal_partition(model, args.total, np.asarray(work), root=args.root)
    lines = [f"min-makespan distribution of {args.total} bytes "
             f"(predicted {part.predicted_makespan * 1e3:.2f} ms):"]
    for rank, count in enumerate(part.counts):
        lines.append(f"  rank {rank:2d}: {count}")
    _emit(args, "\n".join(lines), {
        "total": args.total,
        "predicted_makespan_seconds": float(part.predicted_makespan),
        "counts": [int(c) for c in part.counts],
    })
    return 0


def cmd_plan(args) -> int:
    from repro.optimize import CollectiveCall, plan_collectives

    model = api.load_model(args.model_file)
    calls = []
    for spec_str in args.calls:
        operation, *numbers = spec_str.split(":")
        try:
            values = [int(number) for number in numbers]
        except ValueError:
            values = []
        if len(values) not in (1, 2):
            raise UsageError(f"bad call spec {spec_str!r}; use op:nbytes[:count]")
        calls.append(CollectiveCall(operation, values[0],
                                    count=values[1] if len(values) == 2 else 1))
    plan = plan_collectives(model, calls)
    _emit(args, plan.render(), {
        "predicted_total_seconds": float(plan.predicted_total),
        "calls": [
            {"operation": planned.call.operation, "nbytes": planned.call.nbytes,
             "count": planned.call.count, "algorithm": planned.algorithm,
             "predicted_each_seconds": float(planned.predicted_each)}
            for planned in plan.calls
        ],
    })
    return 0


def cmd_drift(args) -> int:
    model = api.load_model(args.model_file)
    cluster = _cluster(args)
    if cluster.n != model.n:
        raise UsageError(f"model is for {model.n} nodes, cluster has {cluster.n}")
    lines = []
    if args.degrade_node is not None:
        cluster.degrade_node(args.degrade_node, args.degrade_factor)
        lines.append(f"(injected: node {args.degrade_node} slowed "
                     f"{args.degrade_factor}x)")
    report = detect_model_drift(
        model, DESEngine(cluster), probe_nbytes=args.nbytes,
        threshold=args.threshold, reps=args.reps,
    )
    drifted = sorted(
        (error, pair) for pair, error in report.errors.items()
        if error > report.threshold
    )
    lines.append(f"spot-checked {len(report.errors)} pairs at {args.nbytes} B "
                 f"(threshold {report.threshold:.0%})")
    for error, (i, j) in reversed(drifted):
        lines.append(f"  pair ({i:2d},{j:2d}): {error:7.2%} drift")
    lines.append(f"worst pair {report.worst_pair}: {report.worst_error:.2%}")
    implicated: list[int] = []
    if report.drifted:
        implicated = sorted(report.drifted_nodes())
        blame = ", ".join(map(str, implicated)) if implicated \
            else "no single node (link-local?)"
        lines.append(f"DRIFTED — implicated nodes: {blame}")
    else:
        lines.append("model is still accurate")
    _emit(args, "\n".join(lines), {
        "probed_pairs": len(report.errors),
        "threshold": float(report.threshold),
        "worst_pair": list(report.worst_pair),
        "worst_error": float(report.worst_error),
        "drifted": bool(report.drifted),
        "implicated_nodes": implicated,
    })
    return 1 if report.drifted else 0


def _split_spec(text: str, flag: str, parts: int) -> list[str]:
    fields = text.split(":")
    if len(fields) != parts:
        raise ValueError(
            f"{flag} expects {parts} colon-separated fields, got {text!r}"
        )
    return fields


def _parse_faults(args) -> FaultPlan:
    faults = []
    for text in args.slow_node or []:
        node, factor = _split_spec(text, "--slow-node NODE:FACTOR", 2)
        faults.append(NodeSlowdown(node=int(node), factor=float(factor)))
    for text in args.flaky_link or []:
        a, b, prob = _split_spec(text, "--flaky-link A:B:PROB", 3)
        faults.append(FlakyLink(a=int(a), b=int(b), loss_prob=float(prob)))
    for text in args.degrade_link or []:
        a, b, lat, rate = _split_spec(text, "--degrade-link A:B:LAT:RATE", 4)
        faults.append(LinkDegradation(a=int(a), b=int(b),
                                      latency_factor=float(lat),
                                      rate_factor=float(rate)))
    for text in args.hang_node or []:
        node, start, duration = _split_spec(text, "--hang-node NODE:START:DUR", 3)
        faults.append(NodeHang(node=int(node), start=float(start),
                               duration=float(duration)))
    for text in args.crash_node or []:
        fields = text.split(":")
        if len(fields) == 1:
            faults.append(NodeCrash(node=int(fields[0])))
        elif len(fields) == 2:
            faults.append(NodeCrash(node=int(fields[0]), start=float(fields[1])))
        else:
            raise ValueError(f"--crash-node expects NODE[:START], got {text!r}")
    if args.crash_after is not None:
        faults.append(ProcessCrash(after_experiments=args.crash_after))
    if not faults:
        # Default demo plan: one slow node plus one lossy link.
        faults = [
            NodeSlowdown(node=1, factor=4.0),
            FlakyLink(a=0, b=2, loss_prob=0.2),
        ]
    return FaultPlan(faults=tuple(faults), seed=args.fault_seed)


def cmd_chaos(args) -> int:
    full = table1_cluster().n
    if not 3 <= args.nodes <= full:
        raise UsageError(f"--nodes must be in [3, {full}]")
    cluster = _cluster(args, nodes=args.nodes)
    try:
        plan = _parse_faults(args)
        plan.validate(cluster.n)
    except ValueError as exc:
        raise UsageError(f"bad fault plan: {exc}") from exc
    lines = [f"cluster: {cluster.n} nodes ({cluster.spec.name}), "
             f"fault plan (seed {plan.seed}):", plan.describe()]

    with _telemetry(args):
        maintainer = ModelMaintainer(
            DESEngine(cluster), MaintainerPolicy(reps=args.reps),
        )
        maintainer.bootstrap()
        lines.append("\nbootstrap (fault-free):")
        lines.append("  " + maintainer.last_result.summary().replace("\n", "\n  "))

        cluster.attach_injector(FaultInjector(plan))
        for _ in range(args.cycles):
            maintainer.cycle()
        lines.append(f"\nhealth log after {args.cycles} chaos cycles:")
        lines.append(maintainer.render_log())
        report = maintainer.spot_check()
        healed = not report.drifted
        # Printed after the final spot-check so the counts cover every
        # simulated transfer of the run (and match the telemetry snapshot).
        lines.append(f"\ninjector: {cluster.injector.stats.summary()}")
        lines.append(f"final spot-check: worst drift {report.worst_error:.2%}")
        lines.append("verdict: model healed" if healed else
                     "verdict: drift persists (more cycles needed)")
        payload = {
            "nodes": cluster.n,
            "cycles": args.cycles,
            "fault_plan": plan.describe(),
            "worst_drift": float(report.worst_error),
            "healed": healed,
        }

        # Crash faults only bite the durable campaign path, so demo it when
        # the plan carries one (or the user asked for a journal explicitly).
        has_crash = any(isinstance(f, (NodeCrash, ProcessCrash)) for f in plan.faults)
        if has_crash or args.journal is not None:
            campaign_lines, campaign_payload = _chaos_campaign(args, cluster, plan)
            lines.extend(campaign_lines)
            payload["campaign"] = campaign_payload
        cluster.reset()  # flush the final run's kernel counters

    _emit(args, "\n".join(lines), payload)
    return 0


def _chaos_campaign(args, cluster, plan: FaultPlan):
    """The chaos demo's durable-campaign stage: run under the fault plan,
    survive a simulated process crash by resuming, report breaker states."""
    import tempfile

    journal = args.journal
    if journal is None:
        # A fresh campaign refuses an existing path, so hand it a fresh
        # name inside a fresh directory rather than a pre-created file.
        journal = os.path.join(
            tempfile.mkdtemp(prefix="repro-chaos-"), "campaign.jsonl"
        )
    config = api.CampaignConfig(seed=args.seed, timeout=args.campaign_timeout)
    lines = [f"\ndurable campaign under faults (journal {journal}):"]
    crashed = False
    try:
        result = api.run_campaign(cluster, journal, config)
    except SimulatedCrash as exc:
        crashed = True
        lines.append(f"  process crash injected: {exc}")
        lines.append("  resuming from the journal (crash faults persist, "
                     "the process death does not)")
        survivors = tuple(f for f in plan.faults if not isinstance(f, ProcessCrash))
        cluster.attach_injector(
            FaultInjector(FaultPlan(faults=survivors, seed=plan.seed))
        )
        result = api.resume_campaign(cluster, journal)
    lines.append("  " + result.summary().replace("\n", "\n  "))
    breakers = result.breakers
    for node_state in breakers["nodes"]:
        if node_state["state"] != "closed" or node_state["total_failures"]:
            lines.append(
                f"  breaker node {node_state['node']}: {node_state['state']} "
                f"({node_state['total_failures']} failures, "
                f"{node_state['trips']} trips)"
            )
    payload = {
        "journal": journal,
        "crashed_and_resumed": crashed,
        **result.to_dict(),
    }
    return lines, payload


def _campaign_status(journal: str):
    try:
        return api.campaign_status(journal)
    except JournalError as exc:
        raise UsageError(f"cannot read journal: {exc}") from exc


def cmd_campaign_status(args) -> int:
    status = _campaign_status(args.journal)
    _emit(args, status.summary(), status.to_dict())
    return 0


def cmd_campaign_run(args) -> int:
    cluster = _cluster(args, nodes=args.nodes)

    def start():
        config = api.CampaignConfig(
            seed=args.seed,
            reps=args.reps,
            timeout=args.timeout,
            coverage_floor=args.coverage_floor,
            max_wall_seconds=args.max_wall_seconds,
            max_sim_seconds=args.max_sim_seconds,
            max_repetitions=args.max_repetitions,
        )
        return api.run_campaign(cluster, args.journal, config, workers=args.workers)

    return _run_campaign(args, cluster, start)


def cmd_campaign_resume(args) -> int:
    nodes = args.nodes
    if nodes is None:
        # The journal knows the cluster size; don't make the user repeat it.
        nodes = _campaign_status(args.journal).n
        if nodes >= table1_cluster().n:
            nodes = None
    cluster = _cluster(args, nodes=nodes)
    return _run_campaign(args, cluster, lambda: api.resume_campaign(
        cluster,
        args.journal,
        max_wall_seconds=args.max_wall_seconds,
        max_sim_seconds=args.max_sim_seconds,
        max_repetitions=args.max_repetitions,
        workers=args.workers,
    ))


def _run_campaign(args, cluster, run) -> int:
    """``repro campaign run|resume`` — the durable estimation sweep.

    Exit codes: 0 full-coverage model, 1 degraded (model produced but
    coverage or quarantine report says so) or budget-stopped (resumable),
    2 usage / journal errors.
    """
    with _telemetry(args):
        try:
            result = run()
        except (JournalError, ValueError) as exc:
            raise UsageError(f"campaign failed: {exc}") from exc
        cluster.reset()  # flush the final run's kernel counters
    if result.model is not None and args.out:
        api.save_model(result.model, args.out)
    text = result.summary()
    if result.model is not None and args.out:
        text += f"\nmodel written to {args.out}"
    _emit(args, text, result.to_dict())
    if result.stopped != "complete" or result.model is None or result.degraded:
        return 1
    return 0


def _load_bench_files(paths) -> tuple:
    """``(bench, warnings)`` for the dashboard's bench-trajectory section.

    ``bench`` is ``(name, parsed)`` pairs; every missing, truncated or
    non-object ``BENCH_*.json`` becomes a warning string instead of a
    traceback, so one corrupt artifact never takes the dashboard down.
    """
    import glob as _glob

    chosen = list(paths) if paths else sorted(_glob.glob("BENCH_*.json"))
    bench, warnings = [], []
    for path in chosen:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            warnings.append(f"bench file {path} skipped: {exc}")
            continue
        if isinstance(data, dict):
            bench.append((os.path.basename(path), data))
        else:
            warnings.append(
                f"bench file {path} skipped: expected a JSON object, "
                f"got {type(data).__name__}"
            )
    return bench, warnings


def cmd_serve(args) -> int:
    """``repro serve`` — the always-on prediction daemon (docs/service.md).

    Prints one ``listening on <endpoint>`` line once the socket is bound
    (with ``--port 0`` this is where the ephemeral port appears), then
    blocks until drained (SIGTERM, the ``drain`` verb, or Ctrl-C).

    With ``--supervised`` the daemon instead runs as a watched child
    process: health-probed, restarted with backoff after crashes, and
    abandoned with exit code 86 on a crash loop (``--restart-limit``
    crashes within ``--restart-window`` seconds).  ``--snapshot`` makes
    the dynamic model registry durable across those restarts.
    """
    import asyncio

    from repro.serve import PredictionServer, ServeConfig

    models = {}
    for spec_str in args.model or []:
        name, sep, path = spec_str.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"bad --model spec {spec_str!r}; use NAME=PATH")
        models[name] = path

    if args.supervised:
        return _serve_supervised(args)

    config = ServeConfig(
        host=args.host, port=args.port, unix_path=args.unix, models=models,
        batch_window=args.batch_window, queue_limit=args.queue_limit,
        telemetry=not args.no_telemetry,
        snapshot_path=args.snapshot,
    )

    async def _run() -> None:
        server = PredictionServer(config)
        await server.start()
        _emit(args, f"listening on {server.endpoint}",
              {"listening": server.endpoint, "models": server.registry.names()})
        sys.stdout.flush()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            await server.drain()
            raise

    try:
        asyncio.run(_run())
    except (ValueError, OSError) as exc:
        raise UsageError(f"cannot serve: {exc}") from exc
    except KeyboardInterrupt:
        pass
    return 0


def _serve_supervised(args) -> int:
    """Run the daemon as a supervised child (``repro serve --supervised``)."""
    from repro.serve.supervisor import Supervisor, SupervisorConfig, resolve_port

    port = args.port
    if args.unix is None and port == 0:
        # Every restarted child must bind the *same* endpoint.
        port = resolve_port(args.host)
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--host", args.host, "--port", str(port),
               "--batch-window", str(args.batch_window),
               "--queue-limit", str(args.queue_limit)]
    if args.unix is not None:
        command += ["--unix", args.unix]
    for spec_str in args.model or []:
        command += ["--model", spec_str]
    if args.no_telemetry:
        command += ["--no-telemetry"]
    if args.snapshot is not None:
        command += ["--snapshot", args.snapshot]
    endpoint = args.unix if args.unix is not None else f"{args.host}:{port}"
    supervisor = Supervisor(SupervisorConfig(
        command=command, host=args.host, port=port, unix_path=args.unix,
        restart_limit=args.restart_limit, restart_window=args.restart_window,
    ))
    _emit(args, f"supervising on {endpoint}",
          {"supervising": endpoint, "command": command})
    sys.stdout.flush()
    code = supervisor.run_under_signals()
    if supervisor.gave_up:
        print(
            f"giving up: {args.restart_limit} crashes within "
            f"{args.restart_window:g}s (crash loop)", file=sys.stderr,
        )
    return code


def cmd_client(args) -> int:
    """``repro client VERB`` — one request to a running daemon.

    Request parameters come from ``--params`` (a JSON object matching
    the verb's schema-v3 params document); the reply's ``result`` is
    printed as JSON.  Error replies land on stderr as ``code: message``
    with exit code 1 (3 for ``overloaded`` — retryable) — the same
    stable codes :mod:`repro.api` raises in-process.

    ``--retries N`` switches to the resilient client: transient failures
    (overload, resets, timeouts, corrupted replies) are retried with
    seeded exponential backoff, and exhausting every attempt exits with
    the distinct code 4 so scripts can tell "the service kept failing
    under retry" from a first-try error.  ``--deadline-ms`` bounds the
    whole call (propagated to the server, which sheds expired requests).
    """
    from repro.serve import ServiceClient
    from repro.serve.client import ResilientClient, RetryExhausted, RetryPolicy

    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as exc:
        raise UsageError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    ctx = None
    if args.traceparent == "new":
        ctx = _tracectx.new_context()
        print(f"trace_id: {ctx.trace_id}", file=sys.stderr)
    elif args.traceparent is not None:
        ctx = _tracectx.parse_traceparent(args.traceparent)
        if ctx is None:
            raise UsageError(f"malformed --traceparent {args.traceparent!r}; "
                             "expected 00-<32 hex>-<16 hex>-01")
    trace_token = _tracectx.activate(ctx) if ctx is not None else None
    endpoint = {"host": args.host, "port": args.port, "unix_path": args.unix,
                "timeout": args.timeout}
    try:
        if args.retries > 0 or args.deadline_ms is not None:
            client = ResilientClient(**endpoint, deadline_ms=args.deadline_ms,
                                     retry=RetryPolicy(max_retries=args.retries, seed=0))
        else:
            client = ServiceClient(**endpoint)  # connects here
        with client:
            result = client.call(args.verb, params)
    except RetryExhausted as exc:
        print(f"retries exhausted: {exc}", file=sys.stderr)
        return 4
    except api.ApiError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 3 if isinstance(exc, api.Overloaded) else 1
    except OSError as exc:
        raise UsageError(f"cannot reach the daemon: {exc}") from exc
    finally:
        if trace_token is not None:
            _tracectx.restore(trace_token)
    _emit(args, json.dumps(result, indent=2), result)
    return 0


def _write_or_print(rendered: str, out: Optional[str], what: str) -> None:
    """Write ``rendered`` to ``out`` (announcing it as ``what``), else print it."""
    if out:
        with open(out, "w") as handle:
            handle.write(rendered)
        print(f"{what} written to {out}")
    else:
        print(rendered)


def _parse_named_inputs(pairs) -> list:
    """``--in NAME=PATH`` pairs -> [(name, loaded_doc), ...]."""
    named = []
    for pair in pairs or []:
        name, sep, path = pair.partition("=")
        if not sep:
            # Bare PATH: label the lane with the file's stem.
            name, path = os.path.splitext(os.path.basename(pair))[0], pair
        with open(path) as handle:
            named.append((name, json.load(handle)))
    return named


def cmd_obs_stitch(args) -> int:
    """``repro obs trace stitch`` — merge per-process snapshots into one
    clock-aligned Chrome trace for a single distributed trace id."""
    try:
        named = [(name, unwrap_snapshot(doc))
                 for name, doc in _parse_named_inputs(args.inputs)]
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read telemetry snapshot: {exc}") from exc
    if not named:
        raise UsageError("nothing to stitch: pass at least one --in NAME=PATH")
    if args.list:
        traces = list_traces(named)
        if not traces:
            print("no trace-stamped spans in these snapshots")
            return 0
        for trace_id in sorted(traces):
            info = traces[trace_id]
            print(f"{trace_id}  {info['spans']} span(s) across "
                  f"{','.join(info['processes'])}: {','.join(info['names'])}")
        return 0
    try:
        rendered = stitch_chrome_trace(named, trace_id=args.trace_id)
    except ValueError as exc:
        raise UsageError(f"stitch failed: {exc}") from exc
    _write_or_print(rendered, args.out, "stitched chrome trace")
    return 0


def _read_snapshot(path: str) -> dict:
    """The validated telemetry snapshot document at ``path``."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
        validate_snapshot(doc)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read telemetry snapshot: {exc}") from exc
    return doc


def cmd_obs_report(args) -> int:
    doc = _read_snapshot(args.metrics)
    _emit(args, render_report(doc), doc)
    return 0


def cmd_obs_export(args) -> int:
    doc = _read_snapshot(args.metrics)
    if args.format == "prom":
        rendered = snapshot_prometheus(doc)
    elif args.format == "json":
        rendered = json.dumps(doc, indent=2)
    else:  # chrome
        rendered = chrome_trace(doc.get("spans", []))
    _write_or_print(rendered, args.out, f"{args.format} export")
    return 0


def cmd_obs_dashboard(args) -> int:
    doc = _read_snapshot(args.metrics)
    bench, warnings = _load_bench_files(args.bench)
    data = _insight.build_dashboard(doc, bench=bench, warnings=warnings)
    with open(args.out, "w") as handle:
        handle.write(_insight.render_html(data))
    text = _insight.render_terminal(data)
    text += f"\n\ndashboard written to {args.out}"
    _emit(args, text, data)
    return 0


def cmd_obs_watch(args) -> int:
    formatter = None
    if args.format == "json":
        formatter = lambda data: json.dumps(data, indent=2)  # noqa: E731
    try:
        _insight.watch(
            args.metrics, interval=args.interval, count=args.count,
            formatter=formatter,
        )
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read telemetry snapshot: {exc}") from exc
    except KeyboardInterrupt:
        pass
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.id not in ALL_EXPERIMENTS:
        raise UsageError(f"unknown experiment {args.id!r}; "
                         f"available: {sorted(ALL_EXPERIMENTS)}")
    result = ALL_EXPERIMENTS[args.id](quick=args.quick, seed=args.seed)
    _emit(args, result.render(), {
        "id": args.id,
        "title": result.title,
        "checks": {name: bool(ok) for name, ok in result.checks.items()},
        "passed": bool(result.all_checks_pass),
        "text": result.text,
    })
    if args.csv:
        csv = result.to_csv()
        if not csv:
            print(f"(no numeric series in {args.id}; nothing written)",
                  file=sys.stderr)
        else:
            with open(args.csv, "w") as handle:
                handle.write(csv)
            if args.format == "text":
                print(f"series written to {args.csv}")
    return 0 if result.all_checks_pass else 1


def cmd_report(args) -> int:
    from repro.experiments.report import main as report_main

    argv = []
    if args.quick:
        argv.append("--quick")
    if args.out:
        argv.extend(["--out", args.out])
    argv.extend(["--seed", str(args.seed)])
    code = report_main(argv)
    if args.format == "json":
        print(json.dumps({"out": args.out, "passed": code == 0}, indent=2))
    return code


def _command(subparsers, name: str, run, **kwargs) -> argparse.ArgumentParser:
    """Add subcommand ``name`` whose parsed arguments are handled by ``run``."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LMO communication performance model reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", choices=sorted(api.PROFILES), default="lam")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (JSON to stdout, errors to stderr)")
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="enable telemetry and write the snapshot "
                              "(metrics, spans, events) to this JSON file")
    model_file = argparse.ArgumentParser(add_help=False)
    model_file.add_argument("--model-file", required=True)
    snapshot = argparse.ArgumentParser(add_help=False)
    snapshot.add_argument("--metrics", required=True,
                          help="snapshot JSON written by --metrics-out")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "describe", cmd_describe, help="print the Table I cluster",
             parents=[common])

    p_est = _command(sub, "estimate", cmd_estimate, help="estimate model parameters",
                     parents=[common])
    p_est.add_argument("--model", choices=["lmo", "hockney", "loggp", "plogp"],
                       default="lmo")
    p_est.add_argument("--out", required=True, help="output JSON path")
    p_est.add_argument("--reps", type=int, default=3)
    p_est.add_argument("--quick", action="store_true",
                       help="reduced (star) triplet design for LMO")
    p_est.add_argument("--empirical", action="store_true",
                       help="also detect gather M1/M2 (LMO only)")

    p_pred = _command(sub, "predict", cmd_predict,
                      help="predict a collective from a model file",
                      parents=[common, model_file])
    p_pred.add_argument("--operation", default="scatter",
                        choices=list(dict.fromkeys(op for op, _ in PREDICTION_MENU)))
    p_pred.add_argument("--algorithm", default="linear",
                        choices=list(dict.fromkeys(algo for _, algo in PREDICTION_MENU)))
    p_pred.add_argument("--nbytes", type=int, required=True)
    p_pred.add_argument("--root", type=int, default=0)

    p_meas = _command(sub, "measure", cmd_measure,
                      help="benchmark a collective on the simulator", parents=[common])
    p_meas.add_argument("--operation", default="scatter")
    p_meas.add_argument("--algorithm", default="linear")
    p_meas.add_argument("--nbytes", type=int, required=True)
    p_meas.add_argument("--root", type=int, default=0)
    p_meas.add_argument("--max-reps", type=int, default=25)

    p_trace = _command(sub, "trace", cmd_trace,
                       help="print a collective's activity timeline", parents=[common])
    p_trace.add_argument("action", nargs="?", default="show",
                         choices=["show", "export"],
                         help="show the ASCII timeline (default) or export "
                              "the simulated-time trace as Chrome trace JSON")
    p_trace.add_argument("--chrome", default=None, metavar="OUT.json",
                         help="output path for `trace export` "
                              "(open in chrome://tracing or Perfetto)")
    p_trace.add_argument("--operation", default="scatter")
    p_trace.add_argument("--algorithm", default="linear")
    p_trace.add_argument("--nbytes", type=int, default=32 * KB)
    p_trace.add_argument("--root", type=int, default=0)
    p_trace.add_argument("--width", type=int, default=72)
    p_trace.add_argument("--max-lanes", type=int, default=12)

    p_suite = _command(sub, "suite", cmd_suite, help="benchmark the whole algorithm menu",
                       parents=[common, metrics])
    p_suite.add_argument("--operations", default=None,
                         help="comma-separated (default: all)")
    p_suite.add_argument("--sizes", default=f"{KB},{16 * KB},{128 * KB}",
                         help="comma-separated byte counts")
    p_suite.add_argument("--max-reps", type=int, default=8)

    p_part = _command(sub, "partition", cmd_partition,
                      help="min-makespan data distribution from a model file",
                      parents=[common, model_file])
    p_part.add_argument("--total", type=int, required=True)
    p_part.add_argument("--work-rate", type=float, default=100e-9,
                        help="uniform compute cost, s/B")
    p_part.add_argument("--work-rates", default=None,
                        help="comma-separated per-rank costs (overrides --work-rate)")
    p_part.add_argument("--root", type=int, default=0)

    p_plan = _command(sub, "plan", cmd_plan,
                      help="choose algorithms for an application's collectives",
                      parents=[common, model_file])
    p_plan.add_argument("calls", nargs="+",
                        help="call specs op:nbytes[:count], e.g. bcast:65536:10")

    p_drift = _command(sub, "drift", cmd_drift,
                       help="spot-check a saved model for drift (exit 1 if drifted)",
                       parents=[common, model_file])
    p_drift.add_argument("--nbytes", type=int, default=32 * KB)
    p_drift.add_argument("--threshold", type=float, default=0.15)
    p_drift.add_argument("--reps", type=int, default=3)
    p_drift.add_argument("--degrade-node", type=int, default=None,
                         help="slow this node before checking (fault demo)")
    p_drift.add_argument("--degrade-factor", type=float, default=4.0)

    p_chaos = _command(sub, "chaos", cmd_chaos,
                       help="fault-injection demo: estimate, inject, self-heal",
                       parents=[common, metrics])
    p_chaos.add_argument("--nodes", type=int, default=8,
                         help="cluster size (prefix of Table I)")
    p_chaos.add_argument("--cycles", type=int, default=3,
                         help="maintenance cycles to run under faults")
    p_chaos.add_argument("--reps", type=int, default=3)
    p_chaos.add_argument("--fault-seed", type=int, default=0)
    p_chaos.add_argument("--slow-node", action="append", metavar="NODE:FACTOR",
                         help="persistent CPU slowdown (repeatable)")
    p_chaos.add_argument("--flaky-link", action="append", metavar="A:B:PROB",
                         help="packet loss on a link, RTO per loss (repeatable)")
    p_chaos.add_argument("--degrade-link", action="append", metavar="A:B:LAT:RATE",
                         help="latency x LAT, bandwidth x RATE (repeatable)")
    p_chaos.add_argument("--hang-node", action="append", metavar="NODE:START:DUR",
                         help="stall a node's transfers for DUR seconds (repeatable)")
    p_chaos.add_argument("--crash-node", action="append", metavar="NODE[:START]",
                         help="kill a node permanently at START (repeatable)")
    p_chaos.add_argument("--crash-after", type=int, default=None, metavar="K",
                         help="kill the campaign process after K experiments "
                              "(demos journal resume)")
    p_chaos.add_argument("--journal", default=None,
                         help="campaign journal path (default: temp file; the "
                              "campaign stage runs when a crash fault or this "
                              "flag is present)")
    p_chaos.add_argument("--campaign-timeout", type=float, default=1.0,
                         help="per-experiment timeout in the campaign stage")

    p_camp = sub.add_parser(
        "campaign",
        help="durable estimation sweep: run / resume / status on a journal",
    )
    camp_sub = p_camp.add_subparsers(dest="action", required=True)
    camp_budgets = argparse.ArgumentParser(add_help=False)
    camp_budgets.add_argument("--max-wall-seconds", type=float, default=None,
                              help="hard wall-clock cap; stops at a checkpoint")
    camp_budgets.add_argument("--max-sim-seconds", type=float, default=None,
                              help="hard simulated-cluster-time cap")
    camp_budgets.add_argument("--max-repetitions", type=int, default=None,
                              help="hard cap on total experiment repetitions")
    camp_io = argparse.ArgumentParser(add_help=False)
    camp_io.add_argument("--journal", required=True,
                         help="JSONL write-ahead journal path")
    camp_io.add_argument("--out", default=None,
                         help="write the assembled model JSON here")
    camp_io.add_argument("--nodes", type=int, default=None,
                         help="cluster size (prefix of Table I; default all)")
    camp_workers = argparse.ArgumentParser(add_help=False)
    camp_workers.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep (default 1 = serial in-process; "
             "N > 1 runs node-triplet unit groups on a pool of N worker "
             "processes — same model bit-for-bit)")
    p_camp_run = _command(
        camp_sub, "run", cmd_campaign_run,
        help="start a fresh campaign (journal must not exist)",
        parents=[common, camp_budgets, camp_io, camp_workers, metrics])
    p_camp_run.add_argument("--reps", type=int, default=3)
    p_camp_run.add_argument("--timeout", type=float, default=1.0,
                            help="per-experiment timeout (seconds)")
    p_camp_run.add_argument("--coverage-floor", type=float, default=0.5,
                            help="coverage fraction below which the result "
                                 "is flagged (still produced)")
    _command(camp_sub, "resume", cmd_campaign_resume,
             help="continue an interrupted campaign from its journal",
             parents=[common, camp_budgets, camp_io, camp_workers, metrics])
    _command(camp_sub, "status", cmd_campaign_status,
             help="inspect a journal without attaching a cluster",
             parents=[common, camp_io])

    p_serve = _command(sub, "serve", cmd_serve,
                       help="run the always-on prediction daemon", parents=[common])
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7725,
                         help="TCP port (0 = ephemeral; the bound endpoint "
                              "is printed at startup)")
    p_serve.add_argument("--unix", default=None, metavar="PATH",
                         help="serve on a Unix socket instead of TCP")
    p_serve.add_argument("--model", action="append", metavar="NAME=PATH",
                         help="preload a model JSON under NAME (repeatable; "
                              "SIGHUP re-reads every file)")
    p_serve.add_argument("--batch-window", type=float, default=0.002,
                         help="seconds concurrent predicts coalesce over "
                              "(0 = no batching)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="predict queue bound; beyond it requests "
                              "are rejected as `overloaded`")
    p_serve.add_argument("--no-telemetry", action="store_true",
                         help="start without process telemetry (obs verb "
                              "reports enabled: false)")
    p_serve.add_argument("--snapshot", default=None, metavar="PATH",
                         help="durable registry snapshot: models registered "
                              "at runtime (estimate --register_as) survive "
                              "a crash/restart")
    p_serve.add_argument("--supervised", action="store_true",
                         help="run the daemon as a watched child: health-"
                              "probed, restarted with backoff after crashes, "
                              "abandoned with exit code 86 on a crash loop")
    p_serve.add_argument("--restart-limit", type=int, default=5,
                         help="crashes within --restart-window that make "
                              "--supervised give up (default 5)")
    p_serve.add_argument("--restart-window", type=float, default=60.0,
                         help="sliding crash-loop window in seconds "
                              "(default 60)")

    p_client = _command(sub, "client", cmd_client,
                        help="send one request to a running repro serve daemon",
                        parents=[common])
    p_client.add_argument("verb",
                          choices=["drain", "estimate", "health", "obs",
                                   "optimize", "predict", "predict_many"])
    p_client.add_argument("--params", default=None,
                          help="request params as a JSON object, e.g. "
                               "'{\"model\": \"lmo\", \"operation\": "
                               "\"scatter\", \"algorithm\": \"linear\", "
                               "\"nbytes\": 65536}'")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7725)
    p_client.add_argument("--unix", default=None, metavar="PATH")
    p_client.add_argument("--timeout", type=float, default=60.0)
    p_client.add_argument("--retries", type=int, default=0,
                          help="retry transient failures (overload, resets, "
                               "timeouts, corrupted replies) up to N times "
                               "with seeded exponential backoff; exhausting "
                               "them exits 4")
    p_client.add_argument("--deadline-ms", type=float, default=None,
                          help="total time budget for the call in ms, "
                               "propagated to the server (expired queued "
                               "requests are shed as deadline_exceeded)")
    p_client.add_argument("--traceparent", default=None,
                          help="W3C-style traceparent header "
                               "(00-<32 hex>-<16 hex>-01) to join an "
                               "existing distributed trace; 'new' mints a "
                               "fresh one and prints its id")

    p_obs = sub.add_parser(
        "obs",
        help="inspect/convert telemetry snapshots from --metrics-out "
             "and cross-process traces",
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)
    _command(obs_sub, "report", cmd_obs_report,
             help="one-screen summary of a telemetry snapshot",
             parents=[common, snapshot])
    p_obs_export = _command(
        obs_sub, "export", cmd_obs_export,
        help="re-render a snapshot as prom / json / chrome trace", parents=[snapshot])
    p_obs_export.add_argument("--format", choices=["prom", "json", "chrome"],
                              default="prom",
                              help="Prometheus text, pretty JSON, or Chrome "
                                   "trace JSON of the recorded spans")
    p_obs_export.add_argument("--out", default=None,
                              help="write here instead of stdout")
    p_obs_dash = _command(
        obs_sub, "dashboard", cmd_obs_dashboard,
        help="self-contained HTML observatory + terminal summary",
        parents=[common, snapshot])
    p_obs_dash.add_argument("--out", default="dash.html",
                            help="HTML output path (default dash.html)")
    p_obs_dash.add_argument("--bench", action="append", default=None,
                            help="BENCH_*.json file to include in the "
                                 "trajectory section (repeatable; default: "
                                 "every BENCH_*.json in the cwd)")
    p_obs_watch = _command(
        obs_sub, "watch", cmd_obs_watch,
        help="periodic terminal re-render of a snapshot file",
        parents=[common, snapshot])
    p_obs_watch.add_argument("--interval", type=float, default=2.0,
                             help="seconds between refreshes")
    p_obs_watch.add_argument("--count", type=int, default=None,
                             help="stop after N refreshes (default: forever)")
    p_obs_trace = obs_sub.add_parser(
        "trace",
        help="merge per-process snapshots into one distributed timeline")
    trace_sub = p_obs_trace.add_subparsers(dest="trace_action", required=True)
    p_obs_stitch = _command(
        trace_sub, "stitch", cmd_obs_stitch,
        help="clock-aligned Chrome trace across processes for one trace id")
    p_obs_stitch.add_argument("--in", dest="inputs", action="append",
                              metavar="NAME=PATH", default=None,
                              help="a telemetry snapshot (or obs-verb reply) "
                                   "labelled with its process name; "
                                   "repeatable")
    p_obs_stitch.add_argument("--trace-id", default=None,
                              help="keep only spans/events of this trace "
                                   "(default: everything)")
    p_obs_stitch.add_argument("--list", action="store_true",
                              help="list trace ids present instead of "
                                   "stitching")
    p_obs_stitch.add_argument("--out", default=None,
                              help="write the Chrome trace here instead of "
                                   "stdout")

    p_exp = _command(sub, "experiment", cmd_experiment,
                     help="regenerate one paper table/figure", parents=[common])
    p_exp.add_argument("id", help="experiment id, e.g. fig1 or table2 (an "
                                  "unknown id lists them all)")
    p_exp.add_argument("--quick", action="store_true")
    p_exp.add_argument("--csv", default=None, help="also dump the series as CSV")

    p_rep = _command(sub, "report", cmd_report,
                     help="regenerate every experiment (markdown)", parents=[common])
    p_rep.add_argument("--quick", action="store_true")
    p_rep.add_argument("--out", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        message = str(exc)
    except OSError as exc:
        message = str(exc)
    except (api.ApiError, ValueError, LookupError) as exc:
        payload = error_payload(exc)
        message = f"{payload['code']}: {payload['message']}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
