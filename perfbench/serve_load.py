"""The ``serve_mixed`` workload: server lifecycle and load.

The server is ``python -m repro.cli serve`` with default flags in its own
process (or, for the traced half of a traced run, the same command under
``serve_launcher.py``).  Load comes from this process: the main thread and
one helper thread, one ``ServiceClient`` connection each.  Every expected
reply is computed in-process from the seeded schedule before the server
starts, so checking a reply inside the timed loop is one dict comparison.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import layers
import meta
import procs
from summary import latency_summary, percentile

KB = 1024
#: The paper's 16 message sizes (1 KB .. 200 KB).
PAPER_SIZES = tuple(
    m * KB for m in (1, 2, 4, 8, 16, 24, 32, 48, 56, 64, 72, 80, 96, 128, 160, 200)
)
#: 2 operations x 2 algorithms x 16 roots x 16 sizes = 1,024 request kinds,
#: four times the server's 256-entry sweep cache.
KINDS = tuple(
    (operation, algorithm, root, nbytes)
    for operation in ("scatter", "gather")
    for algorithm in ("linear", "binomial")
    for root in range(16)
    for nbytes in PAPER_SIZES
)
MIXED_RATE = 20.0       # paced predicts beside the estimates, per second
ESTIMATES_PER_SECOND = 1.5  # estimates per run of ``serve_mixed``, per --seconds
WARMUP_PER_CONNECTION = 100
SETUP_SAMPLES = 3       # server spawns per run; setup_s is their median
ESTIMATE_NODES = 8
ESTIMATE_REPS = 3


def predict_params(kind: tuple) -> dict[str, Any]:
    operation, algorithm, root, nbytes = kind
    return {"model": "lmo", "operation": operation, "algorithm": algorithm,
            "nbytes": float(nbytes), "root": root}


def estimate_params(seed: int, index: int) -> dict[str, Any]:
    return {"model": "lmo", "nodes": ESTIMATE_NODES, "reps": ESTIMATE_REPS,
            "seed": seed, "register_as": f"bench-{index}"}


def build_inputs(seed: int, workdir: str) -> tuple[str, list[dict]]:
    """Save the served model and compute every expected predict reply.

    The model is the oracle extended-LMO model of the seeded Table I
    cluster with the paper's LAM thresholds M1 = 4 KB and M2 = 65 KB.
    """
    from repro import api
    from repro.models import ExtendedLMOModel, GatherIrregularity

    cluster = api.load_cluster(seed=seed)
    model = ExtendedLMOModel.from_ground_truth(
        cluster.ground_truth, GatherIrregularity(m1=4 * KB, m2=65 * KB)
    )
    path = os.path.join(workdir, "lmo.json")
    api.save_model(model, path)
    expected = [
        api.predict(model, op, alg, float(nbytes), root=root).to_dict()
        for op, alg, root, nbytes in KINDS
    ]
    return path, expected


class Server:
    """One server process, from spawn to drained exit."""

    def __init__(self, model_path: str, launcher_out: Optional[str] = None) -> None:
        args = ["-m", "repro.cli"] if launcher_out is None else [
            os.path.join(procs.HERE, "serve_launcher.py"), "--out", launcher_out, "--"]
        self.child = procs.Child(args + ["serve", "--port", "0", "--model", f"lmo={model_path}"])
        try:
            rest, _ = self.child.expect("listening", timeout=120)
            self.host, port = rest.split()[-1].rsplit(":", 1)
            self.port = int(port)
            self.control = self.connect()
            self.control.health()
            self.setup_s = time.perf_counter() - self.child.started
        except BaseException:
            self.child.close()
            raise

    def connect(self):
        from repro.serve.client import ServiceClient

        return ServiceClient(host=self.host, port=self.port, timeout=60.0)

    def send_signal(self, signum: int) -> None:
        """Send a signal and wait until the event loop has run again."""
        os.kill(self.child.pid, signum)
        self.control.health()

    def drain(self) -> None:
        try:
            self.control.drain()
            self.child.wait(timeout=60)
        finally:
            self.control.close()
            self.child.close()


def setup_samples(spans: meta.SpanLog, model_path: str, count: int) -> list[float]:
    """Spawn-to-first-health times of ``count`` throwaway servers."""
    samples = []
    for _ in range(count):
        with spans.span("setup"):
            server = Server(model_path)
            samples.append(server.setup_s)
            server.drain()
    return samples


@dataclass
class Tally:
    """What one connection saw in one phase."""

    latency: list[float] = field(default_factory=list)   # open loop: due to reply
    rtt: list[float] = field(default_factory=list)       # send to reply
    late: list[float] = field(default_factory=list)      # open loop: send minus due
    attempted: int = 0
    failed: int = 0
    replies: list[Any] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    wall: float = 0.0   # estimate loop: first send to last reply

    def merge(self, other: "Tally") -> "Tally":
        return Tally(self.latency + other.latency, self.rtt + other.rtt,
                     self.late + other.late, self.attempted + other.attempted,
                     self.failed + other.failed, self.replies + other.replies,
                     self.errors + other.errors)


def _call(client, tally: Tally, verb: str, params: dict,
          check: Callable[[dict], bool]) -> Optional[dict]:
    tally.attempted += 1
    try:
        result = client.call(verb, params)
    except Exception as exc:  # noqa: BLE001 - an error reply or a dead connection
        tally.failed += 1
        tally.errors.append(f"{verb}: {type(exc).__name__}: {exc}")
        return None
    if not check(result):
        tally.failed += 1
        tally.errors.append(f"{verb}: reply differs from the in-process answer")
        return None
    return result


def paced(client, schedule: list[tuple[float, int]], t0: float, expected: list[dict],
          stop: Optional[Callable[[int], bool]] = None) -> Tally:
    """Open loop: send each (offset, kind) at ``t0 + offset``; time from then.

    ``stop(sent)``, when given, ends the schedule early.
    """
    tally = Tally()
    for offset, k in schedule:
        if stop is not None and stop(tally.attempted):
            break
        due = t0 + offset
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        sent = time.perf_counter()
        _call(client, tally, "predict", predict_params(KINDS[k]),
              lambda r, k=k: r == expected[k])
        done = time.perf_counter()
        tally.latency.append(done - due)
        tally.rtt.append(done - sent)
        tally.late.append(sent - due)
    return tally


def closed(client, kinds: list[int], expected: list[dict]) -> Tally:
    """Closed loop: the next request goes out when the previous reply is in."""
    tally = Tally()
    for k in kinds:
        sent = time.perf_counter()
        _call(client, tally, "predict", predict_params(KINDS[k]),
              lambda r, k=k: r == expected[k])
        tally.rtt.append(time.perf_counter() - sent)
    return tally


def estimates(client, seeds: list[int]) -> Tally:
    """Back-to-back ``estimate`` calls, one per seed."""
    tally = Tally()
    start = time.perf_counter()
    for index, seed in enumerate(seeds):
        sent = time.perf_counter()
        result = _call(client, tally, "estimate", estimate_params(seed, index),
                       lambda r, i=index: r.get("registered_as") == f"bench-{i}")
        tally.rtt.append(time.perf_counter() - sent)
        tally.replies.append(result)
    tally.wall = time.perf_counter() - start
    return tally


def both(main: Callable[[], Tally], helper: Callable[[], Tally]) -> tuple[Tally, Tally]:
    """Run ``helper`` on a second thread while ``main`` runs on this one."""
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["result"] = helper()
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            box["error"] = exc

    thread = threading.Thread(target=target, name="perfbench-load")
    thread.start()
    try:
        first = main()
    finally:
        thread.join(timeout=120)
    if thread.is_alive():
        raise RuntimeError("load thread did not finish")
    if "error" in box:
        raise box["error"]
    return first, box["result"]


class Schedule:
    """Every request of a run, drawn from the seed before anything is timed."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        draw = lambda n: [rng.randrange(len(KINDS)) for _ in range(n)]  # noqa: E731
        self.warmup = (draw(WARMUP_PER_CONNECTION), draw(WARMUP_PER_CONNECTION))
        # Predicts run until the last estimate is answered and at least
        # ``mixed_min`` were sent; the list only has to outlast the run.
        self.mixed_min = max(1, round(MIXED_RATE * seconds))
        self.mixed = [(i / MIXED_RATE, k) for i, k in enumerate(draw(round(MIXED_RATE * 170)))]
        n_estimates = max(1, round(ESTIMATES_PER_SECOND * seconds))
        self.estimate_seeds = [rng.randrange(1 << 30) for _ in range(n_estimates)]


def warm(server: Server, schedule: Schedule, expected: list[dict]) -> Tally:
    with server.connect() as c0, server.connect() as c1:
        a, b = both(lambda: closed(c0, schedule.warmup[0], expected),
                    lambda: closed(c1, schedule.warmup[1], expected))
    return a.merge(b)


def phase_mixed(server: Server, schedule: Schedule, expected: list[dict],
                seconds: float) -> dict[str, Tally]:
    """Estimates on one connection, paced predicts on the other."""
    finished = threading.Event()

    def estimate_all(client) -> Tally:
        try:
            return estimates(client, schedule.estimate_seeds)
        finally:
            finished.set()

    with server.connect() as c0, server.connect() as c1:
        t0 = time.perf_counter() + 0.05
        est, pred = both(
            lambda: estimate_all(c0),
            lambda: paced(c1, schedule.mixed, t0, expected,
                          stop=lambda sent: finished.is_set() and sent >= schedule.mixed_min),
        )
    return {"estimate": est, "mixed": pred}


PHASES = (("mixed", phase_mixed),)


@dataclass
class ServeRun:
    """Everything one untraced or traced server session measured."""

    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    tallies: dict[str, Tally] = field(default_factory=dict)
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)
    cpu_ratio: dict[str, float] = field(default_factory=dict)
    obs: dict[str, dict] = field(default_factory=dict)
    launcher: dict = field(default_factory=dict)
    client_calls: dict[str, list] = field(default_factory=dict)


def session(model_path: str, schedule: Schedule, expected: list[dict],
            seconds: float, spans: meta.SpanLog,
            launcher_out: Optional[str] = None) -> ServeRun:
    """Boot a server, warm it, run the measured phases, drain it.

    With ``launcher_out`` the server runs under the traced launcher:
    profiling is switched on for each measured phase only, and the
    server's own ``obs`` snapshot is read after the warm-up and after
    each phase.
    """
    traced = launcher_out is not None
    run = ServeRun()
    with spans.span("setup", traced=traced):
        server = Server(model_path, launcher_out)
    run.setup_s = server.setup_s
    framing = None
    try:
        with spans.span("warmup"):
            run.tallies["warmup"] = warm(server, schedule, expected)
        if traced:
            run.obs["warmup"] = server.control.obs()
            framing = _wrap_client_framing(run)
        for name, phase in PHASES:
            if traced:
                server.send_signal(signal.SIGUSR1)
            cpu0 = procs.cpu_seconds(server.child.pid)
            with spans.span(f"phase.{name}"):
                t0 = time.perf_counter()
                run.tallies.update(phase(server, schedule, expected, seconds))
                t1 = time.perf_counter()
            run.cpu_ratio[name] = (procs.cpu_seconds(server.child.pid) - cpu0) / (t1 - t0)
            run.windows[name] = (t0, t1)
            if traced:
                server.send_signal(signal.SIGUSR2)
                run.obs[name] = server.control.obs()
        run.peak_rss_mb = procs.peak_rss_mb(server.child.pid)
        with spans.span("drain"):
            server.drain()
    finally:
        if framing is not None:
            framing.remove()
        server.child.close()
    if traced:
        with open(launcher_out) as handle:
            run.launcher = json.load(handle)
    return run


def _wrap_client_framing(run: ServeRun) -> layers.Counters:
    """Record this process's request encoding and reply decoding."""
    from repro.serve import protocol

    counters = layers.Counters()
    for key in ("encode_request", "decode_response"):
        counters.wrap_function(
            protocol, key, layers.recorded(run.client_calls.setdefault(key, [])))
    return counters


def _hist(snapshot: dict, family: str, **labels: str) -> tuple[float, float]:
    """(sum, count) of one histogram child of an ``obs`` snapshot."""
    metrics = snapshot.get("telemetry", {}).get("metrics", {})
    for sample in metrics.get(family, {}).get("samples", []):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return float(sample["sum"]), float(sample["count"])
    return 0.0, 0.0


def _counter(snapshot: dict, family: str, **labels: str) -> float:
    metrics = snapshot.get("telemetry", {}).get("metrics", {})
    return sum(
        float(sample["value"])
        for sample in metrics.get(family, {}).get("samples", [])
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def _mean_delta(before: dict, after: dict, family: str, **labels: str) -> float:
    s0, n0 = _hist(before, family, **labels)
    s1, n1 = _hist(after, family, **labels)
    return (s1 - s0) / (n1 - n0) if n1 > n0 else 0.0


def _batch_eval_s(before: dict, after: dict) -> float:
    """Request-weighted mean duration of the batches run between snapshots."""
    seen = max((s["span_id"] for s in before.get("telemetry", {}).get("spans", [])), default=0)
    weighted = requests = 0.0
    for span in after.get("telemetry", {}).get("spans", []):
        if span["name"] == "serve.worker.batch" and span["span_id"] > seen and span.get("end"):
            size = float(span["attrs"].get("coalesced", 1))
            weighted += size * (span["end"] - span["start"])
            requests += size
    return weighted / requests if requests else 0.0


def _calls_in(calls: list, window: tuple[float, float]) -> list[float]:
    return [duration for end, duration in calls if window[0] <= end <= window[1]]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def server_layers(run: ServeRun, phase: str, before: str) -> dict[str, float]:
    """The server's per-request split over one phase of a traced session."""
    window, tally = run.windows[phase], run.tallies[phase]
    first, last = run.obs[before], run.obs[phase]
    calls = run.launcher.get("calls", {})
    request_s = _mean_delta(first, last, "service_request_seconds", verb="predict")
    framing_s = (_mean(_calls_in(calls.get("decode", []), window))
                 + _mean(_calls_in(calls.get("encode", []), window)))
    batch_s = _batch_eval_s(first, last)
    hits = (_counter(last, "predict_cache_total", result="hit")
            - _counter(first, "predict_cache_total", result="hit"))
    misses = (_counter(last, "predict_cache_total", result="miss")
              - _counter(first, "predict_cache_total", result="miss"))
    out = {
        "serve.request_ms": request_s * 1e3,
        "serve.batch_eval_ms": batch_s * 1e3,
        "serve.wait_ms": (request_s - batch_s - framing_s) * 1e3,
        "serve.batch_size": _mean_delta(first, last, "service_batch_size"),
        "serve.framing_us": framing_s * 1e6,
        "serve.transport_ms": (_mean(tally.rtt) - request_s) * 1e3,
        "predict_service.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "predict_service.eval_ms": _mean_delta(first, last, "predict_sweep_seconds") * 1e3,
        "client.framing_us": sum(_mean(_calls_in(c, window))
                                 for c in run.client_calls.values()) * 1e6,
    }
    for key, name in (("estimate", "serve.estimate_ms"), ("register", "serve.register_ms")):
        out[name] = _mean(_calls_in(calls.get(key, []), window)) * 1e3
    return out


def run_workload(seed: int, seconds: float, trace: bool, spans: meta.SpanLog) -> dict[str, Any]:
    """One ``serve_mixed`` run; returns the benchmark's report."""
    with tempfile.TemporaryDirectory(dir=procs.scratch_dir()) as workdir:
        return _run_workload(seed, seconds, trace, spans, workdir)


def _run_workload(seed: int, seconds: float, trace: bool,
                  spans: meta.SpanLog, workdir: str) -> dict[str, Any]:
    schedule = Schedule(seed, seconds)
    with spans.span("inputs"):
        model_path, expected = build_inputs(seed, workdir)
    setups = setup_samples(spans, model_path, SETUP_SAMPLES - 1)
    with spans.span("session"):
        run = session(model_path, schedule, expected, seconds, spans)
    setups.append(run.setup_s)

    metrics: dict[str, float] = {"setup_s": statistics.median(setups),
                                 "peak_rss_mb": run.peak_rss_mb}
    details: dict[str, Any] = {"setup_samples_s": setups}
    attempted = sum(t.attempted for t in run.tallies.values())
    failed = sum(t.failed for t in run.tallies.values())
    correct = failed == 0
    est, pred = run.tallies["estimate"], run.tallies["mixed"]
    # The latencies sit in modes a GIL switch interval (5 ms) apart, and the
    # median falls between two of them; p75 stays inside the top one.
    lat = {**latency_summary(pred.latency), "p75": percentile(pred.latency, 75)}
    metrics["latency_ms"] = lat["p75"] * 1e3
    metrics["throughput_per_s"] = len(est.rtt) / est.wall
    details["mixed"] = {
        "rate_per_s": MIXED_RATE, "latency_ms": _ms(lat),
        "max_late_ms": max(pred.late) * 1e3,
        "estimates": len(est.rtt), "estimate_s": statistics.median(est.rtt),
    }
    first_ok = _check_first_estimate(est.replies[0], schedule.estimate_seeds[0])
    details["first_estimate_matches_in_process"] = first_ok
    correct = correct and first_ok
    failed += 0 if first_ok else 1
    details["digest"] = meta.digest([expected, est.replies[0]])
    details["errors"] = [e for t in run.tallies.values() for e in t.errors][:5]

    report: dict[str, Any] = {"metrics": metrics, "details": details,
                              "attempted": attempted, "failed": failed, "correct": correct}
    if trace:
        with spans.span("session", traced=True):
            traced = session(model_path, schedule, expected, seconds, spans,
                             launcher_out=os.path.join(workdir, "launcher.json"))
        report["per_layer"] = traced_layers(run, traced)
    return report


def _ms(summary: dict) -> dict:
    return {k: (v if k == "count" else v * 1e3) for k, v in summary.items()}


def _check_first_estimate(reply: Optional[dict], seed: int) -> bool:
    """Re-derive the first ``estimate`` reply in-process (after timing)."""
    if reply is None:
        return False
    from repro import api

    cluster = api.load_cluster(nodes=ESTIMATE_NODES, profile="lam", seed=seed)
    outcome = api.estimate(cluster, model="lmo", reps=ESTIMATE_REPS)
    return {k: v for k, v in reply.items() if k != "registered_as"} == outcome.to_dict()


def traced_layers(untraced: ServeRun, traced: ServeRun) -> dict[str, float]:
    """Per-layer metrics of a traced session, beside its untraced twin."""
    launcher = traced.launcher
    values: dict[str, float] = {
        f"{layer}.self_s": seconds for layer, seconds in launcher["layers"].items()}
    values["profile.total_s"] = launcher["profile_total_s"]
    values["setup.import_s"] = launcher["import_s"]
    values.update(launcher["counters"])
    values.update(server_layers(traced, "mixed", before="warmup"))
    values["serve.cpu_ratio"] = untraced.cpu_ratio["mixed"]
    lat = latency_summary(untraced.tallies["mixed"].latency)
    values["mixed_predict.p90_ms"] = lat["p90"] * 1e3
    values["mixed_predict.p99_ms"] = lat.get("p99", 0.0) * 1e3
    values["client.late_ms"] = max(untraced.tallies["mixed"].late) * 1e3
    values["trace.overhead"] = (
        statistics.median(traced.tallies["estimate"].rtt)
        / statistics.median(untraced.tallies["estimate"].rtt))
    return values
