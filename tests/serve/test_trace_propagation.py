"""End-to-end trace propagation: one trace id from client to kernel.

The tentpole acceptance: a live round trip through the service produces
spans in every layer — ``client.request`` (wire hop), ``serve.request``
(dispatch), ``serve.worker`` / ``serve.worker.batch`` (execution), and
``sim.run`` (the DES kernel, for estimate) — all stamped with the *same*
trace id, stitchable into one Chrome trace.  Plus the correlation
satellites: trace ids on ``service_*`` events and error payloads,
retries that stay on one trace, malformed headers that degrade to
untraced, and supervisor children inheriting the trace via the
environment.
"""

import json
import random
import socket

import pytest

from repro.api import errors
from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.obs.stitch import list_traces, stitch_chrome_trace
from repro.serve import ServeConfig, ServerThread, protocol
from repro.serve.client import ResilientClient, RetryExhausted, RetryPolicy

from tests.serve.conftest import make_model

pytestmark = pytest.mark.resilience


def _raw_call(address, line: bytes) -> dict:
    """One raw request line over a fresh socket; returns the reply doc."""
    with socket.create_connection(address, timeout=10.0) as sock:
        fh = sock.makefile("rwb")
        fh.write(line)
        fh.flush()
        return json.loads(fh.readline())


def test_one_trace_id_from_client_to_kernel_and_stitches(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=True)
    ctx = _trace.new_context(random.Random(1))
    with ServerThread(config) as running:
        with _trace.use(ctx), running.client() as client:
            client.predict("lmo", "scatter", "linear", 4096)
            # estimate runs the DES kernel server-side -> sim.run span.
            client.estimate(model="hockney", quick=True, reps=1, nodes=4)
        with running.client() as client:
            snapshot = client.obs()

    spans = snapshot["telemetry"]["spans"]
    traced = [s for s in spans if s.get("trace_id") == ctx.trace_id]
    names = {s["name"] for s in traced}
    assert {"client.request", "serve.request", "serve.worker",
            "serve.worker.batch", "sim.run"} <= names

    # The snapshot stitches into one Chrome trace for that trace id
    # (ServerThread shares the process, so one snapshot covers all
    # lanes; multi-process stitching is exercised in test_stitch.py).
    menu = list_traces([("service", snapshot)])
    assert ctx.trace_id in menu
    doc = json.loads(stitch_chrome_trace([("service", snapshot)],
                                         trace_id=ctx.trace_id))
    stitched = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"client.request", "serve.request", "sim.run"} <= stitched
    assert all(e["args"]["trace_id"] == ctx.trace_id
               for e in doc["traceEvents"] if e["ph"] == "X")


def test_wire_attempts_share_trace_with_fresh_spans(model):
    """Each wire request is a child hop: same trace id, new span id."""
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=True)
    ctx = _trace.new_context(random.Random(2))
    with ServerThread(config) as running:
        host, port = running.address
        with _trace.use(ctx):
            for _ in range(2):
                reply = _raw_call((host, port), protocol.encode_request(
                    "health", {}, 1, trace=_trace.current().child().to_traceparent(),
                ))
                assert reply["ok"]
        with running.client() as client:
            snapshot = client.obs()
    traced = [s for s in snapshot["telemetry"]["spans"]
              if s.get("trace_id") == ctx.trace_id]
    assert len([s for s in traced if s["name"] == "serve.request"]) == 2


def test_retries_stay_on_one_trace_with_numbered_attempts():
    # Telemetry on, nothing listening: every attempt fails retryably, so
    # the resilient client records one client.attempt span per try — all
    # on the single auto-started trace of the logical call.
    tel = _obs.enable(fresh=True)
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
    client = ResilientClient(
        port=dead_port, timeout=1.0,
        retry=RetryPolicy(max_retries=2, base_delay=0.0, jitter=0.0, seed=0),
    )
    with pytest.raises(RetryExhausted):
        client.health()
    client.close()
    attempts = tel.spans.finished("client.attempt")
    assert [s.attrs["attempt"] for s in attempts] == [1, 2, 3]
    trace_ids = {s.trace_id for s in attempts}
    assert len(trace_ids) == 1 and None not in trace_ids


def test_untraced_when_telemetry_off():
    """No telemetry -> the resilient client must not mint trace contexts."""
    assert _obs.ACTIVE is None
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
    client = ResilientClient(
        port=dead_port, timeout=1.0,
        retry=RetryPolicy(max_retries=0, base_delay=0.0, jitter=0.0, seed=0),
    )
    with pytest.raises(RetryExhausted):
        client.health()
    client.close()
    assert _trace.current() is None


def test_error_reply_carries_request_and_trace_ids(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=True)
    ctx = _trace.new_context(random.Random(3))
    with ServerThread(config) as running:
        host, port = running.address
        reply = _raw_call((host, port), protocol.encode_request(
            "predict",
            {"model": "no-such-model", "operation": "scatter",
             "algorithm": "linear", "nbytes": 1024},
            "req-77", trace=ctx.to_traceparent(),
        ))
        with running.client() as client:
            snapshot = client.obs()
    assert not reply["ok"]
    assert reply["error"]["request_id"] == "req-77"
    assert reply["error"]["trace_id"] == ctx.trace_id
    # ...and the server-side failure event carries the same correlation.
    failures = [e for e in snapshot["telemetry"]["events"]
                if e["name"] == "service_request_failed"]
    assert failures and failures[-1]["request_id"] == "req-77"
    assert failures[-1]["trace_id"] == ctx.trace_id


def test_malformed_trace_header_is_served_untraced(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=True)
    with ServerThread(config) as running:
        host, port = running.address
        reply = _raw_call((host, port), protocol.encode_request(
            "health", {}, 9, trace="00-THIS-IS-GARBAGE",
        ))
        with running.client() as client:
            snapshot = client.obs()
    assert reply["ok"]
    served = [s for s in snapshot["telemetry"]["spans"]
              if s["name"] == "serve.request"
              and s.get("attrs", {}).get("request_id") == 9]
    assert served and all(s.get("trace_id") is None for s in served)


def test_supervisor_injects_traceparent_into_child_environment():
    import sys

    from repro.serve.supervisor import Supervisor, SupervisorConfig, resolve_port

    ctx = _trace.new_context(random.Random(4))
    config = SupervisorConfig(
        command=[sys.executable, "-c",
                 "import os, sys; sys.exit(0 if os.environ.get("
                 "'REPRO_TRACEPARENT', '').startswith('00-"
                 + ctx.trace_id + "-') else 7)"],
        port=resolve_port(), health_interval=0.05, health_timeout=0.5,
        startup_grace=0.5, restart_limit=2, restart_window=30.0,
        restart_backoff=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
    )
    with _trace.use(ctx):
        supervisor = Supervisor(config)
        code = supervisor.run()
    # Exit 0 = the child saw our trace id (with a fresh span id) in its
    # environment; exit 7 would crash-loop into a nonzero code.
    assert code == 0
