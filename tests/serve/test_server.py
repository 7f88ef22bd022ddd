"""End-to-end tests of the prediction daemon over real sockets.

Every test talks to a :class:`ServerThread` — a real listener with real
framing and real backpressure — and the identity tests compare wire
replies **bit-for-bit** against in-process :func:`repro.api.predict`.
"""

import contextlib
import json
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.serve import ServeConfig, ServerThread, protocol

from tests.serve.conftest import KB, make_model


@pytest.fixture(scope="module")
def host(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=False)
    with ServerThread(config) as running:
        yield running


# -- health and identity ----------------------------------------------------------
def test_health_reports_the_fleet(host, model):
    with host.client() as client:
        health = client.health()
    assert health["status"] == "running"
    assert "lmo" in health["models"]
    assert health["inflight"] == 0
    assert set(health["workers"]) == {"predict", "estimate"}
    for worker in health["workers"].values():
        assert worker["state"] == "running"


def test_predict_is_bit_identical_to_the_facade(host, model):
    cases = [
        ("scatter", "linear", 64 * KB, 0),
        ("scatter", "linear", 777, 3),
        ("gather", "linear", 2 * KB, 0),     # small regime
        ("gather", "linear", 32 * KB, 1),    # medium regime
        ("gather", "linear", 256 * KB, 0),   # large regime
        ("bcast", "binomial", 16 * KB, 0),
    ]
    with host.client() as client:
        for operation, algorithm, nbytes, root in cases:
            wire = client.predict("lmo", operation, algorithm, nbytes, root=root)
            local = api.predict(model, operation, algorithm, nbytes, root=root)
            assert wire == local                      # frozen dataclass equality
            assert wire.seconds == local.seconds      # bit-identical, not approx
            assert wire.to_dict() == local.to_dict()  # one serialization


def test_gather_prediction_carries_regime_and_escalation(host, model):
    with host.client() as client:
        p = client.predict("lmo", "gather", "linear", 32 * KB)
    local = api.predict(model, "gather", "linear", 32 * KB)
    assert p.regime == local.regime is not None
    assert p.escalation_probability == local.escalation_probability


def test_64_concurrent_clients_all_bit_identical(host, model):
    cases = [
        ("scatter", "linear", float(512 * (i + 1)), i % 5)
        for i in range(32)
    ] + [
        ("gather", "linear", float(1024 * (i + 1)), i % 5)
        for i in range(32)
    ]

    def roundtrip(case):
        operation, algorithm, nbytes, root = case
        with host.client() as client:
            return client.predict("lmo", operation, algorithm, nbytes, root=root)

    with ThreadPoolExecutor(max_workers=64) as pool:
        wire = list(pool.map(roundtrip, cases))
    for case, got in zip(cases, wire):
        operation, algorithm, nbytes, root = case
        local = api.predict(model, operation, algorithm, nbytes, root=root)
        assert got == local
        assert got.seconds == local.seconds


def test_predict_many_matches_the_facade(host, model):
    requests = [
        {"operation": "scatter", "algorithm": "linear", "nbytes": 4 * KB},
        {"operation": "gather", "algorithm": "linear", "nbytes": 64 * KB,
         "root": 2},
    ]
    with host.client() as client:
        batch = client.predict_many("lmo", requests)
    local = api.predict_many(model, [
        api.PredictRequest(operation="scatter", algorithm="linear",
                           nbytes=4 * KB),
        api.PredictRequest(operation="gather", algorithm="linear",
                           nbytes=64 * KB, root=2),
    ])
    assert batch.seconds == tuple(float(s) for s in local)


def test_predict_many_rejects_mixed_models(host):
    requests = [
        {"model": "other", "operation": "scatter", "algorithm": "linear",
         "nbytes": KB},
    ]
    with host.client() as client:
        with pytest.raises(api.InvalidRequest, match="one model per call"):
            client.predict_many("lmo", requests)


def test_optimize_matches_the_facade(host, model):
    sizes = [8 * KB, 64 * KB, 256 * KB]
    with host.client() as client:
        wire = client.optimize("lmo", sizes)
    local = api.optimize_gather(model, sizes)
    assert wire.to_dict() == local.to_dict()
    assert wire.speedups == local.speedups


# -- typed errors over the wire ---------------------------------------------------
def test_unknown_model_raises_model_not_loaded(host):
    with host.client() as client:
        with pytest.raises(api.ModelNotLoaded, match="no model named 'nope'"):
            client.predict("nope", "scatter", "linear", KB)
        # The connection survives an error reply.
        assert client.health()["status"] == "running"


def test_missing_params_raise_invalid_request(host):
    with host.client() as client:
        with pytest.raises(api.InvalidRequest, match="missing field"):
            client.call("predict", {"model": "lmo"})


def test_unknown_verb_raises_invalid_request(host):
    with host.client() as client:
        with pytest.raises(api.InvalidRequest, match="unknown verb"):
            client.call("launch_missiles", {})


def test_estimate_with_bad_model_name_fails_typed(host):
    with host.client() as client:
        with pytest.raises(api.InvalidRequest, match="unknown model"):
            client.estimate(model="bogus", quick=True, reps=1, nodes=4)


def test_estimate_registers_a_model_then_serves_it(host):
    with host.client() as client:
        reply = client.estimate(model="hockney", quick=True, reps=1, nodes=4,
                                register_as="fresh")
        assert reply.registered_as == "fresh"
        assert reply.outcome.model_name == "hockney"
        assert reply.outcome.n == 4
        assert "fresh" in client.health()["models"]
        p = client.predict("fresh", "scatter", "linear", 4 * KB)
        assert p.seconds > 0


# -- protocol edge cases over a raw socket ----------------------------------------
def _raw_connection(host):
    addr = host.address
    sock = socket.create_connection(addr, timeout=30)
    return sock, sock.makefile("rwb")


def test_malformed_line_gets_an_error_reply_and_the_stream_survives(host):
    sock, stream = _raw_connection(host)
    try:
        stream.write(b"{this is not json}\n")
        stream.flush()
        doc = json.loads(stream.readline())
        assert doc["ok"] is False
        assert doc["id"] is None
        assert doc["error"]["code"] == "invalid_request"
        # Same connection, next line answered normally.
        stream.write(protocol.encode_request("health", {}, 2))
        stream.flush()
        assert json.loads(stream.readline())["ok"] is True
    finally:
        sock.close()


def test_malformed_line_error_correlates_by_peeked_id(host):
    sock, stream = _raw_connection(host)
    try:
        stream.write(b'{"id": 9, "verb": "launch_missiles"}\n')
        stream.flush()
        doc = json.loads(stream.readline())
        assert doc["ok"] is False and doc["id"] == 9
    finally:
        sock.close()


def test_blank_lines_are_skipped(host):
    sock, stream = _raw_connection(host)
    try:
        stream.write(b"\n\n" + protocol.encode_request("health", {}, 1))
        stream.flush()
        doc = json.loads(stream.readline())
        assert doc["ok"] is True and doc["id"] == 1
    finally:
        sock.close()


def test_oversized_line_errors_and_closes_the_connection(host):
    sock, stream = _raw_connection(host)
    payload = (b'{"verb": "predict", "params": {"pad": "'
               + b"x" * protocol.MAX_LINE_BYTES + b'"}}\n')
    try:
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            stream.write(payload)
            stream.flush()
        try:
            line = stream.readline()
        except ConnectionResetError:
            line = b""
        if line:  # the error reply made it out before the close
            doc = json.loads(line)
            assert doc["ok"] is False and doc["id"] is None
            assert doc["error"]["code"] == "invalid_request"
            assert stream.readline() == b""  # ...and then the stream ends
    finally:
        sock.close()
    # The server survives the episode.
    with host.client() as client:
        assert client.health()["status"] == "running"


def test_mid_request_disconnect_leaves_the_server_healthy(host, model):
    # Hang up right after sending a request, without reading the reply.
    sock, stream = _raw_connection(host)
    stream.write(protocol.encode_request(
        "predict", {"model": "lmo", "operation": "scatter",
                    "algorithm": "linear", "nbytes": KB}, 1))
    stream.flush()
    sock.close()
    # Hang up mid-line (no trailing newline ever arrives).
    sock, stream = _raw_connection(host)
    stream.write(b'{"id": 1, "verb": "pre')
    stream.flush()
    sock.close()
    time.sleep(0.1)
    with host.client() as client:
        assert client.health()["status"] == "running"
        p = client.predict("lmo", "scatter", "linear", KB)
    assert p == api.predict(model, "scatter", "linear", KB)


# -- batching ---------------------------------------------------------------------
def test_batched_replies_equal_unbatched_and_facade(model):
    cases = [("scatter", "linear", float(KB * (i + 1)), i % 3)
             for i in range(16)]
    barrier = threading.Barrier(len(cases))

    def fire(running, case):
        operation, algorithm, nbytes, root = case
        with running.client() as client:
            barrier.wait(timeout=30)
            return client.predict("lmo", operation, algorithm, nbytes,
                                  root=root)

    batched_config = ServeConfig(port=0, models={"lmo": model},
                                 batch_window=0.05, telemetry=False)
    with ServerThread(batched_config) as running:
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            batched = list(pool.map(lambda c: fire(running, c), cases))
        coalesced = running.server._predictor.batches

    # The window actually coalesced concurrent requests...
    assert coalesced < len(cases)

    unbatched_config = ServeConfig(port=0, models={"lmo": model},
                                   batch_window=0.0, telemetry=False)
    with ServerThread(unbatched_config) as running:
        with running.client() as client:
            unbatched = [
                client.predict("lmo", operation, algorithm, nbytes, root=root)
                for operation, algorithm, nbytes, root in cases
            ]

    # ...and coalescing changed nothing: batched == serial == in-process.
    for case, via_batch, via_serial in zip(cases, batched, unbatched):
        operation, algorithm, nbytes, root = case
        local = api.predict(model, operation, algorithm, nbytes, root=root)
        assert via_batch == via_serial == local


# -- backpressure -----------------------------------------------------------------
def test_full_queue_rejects_with_overloaded(model):
    config = ServeConfig(port=0, models={"lmo": model},
                         batch_window=0.25, queue_limit=1, telemetry=False)
    attempts = 12
    barrier = threading.Barrier(attempts)

    def fire(running, i):
        with running.client() as client:
            barrier.wait(timeout=30)
            try:
                return client.predict("lmo", "scatter", "linear",
                                      float(KB * (i + 1)))
            except api.Overloaded as exc:
                return exc

    with ServerThread(config) as running:
        with ThreadPoolExecutor(max_workers=attempts) as pool:
            outcomes = list(pool.map(lambda i: fire(running, i),
                                     range(attempts)))
    rejected = [o for o in outcomes if isinstance(o, api.Overloaded)]
    answered = [o for o in outcomes if isinstance(o, api.Prediction)]
    assert len(rejected) + len(answered) == attempts
    assert rejected, "a 1-deep queue under 12 concurrent clients must shed load"
    assert answered, "backpressure must shed load, not reject everything"
    assert all("back off and retry" in str(o) for o in rejected)


# -- lifecycle --------------------------------------------------------------------
def test_drain_answers_everything_queued_then_stops(model):
    config = ServeConfig(port=0, models={"lmo": model},
                         batch_window=0.5, telemetry=False)
    inflight = 8
    results = []

    def fire(running, i):
        with running.client() as client:
            results.append(client.predict("lmo", "scatter", "linear",
                                          float(KB * (i + 1))))

    with ServerThread(config) as running:
        threads = [threading.Thread(target=fire, args=(running, i))
                   for i in range(inflight)]
        for thread in threads:
            thread.start()
        with running.client() as control:
            # Drain only promises answers for *accepted* work: wait until
            # all 8 predicts are in flight (queued behind the long batch
            # window) before pulling the plug.
            deadline = time.monotonic() + 30
            while control.health()["inflight"] < inflight:
                assert time.monotonic() < deadline, "predicts never queued"
                time.sleep(0.01)
            reply = control.drain()
        assert reply["draining"] is True
        for thread in threads:
            thread.join(timeout=30)
        # Every request accepted before the drain was answered.
        assert len(results) == inflight
        for i, got in enumerate(sorted(results, key=lambda p: p.nbytes)):
            assert got == api.predict(model, "scatter", "linear",
                                      float(KB * (i + 1)))
        # The listener is gone: new connections are refused.
        addr = running.address
        running._thread.join(timeout=30)
        assert running.server.state == "stopped"
        with pytest.raises(OSError):
            socket.create_connection(addr, timeout=5)


def test_reload_drops_nothing_and_swaps_the_model(tmp_path, model):
    path = tmp_path / "model.json"
    api.save_model(model, str(path))
    loaded = api.load_model(str(path))
    config = ServeConfig(port=0, models={"lmo": str(path)}, telemetry=False)
    failures = []
    results = []

    def traffic(running):
        with running.client() as client:
            for i in range(25):
                try:
                    results.append(client.predict(
                        "lmo", "scatter", "linear", float(KB + i)))
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    failures.append(exc)

    with ServerThread(config) as running:
        threads = [threading.Thread(target=traffic, args=(running,))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(10):  # hammer SIGHUP's handler mid-traffic
            assert running.reload() == 1
            time.sleep(0.005)
        for thread in threads:
            thread.join(timeout=60)

        assert not failures
        assert len(results) == 100
        for got in results:
            assert got == api.predict(loaded, "scatter", "linear", got.nbytes)

        # A reload actually swaps: write a different model, reload, and
        # the same name now answers with the new model's numbers.
        replacement = make_model(n=6, seed=9, irregular=False)
        api.save_model(replacement, str(path))
        assert running.reload() == 1
        fresh = api.load_model(str(path))
        with running.client() as client:
            after = client.predict("lmo", "scatter", "linear", 64 * KB)
        assert after == api.predict(fresh, "scatter", "linear", 64 * KB)
        assert after.seconds != api.predict(
            loaded, "scatter", "linear", 64 * KB).seconds


def test_unix_socket_serves_and_cleans_up(model):
    with tempfile.TemporaryDirectory(dir="/tmp") as tmp:
        path = f"{tmp}/repro.sock"  # short: AF_UNIX paths cap near 107 chars
        config = ServeConfig(unix_path=path, models={"lmo": model},
                             telemetry=False)
        with ServerThread(config) as running:
            assert running.server.endpoint == path
            with running.client() as client:
                assert client.health()["endpoint"] == path
                p = client.predict("lmo", "scatter", "linear", KB)
            assert p == api.predict(model, "scatter", "linear", KB)
        import os
        assert not os.path.exists(path)  # drained server unlinks its socket


# -- observability ----------------------------------------------------------------
def test_obs_verb_reports_metrics_and_service_alerts(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=True)
    with ServerThread(config) as running:
        with running.client() as client:
            client.predict("lmo", "scatter", "linear", KB)
            client.predict("lmo", "gather", "linear", 64 * KB)
            snapshot = client.obs()
    assert snapshot["enabled"] is True
    metrics = set(snapshot["telemetry"]["metrics"])
    assert {"service_requests_total", "service_request_seconds",
            "service_inflight", "service_connections"} <= metrics
    rules = {alert["rule"]["name"] for alert in snapshot["alerts"]}
    assert {"service_queue_depth_high", "service_p99_latency_high"} <= rules
    assert snapshot["firing"] == []
    assert set(snapshot) == {"enabled", "telemetry", "alerts", "firing"}


def test_obs_verb_without_telemetry(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=False)
    with ServerThread(config) as running:
        with running.client() as client:
            assert client.obs() == {"enabled": False}
