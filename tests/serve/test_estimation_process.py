"""The estimation process behind the ``estimate`` verb.

Estimates run in a child process of the server: the wire reply must
equal in-process estimation, the child's simulation telemetry must land
in the server's ``obs`` reply, and no lifecycle path (a dead child,
drain, abort) may leave the child behind or break the next estimate.
"""

import asyncio
import os
import signal
import socket
import threading
import time

import pytest

from repro import api
from repro.api import errors
from repro.predict_service import model_fingerprint
from repro.serve import PredictionServer, ServeConfig, ServerThread

from tests.procs import needs_proc, running

pytestmark = [pytest.mark.resilience, needs_proc]


@pytest.fixture()
def server(model):
    with ServerThread(ServeConfig(port=0, models={"lmo": model},
                                  telemetry=False)) as started:
        yield started


def _in_background(call):
    """Run ``call`` on a thread; returns (thread, box with result/error)."""
    box = {}

    def target():
        try:
            box["result"] = call()
        except errors.ApiError as exc:
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    return thread, box


def _wait_inflight(running_server, timeout=10.0):
    deadline = time.monotonic() + timeout
    while running_server.server._inflight == 0:
        assert time.monotonic() < deadline, "the estimate never arrived"
        time.sleep(0.01)


@pytest.mark.parametrize("params", [
    {"model": "lmo", "nodes": 8, "reps": 3, "seed": 11},
    {"model": "hockney", "quick": True, "reps": 1, "seed": 3},
], ids=["lmo-8-nodes-reps-3", "hockney-quick"])
def test_wire_estimate_equals_in_process_estimate(server, params):
    with server.client() as client:
        reply = client.call("estimate", {**params, "register_as": "wire"})
    local = api.estimate(
        api.load_cluster(nodes=params.get("nodes", 16), seed=params["seed"]),
        model=params["model"], reps=params["reps"],
        quick=params.get("quick", False),
    )
    assert reply.pop("registered_as") == "wire"
    assert reply == local.to_dict()
    assert model_fingerprint(server.server.registry.get("wire")) == \
        model_fingerprint(local.model)


def test_a_killed_child_fails_only_its_estimate(server):
    worker = server.server._estimator
    with server.client() as client:
        client.estimate(model="hockney", quick=True, reps=1, nodes=4)
    [child] = worker.pids
    with server.client() as slow:
        thread, box = _in_background(lambda: slow.call(
            "estimate", {"model": "lmo", "nodes": 16, "reps": 5, "seed": 1}))
        _wait_inflight(server)
        time.sleep(0.3)
        os.kill(child, signal.SIGKILL)
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert isinstance(box.get("error"), errors.InternalError), box
    with server.client() as client:
        reply = client.estimate(model="hockney", quick=True, reps=1, nodes=4,
                                register_as="after")
        assert reply.registered_as == "after"
        assert "after" in client.health()["models"]
    assert worker.pids and worker.pids != [child]


def test_a_child_that_died_idle_costs_no_estimate(server):
    worker = server.server._estimator
    with server.client() as client:
        client.estimate(model="hockney", quick=True, reps=1, nodes=4)
        [child] = worker.pids
        os.kill(child, signal.SIGKILL)
        # Reaped: fully dead, not just its main thread (the pool reaps
        # a child once it has marked itself broken).
        deadline = time.monotonic() + 10
        while os.path.exists(f"/proc/{child}"):
            assert time.monotonic() < deadline, "the pool never reaped the child"
            time.sleep(0.01)
        reply = client.estimate(model="hockney", quick=True, reps=1, nodes=4,
                                register_as="fresh")
    assert reply.registered_as == "fresh"


def test_drain_answers_the_estimate_in_flight_and_leaves_no_child(model):
    host = ServerThread(ServeConfig(port=0, models={"lmo": model},
                                    telemetry=False)).start()
    children = host.server._estimator.pids
    assert children
    with host.client() as client:
        thread, box = _in_background(lambda: client.call(
            "estimate", {"model": "lmo", "nodes": 8, "reps": 3, "seed": 2,
                         "register_as": "drained"}))
        _wait_inflight(host)
        host.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert box.get("result", {}).get("registered_as") == "drained", box
    assert not any(running(pid) for pid in children)


def test_abort_kills_the_child(model):
    host = ServerThread(ServeConfig(port=0, models={"lmo": model},
                                    telemetry=False)).start()
    children = host.server._estimator.pids
    asyncio.run_coroutine_threadsafe(host.server.abort(),
                                     host._loop).result(timeout=30)
    host.stop(timeout=30)
    assert not host._thread.is_alive()
    assert children and not any(running(pid) for pid in children)


def test_a_taken_port_starts_no_estimation_process(model):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        server = PredictionServer(ServeConfig(
            port=taken.getsockname()[1], models={"lmo": model}, telemetry=False))
        with pytest.raises(OSError):
            asyncio.run(server.start())
    assert server._estimator.pids == []


def test_untraced_estimate_folds_the_simulation_metrics(model):
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=True)
    with ServerThread(config) as host, host.client() as client:
        client.estimate(model="hockney", quick=True, reps=1, nodes=4)
        metrics = client.obs()["telemetry"]["metrics"]
    events = metrics["sim_events_total"]["samples"]
    assert sum(sample["value"] for sample in events) > 0
