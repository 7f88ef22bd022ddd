"""The resilience invariants, asserted deterministically.

Through a seeded chaos proxy: every *completed* reply is bit-identical
to the in-process facade, retried side-effectful verbs execute at most
once, and the server never wedges however badly the wire behaves.
Around a hard kill: a supervised restart recovers every registered
model from the fsynced snapshot (tested at the registry level here;
process-level in test_supervisor.py).
"""

import json

import pytest

from repro import api
from repro.api import errors
from repro.serve.chaos import ChaosConfig, ChaosProxy
from repro.serve.client import ResilientClient, RetryPolicy
from repro.serve.runner import ServerThread
from repro.serve.server import ModelRegistry, ServeConfig

from tests.serve.conftest import KB, make_model

pytestmark = pytest.mark.resilience


@pytest.fixture()
def host():
    config = ServeConfig(port=0, models={"lmo": make_model()}, telemetry=False)
    with ServerThread(config) as server:
        yield server


def _resilient(proxy_or_host, retries=8, **kwargs):
    if isinstance(proxy_or_host, ChaosProxy):
        hostname, port = proxy_or_host.host, proxy_or_host.port
    else:
        hostname, port = proxy_or_host.address
    return ResilientClient(
        host=hostname, port=port, timeout=2.0,
        retry=RetryPolicy(max_retries=retries, base_delay=0.01,
                          max_delay=0.2, seed=7),
        **kwargs,
    )


# -- invariant 1: completed replies are bit-identical under chaos -----------------
def test_replies_through_chaos_are_bit_identical_to_the_facade(host):
    model = make_model()
    hostname, port = host.address
    with ChaosProxy(hostname, port, ChaosConfig(seed=42)) as proxy:
        with _resilient(proxy) as client:
            for i in range(150):
                nbytes = float(KB * (i % 64 + 1))
                wire = client.predict("lmo", "scatter", "linear", nbytes)
                local = api.predict(model, "scatter", "linear", nbytes)
                assert wire == local, f"divergence at call {i}"
        assert proxy.stats.faults > 0, "chaos profile injected nothing"


# -- invariant 2: no duplicate side effects under retry ---------------------------
def test_idempotent_retry_never_double_registers(host):
    """Two requests with one idempotency key: the second replays the
    recorded outcome instead of re-running the estimation."""
    with host.client() as client:
        params = {"model": "lmo", "nodes": 4, "seed": 3, "reps": 1,
                  "quick": True, "register_as": "est-a"}
        first = client.call("estimate", params, idempotency_key="k-1")
        replay = client.call("estimate", params, idempotency_key="k-1")
        assert replay == first
        fresh = client.call("estimate", params, idempotency_key="k-2")
        assert fresh["registered_as"] == "est-a"
        models = client.health()["models"]
    assert models.count("est-a") == 1


def test_estimates_through_chaos_register_exactly_once_each(host):
    hostname, port = host.address
    # Aggressive resets force retries on a side-effectful verb.
    config = ChaosConfig(seed=5, reset_rate=0.3, partial_rate=0.1,
                         corrupt_rate=0.1, stall_rate=0.0, delay_rate=0.0)
    names = [f"chaos-est-{i}" for i in range(6)]
    with ChaosProxy(hostname, port, config) as proxy:
        with _resilient(proxy, retries=20) as client:
            for i, name in enumerate(names):
                reply = client.call("estimate", {
                    "model": "lmo", "nodes": 4, "seed": i, "reps": 1,
                    "quick": True, "register_as": name,
                })
                assert reply["registered_as"] == name
        assert proxy.stats.faults > 0
    with host.client() as direct:
        models = direct.health()["models"]
    for name in names:
        assert models.count(name) == 1


# -- invariant 3: the server never wedges -----------------------------------------
def test_server_stays_healthy_after_a_fault_storm(host):
    hostname, port = host.address
    storm = ChaosConfig(seed=13, reset_rate=0.25, partial_rate=0.25,
                        corrupt_rate=0.25, stall_rate=0.0, delay_rate=0.1,
                        delay_seconds=0.01)
    with ChaosProxy(hostname, port, storm) as proxy:
        with _resilient(proxy, retries=30) as client:
            for i in range(60):
                client.predict("lmo", "gather", "linear", float(KB * (i + 1)))
    # The storm really blew: every injected fault kind hit at least once.
    injected = proxy.stats.snapshot()
    for kind in ("resets", "partials", "corruptions", "delays"):
        assert injected[kind] > 0, injected
    # Straight to the server, no proxy: alive, sane, zero queued residue.
    with host.client() as direct:
        health = direct.health()
        assert health["status"] == "running"
        assert health["inflight"] == 0
        model = make_model()
        assert direct.predict("lmo", "scatter", "linear", 8 * KB) == \
            api.predict(model, "scatter", "linear", 8 * KB)


# -- deadline shedding ------------------------------------------------------------
def test_queued_past_deadline_is_shed_unexecuted(host):
    """A deadline far smaller than the batch window expires while the
    request is queued; the server sheds it with the typed code."""
    with host.client() as client:
        with pytest.raises(errors.DeadlineExceeded):
            client.call("predict", {
                "model": "lmo", "operation": "scatter",
                "algorithm": "linear", "nbytes": KB,
            }, deadline_ms=0.001)
        # The connection survives the shed; subsequent work completes.
        assert client.call("health")["status"] == "running"


def test_generous_deadline_does_not_shed(host):
    with host.client() as client:
        result = client.call("predict", {
            "model": "lmo", "operation": "scatter", "algorithm": "linear",
            "nbytes": KB,
        }, deadline_ms=30000.0)
        assert result["kind"] == "prediction"


# -- crash-safe registry snapshot -------------------------------------------------
def test_registry_snapshot_round_trips(tmp_path):
    snapshot = str(tmp_path / "registry.json")
    registry = ModelRegistry(snapshot_path=snapshot)
    registry.register("survivor", make_model())
    # A brand-new registry (a restarted process) restores the overlay.
    reborn = ModelRegistry(snapshot_path=snapshot)
    assert reborn.restore() == 1
    assert "survivor" in reborn.names()
    model = make_model()
    assert api.predict(reborn.get("survivor"), "scatter", "linear", KB) == \
        api.predict(model, "scatter", "linear", KB)


def test_registry_snapshot_is_written_before_ack(tmp_path):
    """Durability ordering: by the time register() returns, the
    snapshot on disk already contains the model."""
    snapshot = str(tmp_path / "registry.json")
    registry = ModelRegistry(snapshot_path=snapshot)
    registry.register("m1", make_model())
    with open(snapshot) as handle:
        on_disk = json.load(handle)
    assert "m1" in on_disk["models"]


def test_corrupt_snapshot_starts_fresh_instead_of_crashing(tmp_path):
    snapshot = tmp_path / "registry.json"
    snapshot.write_text("{definitely not json")
    registry = ModelRegistry(snapshot_path=str(snapshot))
    assert registry.restore() == 0
    assert registry.names() == []
    # And the broken file does not poison future registrations.
    registry.register("fresh", make_model())
    assert ModelRegistry(snapshot_path=str(snapshot)).restore() == 1


def test_in_memory_registration_wins_over_snapshot(tmp_path):
    snapshot = str(tmp_path / "registry.json")
    stale = ModelRegistry(snapshot_path=snapshot)
    stale.register("name", make_model(n=4, seed=9))
    current = ModelRegistry(snapshot_path=snapshot)
    newer = make_model(n=6, seed=2)
    current.register("name", newer)
    assert current.restore() == 0  # snapshot had nothing newer to add
    assert api.predict(current.get("name"), "scatter", "linear", KB) == \
        api.predict(newer, "scatter", "linear", KB)


def test_server_restores_snapshot_on_start(tmp_path):
    snapshot = str(tmp_path / "registry.json")
    config = ServeConfig(port=0, models={"lmo": make_model()}, telemetry=False,
                         snapshot_path=snapshot)
    with ServerThread(config) as first:
        with first.client() as client:
            client.call("estimate", {
                "model": "lmo", "nodes": 4, "seed": 1, "reps": 1,
                "quick": True, "register_as": "durable",
            })
    # A second server instance — a restart — serves the registered model.
    with ServerThread(config) as second:
        with second.client() as client:
            assert "durable" in client.health()["models"]
            result = client.call("predict", {
                "model": "durable", "operation": "scatter",
                "algorithm": "linear", "nbytes": KB,
            })
            assert result["kind"] == "prediction"
