"""The chaos proxy itself: transparency when clean, reachability of
every fault arm, and determinism of the injected fault sequence."""

import socket

import pytest

from repro import api
from repro.serve import protocol
from repro.serve.chaos import ChaosConfig, ChaosProxy, _read_line
from repro.serve.client import ServiceClient
from repro.serve.runner import ServerThread
from repro.serve.server import ServeConfig

from tests.serve.conftest import KB, make_model

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def host():
    config = ServeConfig(port=0, models={"lmo": make_model()}, telemetry=False)
    with ServerThread(config) as server:
        yield server


def _proxy(server, config):
    hostname, port = server.address
    return ChaosProxy(hostname, port, config)


def test_clean_profile_is_a_transparent_relay(host):
    model = make_model()
    with _proxy(host, ChaosConfig.clean()) as proxy:
        with ServiceClient(host=proxy.host, port=proxy.port) as client:
            for nbytes in (KB, 16 * KB, 64 * KB, 256 * KB):
                via_proxy = client.predict("lmo", "scatter", "linear", nbytes)
                assert via_proxy == api.predict(model, "scatter", "linear",
                                                nbytes)
        stats = proxy.stats.snapshot()
    assert stats["connections"] == 1
    assert stats["requests"] == 4 and stats["responses"] == 4
    assert proxy.stats.faults == 0


def test_config_validates_rates():
    with pytest.raises(ValueError):
        ChaosConfig(reset_rate=1.5)
    with pytest.raises(ValueError):
        ChaosConfig(stall_seconds=-1.0)


def test_reset_arm_surfaces_as_connection_failure(host):
    with _proxy(host, ChaosConfig(seed=0, reset_rate=1.0, partial_rate=0.0,
                                  corrupt_rate=0.0, stall_rate=0.0,
                                  delay_rate=0.0)) as proxy:
        with pytest.raises((protocol.WireError, OSError)):
            with ServiceClient(host=proxy.host, port=proxy.port,
                               timeout=10.0) as client:
                client.health()
        assert proxy.stats.snapshot()["resets"] == 1


def test_partial_arm_surfaces_as_wire_error(host):
    with _proxy(host, ChaosConfig(seed=0, reset_rate=0.0, partial_rate=1.0,
                                  corrupt_rate=0.0, stall_rate=0.0,
                                  delay_rate=0.0)) as proxy:
        with pytest.raises((protocol.WireError, OSError)):
            with ServiceClient(host=proxy.host, port=proxy.port,
                               timeout=10.0) as client:
                client.health()
        assert proxy.stats.snapshot()["partials"] == 1


def test_corrupt_arm_is_caught_by_the_crc(host):
    with _proxy(host, ChaosConfig(seed=0, reset_rate=0.0, partial_rate=0.0,
                                  corrupt_rate=1.0, stall_rate=0.0,
                                  delay_rate=0.0)) as proxy:
        with pytest.raises(protocol.WireError):
            with ServiceClient(host=proxy.host, port=proxy.port,
                               timeout=10.0) as client:
                client.health()
        assert proxy.stats.snapshot()["corruptions"] == 1


def test_stall_arm_trips_the_client_timeout(host):
    config = ChaosConfig(seed=0, reset_rate=0.0, partial_rate=0.0,
                         corrupt_rate=0.0, stall_rate=1.0,
                         stall_seconds=5.0, delay_rate=0.0)
    with _proxy(host, config) as proxy:
        with pytest.raises((socket.timeout, TimeoutError, OSError)):
            with ServiceClient(host=proxy.host, port=proxy.port,
                               timeout=0.5) as client:
                client.health()
        assert proxy.stats.snapshot()["stalls"] == 1


def test_delay_arm_stretches_latency_without_breaking(host):
    config = ChaosConfig(seed=0, reset_rate=0.0, partial_rate=0.0,
                         corrupt_rate=0.0, stall_rate=0.0,
                         delay_rate=1.0, delay_seconds=0.05)
    with _proxy(host, config) as proxy:
        with ServiceClient(host=proxy.host, port=proxy.port) as client:
            assert client.health()["status"] == "running"
        assert proxy.stats.snapshot()["delays"] == 1


def _fault_trace(server, seed, calls=40):
    """Drive a fixed call sequence through a fresh proxy; record each
    call's outcome class and the final stats."""
    outcomes = []
    with _proxy(server, ChaosConfig(seed=seed)) as proxy:
        client = None
        for i in range(calls):
            try:
                if client is None:
                    client = ServiceClient(host=proxy.host, port=proxy.port,
                                           timeout=2.0)
                client.predict("lmo", "scatter", "linear", float(KB * (i + 1)))
                outcomes.append("ok")
            except Exception as exc:  # noqa: BLE001 - classified below
                outcomes.append(type(exc).__name__)
                if client is not None:
                    client.close()
                client = None
        if client is not None:
            client.close()
        return outcomes, proxy.stats.snapshot()


def test_same_seed_same_faults(host):
    """The whole point: a fixed seed and a fixed call sequence replay
    the identical fault sequence, call by call."""
    outcomes_a, stats_a = _fault_trace(host, seed=11)
    outcomes_b, stats_b = _fault_trace(host, seed=11)
    assert outcomes_a == outcomes_b
    for key in ("resets", "partials", "corruptions"):
        assert stats_a[key] == stats_b[key]
    # And a different seed lands faults elsewhere.
    outcomes_c, _ = _fault_trace(host, seed=12)
    assert outcomes_c != outcomes_a


def test_read_line_handles_split_and_glued_lines():
    class Conn:
        def __init__(self, chunks):
            self.chunks = list(chunks)

        def recv(self, _n):
            return self.chunks.pop(0) if self.chunks else b""

    conn = Conn([b'{"a"', b': 1}\n{"b": 2}\n{"c"'])
    buffer = bytearray()
    assert _read_line(conn, buffer) == b'{"a": 1}\n'
    assert _read_line(conn, buffer) == b'{"b": 2}\n'
    assert _read_line(conn, buffer) is None  # EOF mid-line
