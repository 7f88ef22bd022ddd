"""Supervision: crash-loop detection, graceful endings, watchdog
kills, and full kill-9 recovery of a real supervised daemon."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.serve.client import ResilientClient, RetryPolicy
from repro.serve.supervisor import (
    CRASH_LOOP_EXIT,
    Supervisor,
    SupervisorConfig,
    resolve_port,
)

from tests.procs import children, needs_proc, wait_gone
from tests.serve.conftest import KB, make_model

pytestmark = pytest.mark.resilience

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))


def _fast(command, **overrides):
    defaults = dict(
        command=command, port=resolve_port(),
        health_interval=0.05, health_timeout=0.5, startup_grace=0.5,
        restart_limit=3, restart_window=30.0,
        restart_backoff=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def test_config_validates():
    with pytest.raises(ValueError):
        SupervisorConfig(command=[])
    with pytest.raises(ValueError):
        SupervisorConfig(command=["x"], restart_limit=0)
    with pytest.raises(ValueError):
        SupervisorConfig(command=["x"], health_misses=0)


def test_resolve_port_is_bindable():
    import socket
    port = resolve_port()
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", port))


def test_crash_loop_gives_up_with_the_distinct_exit_code():
    supervisor = Supervisor(_fast(
        [sys.executable, "-c", "import sys; sys.exit(3)"]))
    start = time.monotonic()
    code = supervisor.run()
    assert code == CRASH_LOOP_EXIT
    assert supervisor.gave_up
    assert supervisor.restarts == 2  # limit=3 crashes => 2 restarts granted
    assert time.monotonic() - start < 30.0


def test_zero_exit_ends_supervision_normally():
    supervisor = Supervisor(_fast([sys.executable, "-c", "pass"]))
    assert supervisor.run() == 0
    assert not supervisor.gave_up
    assert supervisor.restarts == 0


def test_wedged_child_is_killed_and_counted_as_a_crash():
    # Runs forever but never serves health: the watchdog declares it
    # wedged after startup_grace, SIGKILLs it, and crash-loops out.
    supervisor = Supervisor(_fast(
        [sys.executable, "-c", "import time; time.sleep(600)"],
        restart_limit=2))
    start = time.monotonic()
    assert supervisor.run() == CRASH_LOOP_EXIT
    assert supervisor.gave_up
    assert time.monotonic() - start < 60.0


def test_stop_terminates_a_running_child():
    supervisor = Supervisor(_fast(
        [sys.executable, "-c", "import time; time.sleep(600)"],
        startup_grace=600.0))
    codes = []
    thread = threading.Thread(target=lambda: codes.append(supervisor.run()))
    thread.start()
    deadline = time.monotonic() + 10.0
    while supervisor.child is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert supervisor.child is not None
    supervisor.stop()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert codes == [0]
    assert supervisor.child.poll() is not None  # no orphan left behind


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "lmo.json"
    api.save_model(make_model(), str(path))
    return str(path)


@needs_proc
def test_kill9_recovery_restores_registered_models(model_file, tmp_path,
                                                   monkeypatch):
    """The tentpole invariant, end to end: register a model, kill -9
    the serving child, and the restarted child still serves it — from
    the fsynced snapshot, through the same supervised endpoint.  The
    killed server's own children (its estimation process) die with it."""
    snapshot = str(tmp_path / "registry.json")
    port = resolve_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--host", "127.0.0.1", "--port", str(port),
               "--model", f"lmo={model_file}",
               "--snapshot", snapshot, "--no-telemetry"]
    supervisor = Supervisor(SupervisorConfig(
        command=command, port=port,
        health_interval=0.1,
        restart_backoff=RetryPolicy(base_delay=0.05, max_delay=0.5, jitter=0.0),
        restart_limit=5, restart_window=60.0,
    ))
    # The child inherits this process's environment; make sure it can
    # import repro however pytest itself was launched.
    monkeypatch.setenv("PYTHONPATH", env["PYTHONPATH"])

    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    client = ResilientClient(
        host="127.0.0.1", port=port, timeout=5.0,
        retry=RetryPolicy(max_retries=40, base_delay=0.05, max_delay=0.5,
                          seed=2),
    )
    try:
        before = client.predict("lmo", "scatter", "linear", 64 * KB)
        reply = client.call("estimate", {
            "model": "lmo", "nodes": 4, "seed": 1, "reps": 1,
            "quick": True, "register_as": "precious",
        })
        assert reply["registered_as"] == "precious"
        victim = supervisor.child
        assert victim is not None
        orphans = children(victim.pid)
        assert orphans, "the server has no estimation process"
        os.kill(victim.pid, signal.SIGKILL)
        assert wait_gone(orphans, timeout=5.0) == []

        # Same client object rides through the restart transparently.
        after = client.predict("lmo", "scatter", "linear", 64 * KB)
        assert after == before
        models = client.health()["models"]
        assert "precious" in models and "lmo" in models
        assert supervisor.restarts >= 1
    finally:
        client.close()
        supervisor.stop()
        thread.join(timeout=30.0)
    assert not thread.is_alive()


def test_cli_supervised_banner_and_crash_loop(tmp_path):
    """`repro serve --supervised` end to end: banner first, then — with
    a model path that cannot load — the crash loop exit code 86."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--supervised",
         "--port", "0", "--model", f"broken={tmp_path}/missing.json",
         "--restart-limit", "2", "--restart-window", "30",
         "--no-telemetry"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("supervising on 127.0.0.1:"), banner
            code = proc.wait(timeout=120)
            assert code == CRASH_LOOP_EXIT
            assert "crash loop" in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
