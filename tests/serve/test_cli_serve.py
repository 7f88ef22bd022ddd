"""End-to-end test of ``repro serve`` / ``repro client``.

Boots the daemon as a real subprocess on an ephemeral port, drives it
with the ``client`` subcommand (in-process, for exit codes and output)
plus raw SIGHUP/SIGTERM, and checks the full lifecycle the deployment
docs promise: bind, answer, reload without dropping, drain, exit 0.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.cli import main

from tests.serve.conftest import KB, make_model

pytestmark = pytest.mark.resilience

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "lmo.json"
    api.save_model(make_model(), str(path))
    return str(path)


@pytest.fixture()
def daemon(model_file):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    # The with block closes the pipes once the daemon is gone.
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--model", f"lmo={model_file}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on "), banner
            host, _, port = banner.removeprefix("listening on ").rpartition(":")
            yield proc, host, int(port)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)


def client_args(host, port, verb, params=None):
    args = ["client", verb, "--host", host, "--port", str(port)]
    if params is not None:
        args += ["--params", json.dumps(params)]
    return args


def test_serve_and_client_full_lifecycle(daemon, model_file, capsys):
    proc, host, port = daemon
    model = api.load_model(model_file)

    # predict over the wire == the facade, through the CLI.
    assert main(client_args(host, port, "predict", {
        "model": "lmo", "operation": "scatter", "algorithm": "linear",
        "nbytes": 64 * KB,
    })) == 0
    doc = json.loads(capsys.readouterr().out)
    local = api.predict(model, "scatter", "linear", 64 * KB)
    assert doc == local.to_dict()

    # Unknown model: stable error code on stderr, exit 1.
    assert main(client_args(host, port, "predict", {
        "model": "nope", "operation": "scatter", "algorithm": "linear",
        "nbytes": KB,
    })) == 1
    err = capsys.readouterr().err
    assert err.startswith("model_not_loaded: ")
    assert "'nope'" in err and "lmo" in err

    # Bad --params: usage error before any connection, exit 2.
    assert main(["client", "predict", "--params", "{not json"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["client", "predict", "--params", "[1]"]) == 2
    assert "JSON object" in capsys.readouterr().err

    # SIGHUP mid-life: models reload, nothing breaks, answers continue.
    proc.send_signal(signal.SIGHUP)
    time.sleep(0.3)
    assert main(client_args(host, port, "health")) == 0
    health = json.loads(capsys.readouterr().out)
    assert health["status"] == "running" and health["models"] == ["lmo"]

    # Drain verb: daemon answers, shuts down, exits 0.
    assert main(client_args(host, port, "drain")) == 0
    assert json.loads(capsys.readouterr().out)["draining"] is True
    assert proc.wait(timeout=30) == 0

    # A client against the gone daemon: connection error, exit 2.
    assert main(client_args(host, port, "health")) == 2
    assert "cannot reach the daemon" in capsys.readouterr().err


def test_sigterm_drains_and_exits_zero(daemon):
    proc, host, port = daemon
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0


def test_serve_rejects_bad_model_spec(capsys):
    assert main(["serve", "--model", "justaname"]) == 2
    assert "NAME=PATH" in capsys.readouterr().err

