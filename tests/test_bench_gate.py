"""The CI benchmark gate (benchmarks/check_bench_regression.py) fails on
slowdowns past its tolerance and on gated files or metrics gone missing."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, gate, scale=1.0, drop_file=None, drop_metric=None):
    directory.mkdir()
    for name, metrics in gate._GATED_METRICS.items():
        if name == drop_file:
            continue
        doc = {metric: 2.0 * scale for metric in metrics if metric != drop_metric}
        (directory / name).write_text(json.dumps(doc))
    return directory


def _run(gate, baseline, current):
    return gate.main(["--baseline-dir", str(baseline), "--current-dir", str(current)])


def test_within_tolerance_passes(gate, tmp_path):
    base = _write(tmp_path / "base", gate)
    cur = _write(tmp_path / "cur", gate, scale=1.2)
    assert _run(gate, base, cur) == 0


def test_thirty_percent_slower_fails(gate, tmp_path):
    base = _write(tmp_path / "base", gate)
    cur = _write(tmp_path / "cur", gate, scale=1.3)
    assert _run(gate, base, cur) == 1


def test_missing_current_file_fails(gate, tmp_path, capsys):
    base = _write(tmp_path / "base", gate)
    cur = _write(tmp_path / "cur", gate, drop_file="BENCH_kernel.json")
    assert _run(gate, base, cur) != 0
    assert "BENCH_kernel.json: MISSING" in capsys.readouterr().out


def test_missing_metric_fails(gate, tmp_path, capsys):
    base = _write(tmp_path / "base", gate)
    cur = _write(tmp_path / "cur", gate, drop_metric="wall_seconds_per_million_events")
    assert _run(gate, base, cur) != 0
    assert "wall_seconds_per_million_events: MISSING" in capsys.readouterr().out
