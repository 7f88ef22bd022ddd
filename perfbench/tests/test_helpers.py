"""Tests of the benchmark's own helpers.

Run from the checkout root::

    python3 -m pytest -q perfbench/tests
"""

import cProfile
import json
import os
import pstats
import socket
import time

import pytest

import layers
import serve_load
import summary

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentiles ----------------------------------------------------------------------
@pytest.mark.parametrize("count, tails", [
    (19, []), (99, []), (100, ["p90"]), (999, ["p90"]), (1000, ["p90", "p99"]),
])
def test_tail_percentiles_need_ten_samples_beyond(count, tails):
    report = summary.latency_summary([float(i) for i in range(count)])
    assert report["count"] == count
    assert "p50" in report
    assert sorted(k for k in report if k not in ("count", "p50")) == tails


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert summary.percentile(values, 0) == 1.0
    assert summary.percentile(values, 100) == 4.0
    assert summary.percentile(values, 50) == 2.5
    assert summary.latency_summary([])["count"] == 0


# -- open loop ------------------------------------------------------------------------
class SlowClient:
    """Answers every predict after ``delay`` seconds with the expected reply."""

    def __init__(self, delay, expected):
        self.delay = delay
        self.expected = expected

    def call(self, verb, params):
        time.sleep(self.delay)
        kind = (params["operation"], params["algorithm"], params["root"], int(params["nbytes"]))
        return self.expected[serve_load.KINDS.index(kind)]


def test_open_loop_latency_counts_from_the_due_time():
    expected = [{"kind": index} for index in range(len(serve_load.KINDS))]
    client = SlowClient(0.03, expected)
    schedule = [(0.0, 0), (0.01, 1), (0.02, 2)]
    tally = serve_load.paced(client, schedule, time.perf_counter(), expected)
    assert tally.attempted == 3 and tally.failed == 0
    # The second and third requests could only leave after the previous
    # reply: their latency includes that wait, their round trip does not.
    for i in (1, 2):
        assert tally.late[i] > 0.015
        assert tally.latency[i] == pytest.approx(tally.late[i] + tally.rtt[i], abs=1e-3)
        assert tally.latency[i] > tally.rtt[i] + 0.015


def test_open_loop_counts_wrong_replies_as_failed():
    expected = [{"kind": index} for index in range(len(serve_load.KINDS))]
    client = SlowClient(0.0, [{"kind": -1}] * len(serve_load.KINDS))
    tally = serve_load.paced(client, [(0.0, 0), (0.0, 1)], time.perf_counter(), expected)
    assert (tally.attempted, tally.failed) == (2, 2)


# -- profile grouping -----------------------------------------------------------------
def test_grouping_sends_foreign_self_time_to_the_calling_package(tmp_path):
    pkg = str(tmp_path / "repro")
    sim = (os.path.join(pkg, "simlib", "kernel.py"), 1, "step")
    mpi = (os.path.join(pkg, "mpi", "comm.py"), 1, "send")
    top = (os.path.join(pkg, "__init__.py"), 1, "boot")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/functools.py", 1, "wrapper")
    stats = {
        sim: (1, 1, 2.0, 9.0, {}),
        mpi: (1, 1, 1.0, 3.0, {}),
        top: (1, 1, 0.5, 0.5, {}),
        # heappush: 3 s under simlib, 1 s under the foreign helper.
        heap: (4, 4, 4.0, 4.0, {sim: (3, 3, 3.0, 3.0), helper: (1, 1, 1.0, 1.0)}),
        # The helper is called from simlib (3 s cumulative) and mpi (1 s).
        helper: (2, 2, 0.8, 1.8, {sim: (1, 1, 0.6, 1.35), mpi: (1, 1, 0.2, 0.45)}),
    }
    grouped = layers.group_self_time(stats, layers.package_layer(pkg))
    assert set(grouped) == set(layers.LAYERS)
    assert sum(grouped.values()) == pytest.approx(layers.profile_total(stats))
    assert grouped["simlib"] == pytest.approx(2.0 + 3.0 + 0.75 + 0.6)
    assert grouped["mpi"] == pytest.approx(1.0 + 0.25 + 0.2)
    assert grouped["other"] == pytest.approx(0.5)


def test_every_profiled_function_lands_in_exactly_one_layer():
    import repro
    from repro.stats.ci import summarize

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(50):
        summarize([1.0, 2.0, 3.5, 4.0])
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    layer_of = layers.package_layer(os.path.dirname(repro.__file__))
    for func in stats:
        own = layer_of(func[0])
        assert own is None or own in layers.LAYERS
    grouped = layers.group_self_time(stats, layer_of)
    assert sum(grouped.values()) == pytest.approx(layers.profile_total(stats), rel=1e-9)
    # numpy's self time is charged to the package that called it.
    assert grouped["stats"] > sum(
        entry[2] for func, entry in stats.items() if layer_of(func[0]) == "stats")


def test_checkout_paths_containing_the_package_name_are_not_misfiled(tmp_path):
    layer_of = layers.package_layer(str(tmp_path / "src" / "repro"))
    assert layer_of(str(tmp_path / "src" / "repro" / "serve" / "server.py")) == "serve"
    assert layer_of(str(tmp_path / "src" / "repro" / "predict_service.py")) == "predict_service"
    assert layer_of(str(tmp_path / "repro" / "perfbench" / "run.py")) is None
    assert layer_of("~") is None


def test_counters_wrap_aliases_and_restore_them():
    from repro.estimation import engines
    from repro.mpi import runtime

    original = runtime.run_ranks
    counters = layers.Counters()
    counters.wrap_function(runtime, "run_ranks", counters.counted("mpi.rank_runs"))
    assert runtime.run_ranks is not original
    assert engines.run_ranks is runtime.run_ranks
    counters.remove()
    assert runtime.run_ranks is original and engines.run_ranks is original


# -- serve launcher -------------------------------------------------------------------
def _listening(host, port):
    try:
        socket.create_connection((host, port), timeout=1.0).close()
    except OSError:
        return False
    return True


def test_serve_launcher_drains_and_leaves_nothing_behind(tmp_path):
    model_path, expected = serve_load.build_inputs(0, str(tmp_path))
    out = str(tmp_path / "launcher.json")
    server = serve_load.Server(model_path, launcher_out=out)
    pid, host, port = server.child.pid, server.host, server.port
    assert _listening(host, port)
    with server.connect() as client:
        assert client.call("predict", serve_load.predict_params(serve_load.KINDS[5])) == expected[5]
    server.drain()
    assert server.child.proc.returncode == 0
    assert not os.path.exists(f"/proc/{pid}")
    assert not _listening(host, port)
    with open(out) as handle:
        doc = json.load(handle)
    assert len(doc["calls"]["decode"]) >= 3  # health, predict, drain
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


# -- the contract file ----------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
