"""Tests for activity tracing and Gantt rendering."""

import pytest

from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.mpi import run_collective
from repro.simlib import Interval, Tracer, render_gantt

KB = 1024


def test_interval_validation_and_duration():
    interval = Interval("lane", 1.0, 3.0, "x")
    assert interval.duration == 2.0
    with pytest.raises(ValueError):
        Interval("lane", 3.0, 1.0)


def test_tracer_records_and_queries():
    tracer = Tracer()
    tracer.record("a", 0.0, 1.0, "x")
    tracer.record("b", 0.5, 2.0)
    tracer.record("a", 3.0, 4.0)
    assert tracer.lanes() == ["a", "b"]
    assert [i.start for i in tracer.lane_intervals("a")] == [0.0, 3.0]
    assert tracer.busy_time("a") == pytest.approx(2.0)
    assert tracer.span() == pytest.approx(4.0)
    assert tracer.utilization("a") == pytest.approx(0.5)
    tracer.clear()
    assert tracer.span() == 0.0
    assert tracer.utilization("a") == 0.0


def test_render_empty_and_validation():
    tracer = Tracer()
    assert render_gantt(tracer) == "(empty trace)"
    tracer.record("a", 0.0, 1.0)
    with pytest.raises(ValueError):
        render_gantt(tracer, width=5)


def test_render_marks_busy_stretches():
    tracer = Tracer()
    tracer.record("cpu", 0.0, 0.5, "s")
    tracer.record("wire", 0.5, 1.0, "w")
    text = render_gantt(tracer, width=20)
    lines = text.splitlines()
    assert len(lines) == 3
    cpu_line = next(line for line in lines if line.startswith("cpu"))
    wire_line = next(line for line in lines if line.startswith("wire"))
    cpu_cells = cpu_line[len("wire "):]  # skip the name column
    wire_cells = wire_line[len("wire "):]
    assert "s" in cpu_cells and "w" not in cpu_cells
    assert "w" in wire_cells
    # cpu busy in the first half, wire in the second.
    assert cpu_cells.index("s") < wire_cells.index("w")


def traced_cluster():
    n = 4
    cluster = SimulatedCluster(
        random_cluster(n, seed=1),
        ground_truth=GroundTruth.random(n, seed=1),
        profile=IDEAL,
        noise=NoiseModel.none(),
        seed=1,
    )
    tracer = Tracer()
    cluster.attach_tracer(tracer)
    return cluster, tracer


def test_scatter_trace_shows_serial_root_and_parallel_receivers():
    cluster, tracer = traced_cluster()
    run = run_collective(cluster, "scatter", "linear", nbytes=32 * KB)
    gt = cluster.ground_truth
    # Root CPU: three back-to-back send slots, no gaps.
    sends = [i for i in tracer.lane_intervals("cpu0") if i.label == "s"]
    assert len(sends) == 3
    for before, after in zip(sends, sends[1:]):
        assert after.start == pytest.approx(before.end)
    assert tracer.busy_time("cpu0") == pytest.approx(3 * gt.send_cost(0, 32 * KB), rel=1e-9)
    # Each receiver processed exactly once; ports used once each.
    for rank in (1, 2, 3):
        recvs = [i for i in tracer.lane_intervals(f"cpu{rank}") if i.label == "r"]
        assert len(recvs) == 1
        assert len(tracer.lane_intervals(f"port{rank}")) == 1
    # Total trace span equals the measured collective time.
    assert tracer.span() == pytest.approx(run.time, rel=1e-9)


def test_gather_trace_shows_port_serialization():
    cluster, tracer = traced_cluster()
    run_collective(cluster, "gather", "linear", nbytes=32 * KB)
    wires = [i for i in tracer.lane_intervals("port0") if i.label == "w"]
    assert len(wires) == 3
    for before, after in zip(wires, wires[1:]):
        assert after.start >= before.end - 1e-15  # one wire: no overlap


def test_tracer_detach_stops_recording():
    cluster, tracer = traced_cluster()
    cluster.attach_tracer(None)
    run_collective(cluster, "scatter", "linear", nbytes=KB)
    assert tracer.intervals == []


def test_render_via_cluster_run():
    cluster, tracer = traced_cluster()
    run_collective(cluster, "scatter", "linear", nbytes=8 * KB)
    text = tracer.render(width=40)
    assert "cpu0" in text and "port1" in text


def test_chrome_trace_export():
    import json

    from repro.obs.export import chrome_trace

    cluster, tracer = traced_cluster()
    run_collective(cluster, "scatter", "linear", nbytes=4 * KB)
    doc = json.loads(chrome_trace(tracer=tracer))
    events = doc["traceEvents"]
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "sim:cpu0" in names
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    assert all(e["dur"] >= 0 for e in complete)
    assert any(e["name"] == "send processing" for e in complete)
    assert any(e["name"] == "wire transfer" for e in complete)
