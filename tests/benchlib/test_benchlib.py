"""Tests for the MPIBlib-style benchmark driver and timing methods."""

import pytest

from repro.benchlib import CollectiveBenchmark, duration
from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.mpi import run_collective
from repro.stats import MeasurementPolicy

KB = 1024


def quiet_cluster(n=6, seed=0, noise=None):
    return SimulatedCluster(
        random_cluster(n, seed=seed),
        ground_truth=GroundTruth.random(n, seed=seed),
        profile=IDEAL,
        noise=noise if noise is not None else NoiseModel.none(),
        seed=seed,
    )


def test_duration_methods():
    cluster = quiet_cluster()
    run = run_collective(cluster, "scatter", "linear", nbytes=4 * KB)
    assert duration(run, "global") == run.time
    assert duration(run, "maxrank") == run.time
    assert duration(run, "root") == run.root_time
    assert duration(run, "root") < duration(run, "global")
    with pytest.raises(KeyError, match="timing method"):
        duration(run, "psychic")


def test_benchmark_deterministic_cluster_stops_at_min_reps():
    bench = CollectiveBenchmark(quiet_cluster(), policy=MeasurementPolicy(min_reps=3, max_reps=50))
    point = bench.measure("scatter", "linear", 8 * KB)
    assert point.summary.count == 3
    assert point.mean > 0


def test_benchmark_reaches_paper_confidence_on_noisy_cluster():
    cluster = quiet_cluster(noise=NoiseModel(rel_sigma=0.03, spike_prob=0.0))
    bench = CollectiveBenchmark(cluster)
    point = bench.measure("gather", "linear", 4 * KB)
    assert point.summary.within(0.025)
    assert point.summary.confidence == 0.95


def test_benchmark_time_accounting_accumulates():
    bench = CollectiveBenchmark(quiet_cluster(), policy=MeasurementPolicy.fixed(2))
    p1 = bench.measure("scatter", "linear", KB)
    total_after_one = bench.benchmark_time
    bench.measure("scatter", "binomial", KB)
    assert p1.benchmark_time > 0
    assert bench.benchmark_time > total_after_one


def test_sweep_covers_all_sizes():
    bench = CollectiveBenchmark(quiet_cluster(), policy=MeasurementPolicy.fixed(1))
    sizes = [KB, 2 * KB, 4 * KB]
    points = bench.sweep("scatter", "linear", sizes)
    assert sorted(points) == sizes
    assert all(points[s].nbytes == s for s in sizes)
    means = [points[s].mean for s in sizes]
    assert means == sorted(means)  # larger messages take longer


def test_root_timing_method_selectable():
    bench = CollectiveBenchmark(
        quiet_cluster(), policy=MeasurementPolicy.fixed(1), timing_method="root"
    )
    root_point = bench.measure("scatter", "linear", 8 * KB)
    bench_global = CollectiveBenchmark(quiet_cluster(), policy=MeasurementPolicy.fixed(1))
    global_point = bench_global.measure("scatter", "linear", 8 * KB)
    assert root_point.mean < global_point.mean


# ------------------------------------------------------------------- suite
def test_suite_measures_grid_and_marks_winners():
    from repro.benchlib import BenchmarkSuite
    from repro.cluster import random_cluster

    cluster = SimulatedCluster(
        random_cluster(8, seed=30),
        ground_truth=GroundTruth.random(8, seed=30, beta_range=(0.9e8, 1.1e8)),
        profile=IDEAL,
        noise=NoiseModel.none(),
        seed=30,
    )
    suite = BenchmarkSuite(cluster, policy=MeasurementPolicy.fixed(2))
    result = suite.run(operations=["bcast"], sizes=[KB, 128 * KB])
    algos = {algo for (_op, algo, _m) in result.points}
    assert algos == {"linear", "binomial", "pipeline", "van_de_geijn"}
    # The reported winner is the argmin of the measured means, per size.
    for m in (KB, 128 * KB):
        means = {algo: result.points[("bcast", algo, m)].mean for algo in algos}
        assert result.best_algorithm("bcast", m) == min(means, key=means.__getitem__)
    # Winners differ across the size range on this hardware (the whole
    # point of switching), and the table marks them.
    text = result.render()
    assert "*" in text and "bcast" in text


def test_suite_skips_power_of_two_only_algorithms():
    from repro.benchlib import BenchmarkSuite

    suite = BenchmarkSuite(quiet_cluster(n=6, seed=31),
                           policy=MeasurementPolicy.fixed(1))
    result = suite.run(operations=["allgather"], sizes=[KB])
    algos = {algo for (_op, algo, _m) in result.points}
    assert "ring" in algos
    assert "recursive_doubling" not in algos  # n=6 is not a power of two


def test_suite_rejects_a_negative_size():
    """Skipping a point that cannot run must not hide a bad size."""
    from repro.benchlib import BenchmarkSuite

    suite = BenchmarkSuite(quiet_cluster(n=4, seed=33), policy=MeasurementPolicy.fixed(1))
    with pytest.raises(ValueError, match="negative message size"):
        suite.run(operations=["bcast"], sizes=[KB, -5])


def test_suite_unknown_point_raises():
    from repro.benchlib import SuiteResult

    with pytest.raises(KeyError):
        SuiteResult().best_algorithm("bcast", 1)


def test_suite_barrier_measured_once():
    from repro.benchlib import BenchmarkSuite

    suite = BenchmarkSuite(quiet_cluster(n=4, seed=32),
                           policy=MeasurementPolicy.fixed(1))
    result = suite.run(operations=["barrier"], sizes=[KB, 2 * KB, 4 * KB])
    barrier_points = [k for k in result.points if k[0] == "barrier"]
    assert len(barrier_points) == 1
