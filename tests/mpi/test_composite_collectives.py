"""Tests for van de Geijn bcast, reduce-scatter, Rabenseifner allreduce."""

import pytest

from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.mpi import run_collective

KB = 1024


def quiet_cluster(n=8, seed=120):
    return SimulatedCluster(
        random_cluster(n, seed=seed),
        ground_truth=GroundTruth.random(n, seed=seed, beta_range=(0.9e8, 1.1e8)),
        profile=IDEAL,
        noise=NoiseModel.none(),
        seed=seed,
    )


# ------------------------------------------------------------ van de Geijn
def test_vdg_bcast_delivers_payload():
    cluster = quiet_cluster()
    payload = bytes(range(256)) * 2  # 512 bytes
    run = run_collective(cluster, "bcast", "van_de_geijn", nbytes=512, root=0,
                         data=payload)
    for rank in range(8):
        assert run.value(rank) == payload


def test_vdg_bcast_nonzero_root():
    cluster = quiet_cluster(seed=121)
    payload = b"x" * 640
    run = run_collective(cluster, "bcast", "van_de_geijn", nbytes=640, root=3,
                         data=payload)
    assert all(run.value(rank) == payload for rank in range(8))


def test_vdg_bcast_payload_size_mismatch_rejected():
    cluster = quiet_cluster(seed=122)
    with pytest.raises(Exception, match="payload"):
        run_collective(cluster, "bcast", "van_de_geijn", nbytes=100, data=b"abc")


def test_vdg_bcast_rejects_a_negative_size():
    with pytest.raises(ValueError, match="negative message size"):
        run_collective(quiet_cluster(seed=123), "bcast", "van_de_geijn", nbytes=-5)


def test_vdg_bcast_wins_for_large_messages():
    """The scatter+allgather composition beats the binomial tree once
    bandwidth dominates (every byte crosses each wire once)."""
    cluster = quiet_cluster(seed=123)
    M = 512 * KB
    t_binomial = run_collective(cluster, "bcast", "binomial", nbytes=M).time
    t_vdg = run_collective(cluster, "bcast", "van_de_geijn", nbytes=M).time
    assert t_vdg < t_binomial


def test_binomial_bcast_wins_for_small_messages():
    cluster = quiet_cluster(seed=124)
    M = 256
    t_binomial = run_collective(cluster, "bcast", "binomial", nbytes=M).time
    t_vdg = run_collective(cluster, "bcast", "van_de_geijn", nbytes=M).time
    assert t_binomial < t_vdg  # 2(n-1) ring steps of constants lose


# ------------------------------------------------------------ reduce-scatter
def test_ring_reduce_scatter_each_rank_gets_its_reduced_block():
    n = 5
    cluster = quiet_cluster(n=n, seed=125)
    # data[rank] = list of n blocks: rank's contribution to each target.
    data = [[(rank + 1) * 10 + target for target in range(n)] for rank in range(n)]
    run = run_collective(
        cluster, "reduce_scatter", "ring", nbytes=64, data=data,
        combine=lambda a, b: (a or 0) + (b or 0),
    )
    for target in range(n):
        expected = sum((rank + 1) * 10 + target for rank in range(n))
        assert run.value(target) == expected


# ---------------------------------------------------------------- rabenseifner
def test_rabenseifner_allreduce_sums_vectors():
    n = 4
    cluster = quiet_cluster(n=n, seed=126)
    data = [list(range(rank, rank + 8)) for rank in range(n)]  # 8-element vectors

    def combine(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return [x + y for x, y in zip(a, b)]

    run = run_collective(cluster, "allreduce", "rabenseifner", nbytes=64,
                         data=data, combine=combine)
    expected_full = [sum(col) for col in zip(*data)]
    for rank in range(n):
        blocks = run.value(rank)
        flattened = [x for block in blocks for x in block]
        assert flattened == expected_full


def test_rabenseifner_beats_recursive_doubling_for_large_vectors():
    """~2M per node (reduce-scatter + allgather) vs log2(n) * M for the
    butterfly: bandwidth-bound sizes favour Rabenseifner."""
    cluster = quiet_cluster(seed=127)
    M = 512 * KB
    t_rd = run_collective(cluster, "allreduce", "recursive_doubling", nbytes=M,
                          combine=lambda a, b: a).time
    t_rab = run_collective(cluster, "allreduce", "rabenseifner", nbytes=M,
                           combine=lambda a, b: a).time
    assert t_rab < t_rd


def test_recursive_doubling_beats_rabenseifner_for_small_vectors():
    cluster = quiet_cluster(seed=128)
    M = 64
    t_rd = run_collective(cluster, "allreduce", "recursive_doubling", nbytes=M,
                          combine=lambda a, b: a).time
    t_rab = run_collective(cluster, "allreduce", "rabenseifner", nbytes=M,
                           combine=lambda a, b: a).time
    assert t_rd < t_rab
