"""Tests for experiment scheduling (round-robin pairs, triplet packing)."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.estimation import AnalyticEngine, DESEngine, pack_rounds, pair_rounds
from repro.estimation.experiments import roundtrip
from repro.estimation.lmo_est import build_experiment_set
from repro.estimation.scheduling import run_schedule


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 24))
def test_pair_rounds_cover_all_pairs_disjointly(n):
    rounds = pair_rounds(n)
    seen = set()
    for rnd in rounds:
        nodes = [x for pair in rnd for x in pair]
        assert len(nodes) == len(set(nodes)), "pairs within a round must be disjoint"
        seen.update(rnd)
    assert seen == set(combinations(range(n), 2))


def test_pair_rounds_even_n_is_perfect_schedule():
    rounds = pair_rounds(16)
    assert len(rounds) == 15
    assert all(len(rnd) == 8 for rnd in rounds)


def test_pair_rounds_odd_n_has_byes():
    rounds = pair_rounds(5)
    assert sum(len(rnd) for rnd in rounds) == 10
    assert all(len(rnd) == 2 for rnd in rounds)


def test_pair_rounds_validation():
    with pytest.raises(ValueError):
        pair_rounds(1)


def _rooted_triplets(n):
    """Every unordered triplet three times, once per root: the ``3 C(n,3)``
    one-to-two experiments of the paper, as ``(root, a, b)``."""
    return [rooted for i, j, k in combinations(range(n), 3)
            for rooted in ((i, j, k), (j, i, k), (k, i, j))]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 10))
def test_triplet_rounds_cover_all_rooted_triplets(n):
    rounds = pack_rounds(_rooted_triplets(n))
    seen = []
    for rnd in rounds:
        nodes = [x for triple in rnd for x in triple]
        assert len(nodes) == len(set(nodes))
        seen.extend(rnd)
    # 3 * C(n,3) rooted experiments, each triplet with 3 distinct roots.
    assert len(seen) == len(set(seen)) == n * (n - 1) * (n - 2) // 2


def test_pack_rounds_first_fit():
    rounds = pack_rounds([(0, 1), (2, 3), (0, 2), (1, 3)])
    assert rounds == [[(0, 1), (2, 3)], [(0, 2), (1, 3)]]


def _pack_rounds_with_sets(items):
    """The reference first-fit packing, on Python sets."""
    rounds, occupied = [], []
    for item in items:
        nodes = set(item)
        for round_idx, used in enumerate(occupied):
            if not (used & nodes):
                rounds[round_idx].append(item)
                used |= nodes
                break
        else:
            rounds.append([item])
            occupied.append(set(nodes))
    return rounds


@pytest.mark.parametrize("n", range(3, 17))
def test_triplet_rounds_match_the_set_packing(n):
    rooted = _rooted_triplets(n)
    assert pack_rounds(rooted) == _pack_rounds_with_sets(rooted)


def test_lmo_experiment_rounds_match_the_set_packing():
    n = 16
    rooted = _rooted_triplets(n)
    experiments = build_experiment_set(list(combinations(range(n), 2)), rooted, 8192)
    nodes = [exp.nodes for exp in experiments]
    assert len(nodes) == 3600
    assert pack_rounds(nodes) == _pack_rounds_with_sets(nodes)


def test_run_schedule_parallel_matches_serial_values():
    n = 6
    gt = GroundTruth.random(n, seed=1)
    cluster = SimulatedCluster(
        random_cluster(n, seed=1), ground_truth=gt,
        profile=IDEAL, noise=NoiseModel.none(), seed=1,
    )
    exps = [roundtrip(i, j, 4096) for i, j in combinations(range(n), 2)]
    serial = run_schedule(DESEngine(cluster), exps, parallel=False)
    parallel = run_schedule(DESEngine(cluster), exps, parallel=True)
    for exp in exps:
        assert parallel[exp] == pytest.approx(serial[exp], rel=1e-12)


def test_run_schedule_parallel_is_cheaper():
    """The whole point of Sec. IV's optimization: same values, less time."""
    n = 8
    gt = GroundTruth.random(n, seed=2)
    cluster = SimulatedCluster(
        random_cluster(n, seed=2), ground_truth=gt,
        profile=IDEAL, noise=NoiseModel.none(), seed=2,
    )
    exps = [roundtrip(i, j, 16384) for i, j in combinations(range(n), 2)]
    serial_engine = DESEngine(cluster)
    run_schedule(serial_engine, exps, parallel=False)
    parallel_engine = DESEngine(cluster)
    run_schedule(parallel_engine, exps, parallel=True)
    assert parallel_engine.estimation_time < serial_engine.estimation_time / 2


def test_run_schedule_reps_average():
    gt = GroundTruth.random(4, seed=3)
    engine = AnalyticEngine(gt, noise=NoiseModel(rel_sigma=0.05, spike_prob=0), seed=0)
    exps = [roundtrip(0, 1, 8192)]
    single = run_schedule(AnalyticEngine(gt, noise=NoiseModel(rel_sigma=0.05, spike_prob=0), seed=0), exps, reps=1)
    averaged = run_schedule(engine, exps, reps=50)
    truth = gt.p2p_time(0, 1, 8192) + gt.p2p_time(1, 0, 8192)
    assert abs(averaged[exps[0]] - truth) < abs(single[exps[0]] - truth) + 0.02 * truth


def test_run_schedule_rejects_bad_reps():
    gt = GroundTruth.random(4, seed=4)
    with pytest.raises(ValueError):
        run_schedule(AnalyticEngine(gt), [roundtrip(0, 1, 0)], reps=0)
