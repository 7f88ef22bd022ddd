"""Tests: extended-LMO predictions of the wider algorithm menu track the DES."""

import pytest

from repro.cluster import IDEAL, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.models import ExtendedLMOModel
from repro.models.collectives.formulas_ext import predict_collective
from repro.mpi import run_collective

KB = 1024


def make(n=8, seed=40):
    gt = GroundTruth.random(n, seed=seed)
    cluster = SimulatedCluster(
        random_cluster(n, seed=seed), ground_truth=gt,
        profile=IDEAL, noise=NoiseModel.none(), seed=seed,
    )
    return cluster, ExtendedLMOModel.from_ground_truth(gt)


def check(prediction: float, observed: float, rel: float) -> None:
    assert prediction == pytest.approx(observed, rel=rel)


def test_linear_bcast_prediction_tracks_des():
    cluster, model = make()
    M = 32 * KB
    observed = run_collective(cluster, "bcast", "linear", nbytes=M).time
    check(predict_collective(model, "bcast", "linear", M), observed, rel=0.1)


def test_binomial_bcast_prediction_tracks_des():
    cluster, model = make(seed=41)
    M = 32 * KB
    observed = run_collective(cluster, "bcast", "binomial", nbytes=M).time
    check(predict_collective(model, "bcast", "binomial", M), observed, rel=0.15)


def test_pipeline_bcast_prediction_tracks_des():
    cluster, model = make(seed=42)
    M, seg = 256 * KB, 16 * KB
    observed = run_collective(cluster, "bcast", "pipeline", nbytes=M,
                              segment_nbytes=seg).time
    check(predict_collective(model, "bcast", "pipeline", M, segment_nbytes=seg), observed,
          rel=0.25)


def test_pipeline_bcast_predicts_segment_tradeoff_direction():
    _cluster, model = make(seed=43)
    M = 128 * KB

    def pipeline(segment_nbytes):
        return predict_collective(model, "bcast", "pipeline", M, segment_nbytes=segment_nbytes)

    assert pipeline(16 * KB) < pipeline(M)
    assert pipeline(16 * KB) < pipeline(256)


def test_ring_allgather_prediction_tracks_des():
    cluster, model = make(seed=44)
    M = 16 * KB
    observed = run_collective(cluster, "allgather", "ring", nbytes=M).time
    check(predict_collective(model, "allgather", "ring", M), observed, rel=0.25)


def test_rd_allgather_prediction_tracks_des():
    cluster, model = make(seed=45)
    M = 16 * KB
    observed = run_collective(cluster, "allgather", "recursive_doubling", nbytes=M).time
    check(predict_collective(model, "allgather", "recursive_doubling", M), observed,
          rel=0.25)


def test_rd_allreduce_prediction_tracks_des():
    cluster, model = make(seed=46)
    M = 32 * KB
    observed = run_collective(cluster, "allreduce", "recursive_doubling", nbytes=M,
                              combine=lambda a, b: a).time
    check(predict_collective(model, "allreduce", "recursive_doubling", M), observed,
          rel=0.25)


def test_reduce_bcast_allreduce_prediction_tracks_des():
    cluster, model = make(seed=47)
    M = 32 * KB
    observed = run_collective(cluster, "allreduce", "reduce_bcast", nbytes=M,
                              combine=lambda a, b: a).time
    check(predict_collective(model, "allreduce", "reduce_bcast", M), observed, rel=0.3)


def test_predictions_rank_algorithms_like_the_des():
    """Whatever algorithm actually wins on the cluster, the model must
    pick the same one — the whole point of model-driven selection."""
    cluster, model = make(seed=48)
    cases = [
        ("bcast", ["linear", "binomial"], 256 * KB, {}),
        ("allgather", ["ring", "recursive_doubling"], 64, {}),
        ("allgather", ["ring", "recursive_doubling"], 32 * KB, {}),
        ("allreduce", ["recursive_doubling", "reduce_bcast"], 64,
         {"combine": lambda a, b: a}),
    ]
    for operation, algorithms, nbytes, kwargs in cases:
        observed = {
            algo: run_collective(cluster, operation, algo, nbytes=nbytes, **kwargs).time
            for algo in algorithms
        }
        predicted = {
            algo: predict_collective(model, operation, algo, nbytes)
            for algo in algorithms
        }
        observed_best = min(observed, key=observed.__getitem__)
        predicted_best = min(predicted, key=predicted.__getitem__)
        assert predicted_best == observed_best, (
            f"{operation}@{nbytes}: model picked {predicted_best}, "
            f"cluster says {observed_best} (obs {observed}, pred {predicted})"
        )


def test_rd_requires_power_of_two():
    _cluster, model = make(n=6, seed=49)
    with pytest.raises(ValueError, match="power-of-two"):
        predict_collective(model, "allgather", "recursive_doubling", KB)


def test_predict_collective_unknown_combination():
    _cluster, model = make(seed=50)
    with pytest.raises(KeyError, match="available"):
        predict_collective(model, "bcast", "quantum", KB)


def test_validation():
    _cluster, model = make(seed=51)
    with pytest.raises(ValueError):
        predict_collective(model, "bcast", "linear", -1)
    with pytest.raises(ValueError):
        predict_collective(model, "bcast", "pipeline", KB, segment_nbytes=0)


def test_vdg_bcast_prediction_tracks_des():
    cluster, model = make(seed=52)
    M = 256 * KB
    observed = run_collective(cluster, "bcast", "van_de_geijn", nbytes=M).time
    check(predict_collective(model, "bcast", "van_de_geijn", M), observed, rel=0.3)


def test_rabenseifner_prediction_tracks_des():
    cluster, model = make(seed=53)
    M = 256 * KB
    observed = run_collective(cluster, "allreduce", "rabenseifner", nbytes=M,
                              combine=lambda a, b: a).time
    check(predict_collective(model, "allreduce", "rabenseifner", M), observed, rel=0.3)


def test_composite_predictions_rank_like_the_des():
    cluster, model = make(seed=54)
    for operation, algorithms, nbytes in [
        ("bcast", ["binomial", "van_de_geijn"], 512 * KB),
        ("bcast", ["binomial", "van_de_geijn"], 256),
        ("allreduce", ["recursive_doubling", "rabenseifner"], 512 * KB),
        ("allreduce", ["recursive_doubling", "rabenseifner"], 64),
    ]:
        kwargs = {"combine": (lambda a, b: a)} if operation == "allreduce" else {}
        observed = {
            algo: run_collective(cluster, operation, algo, nbytes=nbytes, **kwargs).time
            for algo in algorithms
        }
        predicted = {
            algo: predict_collective(model, operation, algo, nbytes)
            for algo in algorithms
        }
        assert min(predicted, key=predicted.__getitem__) == min(
            observed, key=observed.__getitem__
        ), f"{operation}@{nbytes}"
