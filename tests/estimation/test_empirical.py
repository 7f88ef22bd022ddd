"""Tests for empirical-parameter detection (M1/M2, escalations)."""

import pytest

from repro.cluster import (
    IDEAL,
    LAM_7_1_3,
    MPICH_1_2_7,
    NoiseModel,
    SimulatedCluster,
    table1_cluster,
)
from repro.estimation import (
    DESEngine,
    detect_gather_irregularity,
    sweep_collective,
)
from repro.estimation.empirical import GatherSweep

KB = 1024


def lam_cluster(seed=0, profile=LAM_7_1_3):
    return SimulatedCluster(
        table1_cluster(), profile=profile, noise=NoiseModel.none(), seed=seed
    )


@pytest.fixture(scope="module")
def lam_gather_sweep():
    engine = DESEngine(lam_cluster(seed=1))
    sizes = [1 * KB, 2 * KB, 4 * KB, 6 * KB, 8 * KB, 16 * KB, 32 * KB,
             48 * KB, 64 * KB, 80 * KB, 96 * KB, 128 * KB]
    return sweep_collective(engine, "gather", "linear", sizes=sizes, reps=12)


def test_gather_thresholds_bracket_lam_values(lam_gather_sweep):
    """M1 ~ 4 KB and M2 ~ 65 KB under LAM on 16 nodes (paper Sec. III)."""
    irr = detect_gather_irregularity(lam_gather_sweep)
    assert 2 * KB <= irr.m1 <= 8 * KB
    assert 48 * KB <= irr.m2 <= 96 * KB


def test_gather_escalations_magnitude_is_rto_scale(lam_gather_sweep):
    """Escalations 'are non-deterministic and reach 0.25 sec'."""
    irr = detect_gather_irregularity(lam_gather_sweep)
    assert 0.15 <= irr.escalation_value <= 0.3


def test_gather_escalation_probability_grows(lam_gather_sweep):
    irr = detect_gather_irregularity(lam_gather_sweep)
    mid = (irr.m1 + irr.m2) / 2
    assert irr.escalation_probability(mid) > 0
    assert irr.escalation_probability(irr.m2) >= irr.escalation_probability(mid)


def test_mpich_profile_shifts_thresholds():
    """MPICH 1.2.7: M1 ~ 3 KB, M2 ~ 125 KB (paper Sec. III)."""
    engine = DESEngine(lam_cluster(seed=2, profile=MPICH_1_2_7))
    sizes = [1 * KB, 2 * KB, 3 * KB, 4 * KB, 8 * KB, 32 * KB, 64 * KB,
             96 * KB, 112 * KB, 125 * KB, 144 * KB, 176 * KB]
    sweep = sweep_collective(engine, "gather", "linear", sizes=sizes, reps=20)
    irr = detect_gather_irregularity(sweep)
    # Escalation onset near 3 KB is probabilistic; with finite repetitions
    # the detected M1 lands within the first escalating sizes.
    assert irr.m1 <= 8 * KB
    assert 112 * KB <= irr.m2 <= 176 * KB


def test_no_escalations_on_ideal_profile_raises():
    engine = DESEngine(lam_cluster(seed=3, profile=IDEAL))
    sweep = sweep_collective(engine, "gather", "linear",
                             sizes=[4 * KB, 16 * KB, 48 * KB], reps=5)
    with pytest.raises(ValueError, match="no escalations"):
        detect_gather_irregularity(sweep)


def test_sweep_statistics_accessors():
    sweep = GatherSweep(sizes=(10, 20), samples={10: [1.0, 3.0], 20: [2.0, 2.0]})
    assert sweep.medians().tolist() == [2.0, 2.0]
    assert sweep.minima().tolist() == [1.0, 2.0]
