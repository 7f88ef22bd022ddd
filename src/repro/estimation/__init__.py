"""Parameter estimation for every supported communication model.

The centerpiece is :func:`~repro.estimation.lmo_est.estimate_extended_lmo`
(paper Sec. IV, eqs. 6-12): roundtrips + one-to-two collective experiments,
per-triplet closed-form solves, and redundancy averaging — with serial or
parallel (non-overlapping) experiment schedules.
"""

from repro.estimation.breakers import (
    BreakerBoard,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
)
from repro.estimation.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    CampaignStatus,
    campaign_status,
    cluster_fingerprint,
)
from repro.estimation.empirical import (
    GatherSweep,
    detect_gather_irregularity,
    sweep_collective,
)
from repro.estimation.drift import DriftReport, detect_model_drift, spot_check_pairs
from repro.estimation.engines import AnalyticEngine, DESEngine, ExperimentEngine
from repro.estimation.experiments import (
    Experiment,
    one_to_two,
    overhead_recv,
    overhead_send,
    roundtrip,
    saturation,
)
from repro.estimation.hockney_est import (
    HockneyEstimationResult,
    estimate_heterogeneous_hockney,
)
from repro.estimation.lmo_est import (
    LMOEstimationResult,
    estimate_extended_lmo,
    star_triplets,
)
from repro.estimation.logp_est import LogPEstimationResult, estimate_loggp, estimate_logp
from repro.estimation.journal import (
    CampaignJournal,
    FingerprintMismatch,
    JournalCorruption,
    JournalError,
    JournalReplay,
    ScheduleMismatch,
    replay,
)
from repro.estimation.maintainer import HealthRecord, MaintainerPolicy, ModelMaintainer
from repro.estimation.parallel import (
    AnalyticEngineRecipe,
    ChaosKill,
    DESEngineRecipe,
    EngineRecipe,
    ParallelCampaign,
    ParallelConfig,
    merge_worker_journals,
    parallel_shards_exist,
    parallel_status,
    recipe_for_cluster,
    unmerged_shard_set,
    worker_journal_paths,
)
from repro.estimation.robust import (
    EstimationFailure,
    RetryPolicy,
    RobustLMOResult,
    RobustRunStats,
    estimate_extended_lmo_robust,
    run_schedule_robust,
)
from repro.estimation.plogp_est import PLogPEstimationResult, adaptive_sizes, estimate_plogp
from repro.estimation.scheduling import (
    pack_rounds,
    pair_rounds,
    run_schedule,
    run_schedule_adaptive,
)

__all__ = [
    "AnalyticEngine",
    "AnalyticEngineRecipe",
    "BreakerBoard",
    "BreakerPolicy",
    "BreakerState",
    "Campaign",
    "CampaignConfig",
    "CampaignJournal",
    "CampaignResult",
    "CampaignStatus",
    "ChaosKill",
    "CircuitBreaker",
    "DESEngine",
    "DESEngineRecipe",
    "DriftReport",
    "EngineRecipe",
    "FingerprintMismatch",
    "JournalCorruption",
    "JournalError",
    "JournalReplay",
    "ScheduleMismatch",
    "EstimationFailure",
    "Experiment",
    "ExperimentEngine",
    "GatherSweep",
    "HealthRecord",
    "HockneyEstimationResult",
    "LMOEstimationResult",
    "LogPEstimationResult",
    "MaintainerPolicy",
    "ModelMaintainer",
    "PLogPEstimationResult",
    "ParallelCampaign",
    "ParallelConfig",
    "RetryPolicy",
    "RobustLMOResult",
    "RobustRunStats",
    "adaptive_sizes",
    "campaign_status",
    "cluster_fingerprint",
    "detect_gather_irregularity",
    "detect_model_drift",
    "estimate_extended_lmo",
    "estimate_extended_lmo_robust",
    "estimate_heterogeneous_hockney",
    "estimate_loggp",
    "estimate_logp",
    "estimate_plogp",
    "merge_worker_journals",
    "one_to_two",
    "overhead_recv",
    "overhead_send",
    "pack_rounds",
    "pair_rounds",
    "parallel_shards_exist",
    "parallel_status",
    "recipe_for_cluster",
    "replay",
    "roundtrip",
    "run_schedule",
    "run_schedule_adaptive",
    "run_schedule_robust",
    "saturation",
    "spot_check_pairs",
    "star_triplets",
    "sweep_collective",
    "unmerged_shard_set",
    "worker_journal_paths",
]
