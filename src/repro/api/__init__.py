"""The stable high-level API of the reproduction toolkit.

One import gives the whole paper workflow::

    from repro import api

    cluster = api.load_cluster()                 # Table I, LAM 7.1.3
    outcome = api.estimate(cluster)              # extended LMO (eqs. 6-12)
    p = api.predict(outcome.model, "scatter", "linear", 65536)
    m = api.measure(cluster, "scatter", "linear", 65536)
    print(p.seconds, m.mean)

Every function returns a frozen dataclass from :mod:`repro.api.schema`
(schema version 3) with ``to_dict()``/``from_dict()`` — the same
serialization the CLI's ``--format json`` prints and the
:mod:`repro.serve` wire protocol speaks, so an in-process result and a
wire reply round-trip to identical JSON.  Failures raise the unified
taxonomy of :mod:`repro.api.errors` (``InvalidRequest`` /
``ModelNotLoaded`` / ``Overloaded`` / ``InternalError``, with stable
string codes that map 1:1 onto wire and CLI error payloads).  Heavy
lifting stays in the specialist modules — estimation in
:mod:`repro.estimation`, vectorized prediction in
:mod:`repro.predict_service`, measurement in :mod:`repro.benchlib` — the
facade only composes them and names their results.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro import io as model_io
from repro.api import errors, schema
from repro.api.errors import (
    ApiError,
    InternalError,
    InvalidRequest,
    ModelNotLoaded,
    Overloaded,
)
from repro.api.schema import (
    SCHEMA_VERSION,
    EstimateOutcome,
    GatherOptimization,
    Measurement,
    Prediction,
    PredictionBatch,
)
from repro.benchlib import CollectiveBenchmark
from repro.cluster import (
    LAM_7_1_3,
    MPICH_1_2_7,
    OPEN_MPI,
    IDEAL,
    ClusterSpec,
    NoiseModel,
    SimulatedCluster,
    table1_cluster,
)
from repro.estimation import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    CampaignStatus,
    DESEngine,
    ParallelCampaign,
    ParallelConfig,
    campaign_status as _campaign_status,
    detect_gather_irregularity,
    estimate_extended_lmo,
    estimate_heterogeneous_hockney,
    estimate_loggp,
    estimate_plogp,
    recipe_for_cluster,
    star_triplets,
    sweep_collective,
    unmerged_shard_set,
)
from repro.estimation.empirical import IRREGULARITY_SIZES
from repro.models.lmo_extended import ExtendedLMOModel
from repro.obs import Telemetry
from repro.obs import runtime as _obs_runtime
from repro.obs.insight import ResidualMonitor
from repro.optimize.gather_splitting import (
    predict_optimized_gather_sweep,
    split_chunk_counts,
)
from repro.predict_service import (
    PredictRequest,
    available_algorithms,
    model_label,
    predict_many as _predict_many,
    predict_one,
    predict_sweep,
)
from repro.stats import MeasurementPolicy

__all__ = [
    "PROFILES",
    "SCHEMA_VERSION",
    "ApiError",
    "InternalError",
    "InvalidRequest",
    "ModelNotLoaded",
    "Overloaded",
    "errors",
    "schema",
    "CampaignConfig",
    "CampaignResult",
    "CampaignStatus",
    "ParallelConfig",
    "PredictRequest",
    "Prediction",
    "PredictionBatch",
    "Measurement",
    "EstimateOutcome",
    "GatherOptimization",
    "available_algorithms",
    "load_cluster",
    "load_model",
    "save_model",
    "estimate",
    "predict",
    "predict_many",
    "predict_sweep",
    "measure",
    "optimize_gather",
    "run_campaign",
    "resume_campaign",
    "campaign_status",
    "telemetry",
]

#: MPI implementation profiles selectable by name.
PROFILES = {
    "lam": LAM_7_1_3,
    "mpich": MPICH_1_2_7,
    "openmpi": OPEN_MPI,
    "ideal": IDEAL,
}


# -- result types live in repro.api.schema (one serialization for the facade,
# -- the CLI and the wire protocol); re-exported above for compatibility.


# -- cluster and model I/O ------------------------------------------------------
def load_cluster(
    spec: Union[ClusterSpec, str, None] = None,
    nodes: Optional[int] = None,
    profile: str = "lam",
    seed: int = 0,
    noise: bool = True,
) -> SimulatedCluster:
    """Build a simulated cluster.

    ``spec`` is a :class:`ClusterSpec`, a path to a saved spec JSON, or
    None for the paper's Table I cluster.  ``nodes`` optionally truncates
    to the first N nodes.  ``profile`` names an MPI implementation
    (``lam`` / ``mpich`` / ``openmpi`` / ``ideal``).
    """
    if spec is None:
        spec = table1_cluster()
    elif isinstance(spec, str):
        spec = model_io.load(spec)
        if not isinstance(spec, ClusterSpec):
            raise TypeError(f"{type(spec).__name__} is not a cluster spec")
    if nodes is not None:
        if not (2 <= nodes <= spec.n):
            raise InvalidRequest(f"nodes must be in [2, {spec.n}], got {nodes}")
        spec = ClusterSpec(spec.nodes[:nodes], name=f"{spec.name}-{nodes}")
    if profile not in PROFILES:
        raise InvalidRequest(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    return SimulatedCluster(
        spec,
        profile=PROFILES[profile],
        noise=NoiseModel.default() if noise else NoiseModel.none(),
        seed=seed,
    )


def load_model(path: str):
    """Load a saved schema-v2 model; a file that is not one raises
    :class:`~repro.api.errors.InvalidRequest` (a ``ValueError``)."""
    try:
        return model_io.load(path)
    except ValueError as exc:
        raise InvalidRequest(str(exc)) from exc


def save_model(model, path: str) -> None:
    """Save a model as schema-v2 JSON."""
    model_io.save(model, path)


# -- estimation -----------------------------------------------------------------
def estimate(
    cluster: SimulatedCluster,
    model: str = "lmo",
    reps: int = 3,
    quick: bool = False,
    empirical: bool = False,
) -> EstimateOutcome:
    """Run a model's published estimation procedure on ``cluster``.

    ``model`` is one of ``lmo`` (extended LMO, eqs. 6-12), ``hockney``
    (heterogeneous Hockney), ``loggp`` or ``plogp``.  ``quick`` uses the
    reduced star-triplet design (LMO only); ``empirical`` additionally
    detects the gather irregularity parameters M1/M2 (LMO only).
    """
    engine = DESEngine(cluster)
    start = engine.estimation_time
    if model == "lmo":
        triplets = star_triplets(cluster.n) if quick else None
        estimated = estimate_extended_lmo(
            engine, reps=reps, triplets=triplets, clamp=True
        ).model
        if empirical:
            sweep = sweep_collective(
                engine, "gather", "linear", sizes=IRREGULARITY_SIZES, reps=12
            )
            estimated = estimated.with_irregularity(detect_gather_irregularity(sweep))
    elif model == "hockney":
        estimated = estimate_heterogeneous_hockney(engine, reps=reps).model
    elif model == "loggp":
        estimated = estimate_loggp(engine, reps=reps)
    elif model == "plogp":
        estimated = estimate_plogp(engine, reps=reps).model
    else:
        raise InvalidRequest(f"unknown model {model!r}; choose from "
                             "['lmo', 'hockney', 'loggp', 'plogp']")
    return EstimateOutcome(
        model=estimated,
        model_name=model,
        n=cluster.n,
        estimation_time=float(engine.estimation_time - start),
    )


# -- durable campaigns ----------------------------------------------------------
def run_campaign(
    cluster: SimulatedCluster,
    journal: str,
    config: Optional[CampaignConfig] = None,
    workers: int = 1,
) -> CampaignResult:
    """Run the full pair+triplet estimation sweep as a durable campaign.

    Every experiment is journaled write-ahead to ``journal`` (a JSONL
    file that must not yet exist); a crash, deadline or budget stop
    leaves the journal resumable with :func:`resume_campaign`.  The
    result carries the assembled model (or None when stopped early)
    plus an explicit coverage/degraded report.

    With ``workers > 1`` the sweep runs on a pool of ``workers``
    processes (:mod:`repro.estimation.parallel`), one task per
    node-locality group of units.  Units a lost or hung pool did not
    land are re-run, and the per-worker journals are deterministically
    merged back into the canonical journal at ``journal`` — the result
    is bit-identical to the serial run with the same seed.
    """
    if workers > 1:
        return ParallelCampaign.start(
            recipe_for_cluster(cluster), journal, config=config,
            parallel=ParallelConfig(workers=workers),
        ).run()
    return Campaign.start(DESEngine(cluster), journal, config=config).run()


def resume_campaign(
    cluster: SimulatedCluster,
    journal: str,
    max_wall_seconds: Optional[float] = None,
    max_sim_seconds: Optional[float] = None,
    max_repetitions: Optional[int] = None,
    workers: int = 1,
) -> CampaignResult:
    """Continue an interrupted campaign from its journal.

    The cluster must match the journal's recorded fingerprint (same
    spec, ground truth and seed).  Completed experiments are never
    re-measured; given the same campaign seed, the final model is
    bit-identical to what the uninterrupted run would have produced.
    The budget arguments, when given, replace the journaled caps.

    A parallel campaign's sharded journal set (no canonical file yet,
    but a ``.coord`` journal next to it) is resumed through the
    parallel executor — ``workers`` then sizes the fresh pool.  A
    serial (or already-merged) journal resumes serially; its remaining
    units are the stragglers, not worth a pool.
    """
    if unmerged_shard_set(journal):
        return ParallelCampaign.resume(
            recipe_for_cluster(cluster),
            journal,
            parallel=ParallelConfig(workers=max(1, workers)),
            max_wall_seconds=max_wall_seconds,
            max_sim_seconds=max_sim_seconds,
            max_repetitions=max_repetitions,
        ).run()
    return Campaign.resume(
        DESEngine(cluster),
        journal,
        max_wall_seconds=max_wall_seconds,
        max_sim_seconds=max_sim_seconds,
        max_repetitions=max_repetitions,
    ).run()


def campaign_status(journal: str) -> CampaignStatus:
    """Inspect a campaign journal without attaching a cluster."""
    return _campaign_status(journal)


# -- telemetry ------------------------------------------------------------------
def telemetry(enable: bool = True, fresh: bool = False) -> Optional[Telemetry]:
    """The process-wide telemetry session (:mod:`repro.obs`).

    With ``enable=True`` (default) telemetry is switched on if it is not
    already, and the active session is returned — every instrumented
    layer (campaigns, breakers, the prediction cache, the simulated
    cluster, the maintainer) starts recording into it.  With
    ``enable=False`` the current session (or None) is returned without
    side effects.  ``fresh=True`` discards any existing session first.

    Typical use::

        tel = api.telemetry()
        api.run_campaign(cluster, "campaign.jsonl")
        print(tel.to_prometheus())
        escalations = tel.events.events("rto_escalation")
    """
    if not enable:
        return _obs_runtime.active()
    return _obs_runtime.enable(fresh=fresh)


# -- prediction -----------------------------------------------------------------
def predict(
    model,
    operation: str,
    algorithm: str,
    nbytes: float,
    root: int = 0,
    **kwargs,
) -> Prediction:
    """One predicted time, via the central batched prediction service.

    Raises :class:`~repro.api.errors.ModelNotLoaded` (a ``KeyError``)
    when the model has no formula for the (operation, algorithm) pair —
    see :func:`available_algorithms` — and
    :class:`~repro.api.errors.InvalidRequest` (a ``ValueError``) for bad
    parameters.
    """
    try:
        seconds = predict_one(model, operation, algorithm, nbytes, root=root, **kwargs)
    except ApiError:
        raise
    except KeyError as exc:
        raise ModelNotLoaded(exc.args[0] if exc.args else str(exc)) from exc
    except ValueError as exc:
        raise InvalidRequest(str(exc)) from exc
    return _as_prediction(model, operation, algorithm, nbytes, root, seconds)


def _as_prediction(
    model, operation: str, algorithm: str, nbytes: float, root: int, seconds: float
) -> Prediction:
    """Annotate a predicted time exactly as :func:`predict` does.

    Shared with :mod:`repro.serve`, whose batched evaluations must yield
    responses bit-identical to an in-process :func:`predict` call.
    """
    regime = escalation = None
    irregularity = getattr(model, "gather_irregularity", None)
    if operation == "gather" and irregularity is not None:
        regime = irregularity.regime(nbytes)
        escalation = irregularity.escalation_probability(nbytes)
    return Prediction(
        operation=operation, algorithm=algorithm, nbytes=float(nbytes), root=root,
        seconds=float(seconds), regime=regime, escalation_probability=escalation,
    )


def predict_many(model, requests: Sequence[PredictRequest]) -> np.ndarray:
    """Predicted times for a heterogeneous batch, in request order.

    Thin facade over :func:`repro.predict_service.predict_many`; requests
    are grouped and evaluated as vectorized sweeps behind one LRU cache.
    """
    return _predict_many(model, requests)


# -- measurement ----------------------------------------------------------------
def measure(
    cluster: SimulatedCluster,
    operation: str,
    algorithm: str,
    nbytes: int,
    root: int = 0,
    max_reps: int = 25,
    policy: Optional[MeasurementPolicy] = None,
    models: Optional[dict] = None,
    **kwargs,
) -> Measurement:
    """Benchmark one collective (MPIBlib-style: repeat until the CI closes).

    ``models`` optionally names models (``{"lmo": model, ...}``) whose
    predictions for this point are fed to the residual monitor
    (:mod:`repro.obs.insight.residuals`) alongside the measurement —
    a no-op when telemetry is off.
    """
    if policy is None:
        policy = MeasurementPolicy(min_reps=min(5, max_reps), max_reps=max_reps)
    bench = CollectiveBenchmark(cluster, policy=policy)
    point = bench.measure(operation, algorithm, int(nbytes), root=root, **kwargs)
    summary = point.summary
    if models:
        monitor = ResidualMonitor()
        for name, model in _named_models(models).items():
            try:
                predicted = predict_one(
                    model, operation, algorithm, nbytes, root=root
                )
            except KeyError:
                continue  # model has no formula for this point
            monitor.record(
                name, f"{operation}/{algorithm}", int(nbytes),
                predicted, float(summary.mean),
            )
    return Measurement(
        operation=operation, algorithm=algorithm, nbytes=int(nbytes), root=root,
        mean=float(summary.mean), ci_halfwidth=float(summary.ci_halfwidth),
        reps=int(summary.count), confidence=float(summary.confidence),
    )


def _named_models(models) -> dict:
    """Accept ``{"name": model}`` or a bare model sequence (auto-labeled)."""
    if isinstance(models, dict):
        return models
    return {model_label(model): model for model in models}


# -- optimization ---------------------------------------------------------------
def optimize_gather(
    model: ExtendedLMOModel,
    sizes: Sequence[float],
    root: int = 0,
    safety: float = 0.9,
) -> GatherOptimization:
    """Predict the gain of gather message-splitting over a size sweep.

    Sizes in the escalation region (M1, M2) are split into chunks below
    M1; the result compares the native linear gather prediction against
    the split schedule (both vectorized, one call each).
    """
    nb = np.asarray(sizes, dtype=float)
    native = predict_sweep(model, "gather", "linear", nb, root=root)
    irregularity = getattr(model, "gather_irregularity", None)
    if irregularity is None:
        counts = np.ones_like(nb)
        optimized = native
    else:
        counts = split_chunk_counts(nb, irregularity, safety)
        optimized = predict_optimized_gather_sweep(model, nb, root=root, safety=safety)
    return GatherOptimization(
        root=root,
        sizes=tuple(float(m) for m in nb),
        chunk_counts=tuple(int(c) for c in counts),
        native_seconds=tuple(float(t) for t in native),
        optimized_seconds=tuple(float(t) for t in optimized),
    )
