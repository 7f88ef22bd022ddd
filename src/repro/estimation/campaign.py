"""Durable estimation campaigns: journaled, resumable, breaker-guarded.

A full extended-LMO sweep is ``2 C(n,2) + 2 * 3 C(n,3)`` experiments
(paper eqs. 6-12) — minutes of cluster time the paper spends a whole
section minimizing.  PR 1 hardened the in-process path; this module
makes the *campaign itself* durable:

* every experiment is one **idempotent unit of work**, journaled
  write-ahead (:mod:`repro.estimation.journal`): a crash at any byte
  boundary leaves a loadable prefix, and :meth:`Campaign.resume` replays
  it, skips completed units, re-queues in-flight ones, and continues to
  the *bit-identical* final model an uninterrupted run would have
  produced (each unit draws its measurement noise from a seed derived
  from ``(campaign seed, unit index)``, so results do not depend on which
  process executed the unit, or when);
* per-node **circuit breakers** (:mod:`repro.estimation.breakers`)
  reroute the schedule around a dying node instead of burning the full
  timeout/retry budget on every unit touching it; half-open probes
  re-admit recovered nodes, dead ones end up quarantined and the final
  assembly (the same :func:`~repro.estimation.robust.solve_and_assemble`
  stage the robust estimator uses) reports coverage honestly;
* **budgets** — wall-clock, simulated cluster time, total repetitions —
  stop the campaign *between* units at a checkpoint, never mid-
  experiment; the journal stays resumable with a larger budget.

This module owns every campaign job once: the journal header, the
schedule rebuilt from a header, the budget check and the resume budget
overrides, the breaker-board replay, the unit executor, the stopped
result and the status report.  The serial executor (:class:`Campaign`)
and the process-pool executor (:mod:`repro.estimation.parallel`) both
call them.  A unit's timeout/retry loop and screened mean are the
robust runner's (:mod:`repro.estimation.robust`).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Any, Optional, Sequence

import numpy as np

from repro.estimation.breakers import BreakerBoard, BreakerPolicy
from repro.estimation.engines import ExperimentEngine
from repro.estimation.experiments import Experiment, one_to_two, roundtrip
from repro.estimation.journal import (
    CampaignJournal,
    JournalCorruption,
    JournalReplay,
    replay,
    validate_fingerprint,
    validate_schedule,
)
from repro.estimation.lmo_est import DEFAULT_PROBE_NBYTES, build_schedule
from repro.estimation.robust import (
    RetryPolicy,
    _check_int,
    _check_positive_finite,
    _measure,
    screened_mean,
    solve_and_assemble,
)
from repro.obs import runtime as _obs

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "CampaignStatus",
    "campaign_status",
    "cluster_fingerprint",
]


# -- input validation -------------------------------------------------------------
def _check_budget(name: str, value: Any) -> None:
    """Budgets may be None (uncapped); otherwise positive and finite —
    NaN in particular must not slip through a plain comparison."""
    if value is None:
        return
    _check_positive_finite(name, value)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs to be reproducible from its journal.

    Measurement discipline (``timeout`` / ``max_retries`` / ``backoff`` /
    ``mad_threshold``) is a :class:`~repro.estimation.robust.RetryPolicy`
    (:meth:`retry_policy`), validated by it; assembly knobs
    (``physical_tol`` / ``quarantine_fraction``) mirror
    :func:`~repro.estimation.robust.estimate_extended_lmo_robust`.  The
    budgets are *hard caps*: the campaign stops at a checkpoint (between
    units, never mid-experiment) as soon as one is exceeded, leaving a
    resumable journal.
    """

    probe_nbytes: int = DEFAULT_PROBE_NBYTES
    reps: int = 3
    seed: int = 0
    timeout: float = 0.05
    max_retries: int = 4
    backoff: float = 2.0
    mad_threshold: float = 5.0
    physical_tol: float = 5e-5
    quarantine_fraction: float = 0.5
    #: Below this completed-experiment fraction the result is flagged
    #: ``coverage_ok=False`` (it is still produced — degraded, not failed).
    coverage_floor: float = 0.5
    checkpoint_every: int = 16
    #: Extra passes over still-missing units (breakers may have recovered).
    retry_passes: int = 1
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    max_wall_seconds: Optional[float] = None
    max_sim_seconds: Optional[float] = None
    max_repetitions: Optional[int] = None
    fsync: bool = True

    def __post_init__(self) -> None:
        _check_int("probe_nbytes", self.probe_nbytes, 1)
        _check_int("reps", self.reps, 1)
        _check_int("seed", self.seed, 0)
        _check_int("checkpoint_every", self.checkpoint_every, 1)
        _check_int("retry_passes", self.retry_passes, 0)
        self.retry_policy()
        if not (isinstance(self.physical_tol, (int, float)) and self.physical_tol >= 0
                and math.isfinite(self.physical_tol)):
            raise ValueError(f"physical_tol must be finite and >= 0, got {self.physical_tol!r}")
        if not (0 < self.quarantine_fraction <= 1):
            raise ValueError(
                f"quarantine_fraction must be in (0, 1], got {self.quarantine_fraction!r}"
            )
        if not (0 < self.coverage_floor <= 1):
            raise ValueError(f"coverage_floor must be in (0, 1], got {self.coverage_floor!r}")
        _check_budget("max_wall_seconds", self.max_wall_seconds)
        _check_budget("max_sim_seconds", self.max_sim_seconds)
        if self.max_repetitions is not None:
            _check_int("max_repetitions", self.max_repetitions, 1)

    def retry_policy(self) -> RetryPolicy:
        """The per-unit timeout/retry discipline (raises on bad values)."""
        return RetryPolicy(
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
            mad_threshold=self.mad_threshold,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "probe_nbytes": self.probe_nbytes,
            "reps": self.reps,
            "seed": self.seed,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "mad_threshold": self.mad_threshold,
            "physical_tol": self.physical_tol,
            "quarantine_fraction": self.quarantine_fraction,
            "coverage_floor": self.coverage_floor,
            "checkpoint_every": self.checkpoint_every,
            "retry_passes": self.retry_passes,
            "breaker": self.breaker.to_dict(),
            "max_wall_seconds": self.max_wall_seconds,
            "max_sim_seconds": self.max_sim_seconds,
            "max_repetitions": self.max_repetitions,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CampaignConfig":
        doc = dict(doc)
        breaker = BreakerPolicy.from_dict(doc.pop("breaker"))
        return cls(breaker=breaker, **doc)


# -- identity: what cluster, what schedule --------------------------------------
def cluster_fingerprint(engine: ExperimentEngine) -> str:
    """Digest of the measured hardware: node count + ground-truth matrices.

    Identical for two engines built from the same spec and seed, different
    as soon as any LMO parameter differs — which is exactly the "same
    cluster?" question resume must answer.  Engines without an accessible
    ground truth hash the node count alone.
    """
    gt = getattr(engine, "ground_truth", None)
    if gt is None:
        gt = getattr(getattr(engine, "cluster", None), "ground_truth", None)
    digest = hashlib.sha256()
    digest.update(f"n={engine.n}".encode())
    if gt is not None:
        for name in ("C", "t", "L", "beta"):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(getattr(gt, name), dtype=float).tobytes())
    return digest.hexdigest()[:16]


def _experiment_to_dict(exp: Experiment) -> dict[str, Any]:
    return {
        "kind": exp.kind,
        "nodes": list(exp.nodes),
        "send_nbytes": exp.send_nbytes,
        "reply_nbytes": exp.reply_nbytes,
        "count": exp.count,
    }


def _schedule_hash(experiments: Sequence[Experiment], config: CampaignConfig) -> str:
    payload = json.dumps(
        {
            "experiments": [_experiment_to_dict(exp) for exp in experiments],
            "probe_nbytes": config.probe_nbytes,
            "reps": config.reps,
            "seed": config.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _header_schedule(
    header: dict[str, Any], config: CampaignConfig
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], list[Experiment]]:
    """``(pairs, base_triplets, experiments)`` of a journal header."""
    triplets = header.get("triplets")
    return build_schedule(
        int(header["n"]), config.probe_nbytes,
        [tuple(t) for t in triplets] if triplets is not None else None,
    )


def _journal_header(
    engine: ExperimentEngine,
    config: CampaignConfig,
    experiments: Sequence[Experiment],
    triplets: Optional[Sequence[tuple[int, int, int]]],
) -> dict[str, Any]:
    """What a fresh campaign journal starts with: which cluster, which
    schedule, which config — everything resume checks and rebuilds from."""
    return {
        "fingerprint": cluster_fingerprint(engine),
        "schedule_hash": _schedule_hash(experiments, config),
        "n": engine.n,
        "total_experiments": len(experiments),
        "triplets": [list(t) for t in triplets] if triplets is not None else None,
        "config": config.to_dict(),
    }


def _with_budgets(
    config: CampaignConfig,
    max_wall_seconds: Optional[float],
    max_sim_seconds: Optional[float],
    max_repetitions: Optional[int],
) -> CampaignConfig:
    """``config`` with each given budget replacing its journaled cap — a
    campaign stopped on a budget needs a bigger one to finish."""
    caps = {
        "max_wall_seconds": max_wall_seconds,
        "max_sim_seconds": max_sim_seconds,
        "max_repetitions": max_repetitions,
    }
    return replace(config, **{name: cap for name, cap in caps.items() if cap is not None})


def _budget_exceeded(config: CampaignConfig, spent: Any) -> Optional[str]:
    """The stop reason of the first budget ``spent`` has reached, or None.

    ``spent`` has ``repetitions``, ``sim_time`` and ``wall_time``: a
    campaign's replayed state, or the parallel coordinator's totals."""
    if config.max_sim_seconds is not None and spent.sim_time >= config.max_sim_seconds:
        return "budget_sim"
    if config.max_repetitions is not None and spent.repetitions >= config.max_repetitions:
        return "budget_repetitions"
    if config.max_wall_seconds is not None and spent.wall_time >= config.max_wall_seconds:
        return "budget_wall"
    return None


def _triplet_experiments(
    triple: tuple[int, int, int], probe_nbytes: int
) -> list[Experiment]:
    """The eight measurements eq. (8)/(11) need for one unordered triplet."""
    i, j, k = triple
    exps: list[Experiment] = []
    for a, b in combinations(triple, 2):
        exps.append(roundtrip(a, b, 0))
        exps.append(roundtrip(a, b, probe_nbytes))
    for root, x, y in ((i, j, k), (j, i, k), (k, i, j)):
        exps.append(one_to_two(root, x, y, 0, 0))
        exps.append(one_to_two(root, x, y, probe_nbytes, 0))
    return exps


def _unit_seed(campaign_seed: int, index: int) -> int:
    """The measurement seed of unit ``index`` — a pure function of the
    campaign seed and the unit's position, never of execution history.
    This is what makes crash-resume bit-identical to an uninterrupted run."""
    return int(np.random.SeedSequence([campaign_seed, index]).generate_state(1)[0])


def _reseed_engine(engine: ExperimentEngine, seed: int) -> None:
    """Point the engine's randomness at ``seed`` (best effort, engine-shaped)."""
    cluster = getattr(engine, "cluster", None)
    if cluster is not None and hasattr(cluster, "reseed"):
        cluster.reseed(seed)
        return
    if hasattr(engine, "rng"):
        engine.rng = np.random.default_rng(seed)  # type: ignore[attr-defined]


# -- results --------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignResult:
    """What a campaign run (or resume) produced, model plus honesty report."""

    #: The assembled :class:`~repro.models.lmo_extended.ExtendedLMOModel`,
    #: or None when the campaign stopped on a budget (resume to continue)
    #: or no triplet was fully measured.
    model: Optional[object]
    n: int
    total_experiments: int
    completed: int
    failed: int
    skipped: int
    #: Fraction of scheduled experiments with a clean measurement.
    coverage: float
    coverage_floor: float
    #: True when every scheduled experiment was measured and nothing was
    #: quarantined — False is not an error, it is an honest answer.
    degraded: bool
    quarantined: tuple[int, ...]
    solved_triplets: int
    total_triplets: int
    rejected_triplets: int
    #: "complete" | "budget_wall" | "budget_sim" | "budget_repetitions"
    stopped: str
    resumable: bool
    estimation_time: float
    wall_time: float
    repetitions: int
    breakers: dict[str, Any]
    journal_path: str

    @property
    def coverage_ok(self) -> bool:
        return self.coverage >= self.coverage_floor

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "total_experiments": self.total_experiments,
            "completed": self.completed,
            "failed": self.failed,
            "skipped": self.skipped,
            "coverage": self.coverage,
            "coverage_floor": self.coverage_floor,
            "coverage_ok": self.coverage_ok,
            "degraded": self.degraded,
            "quarantined": list(self.quarantined),
            "solved_triplets": self.solved_triplets,
            "total_triplets": self.total_triplets,
            "rejected_triplets": self.rejected_triplets,
            "stopped": self.stopped,
            "resumable": self.resumable,
            "estimation_time": self.estimation_time,
            "wall_time": self.wall_time,
            "repetitions": self.repetitions,
            "breakers": self.breakers,
            "journal_path": self.journal_path,
        }

    def summary(self) -> str:
        lines = [
            f"campaign {self.stopped}: {self.completed}/{self.total_experiments} "
            f"experiments measured (coverage {self.coverage:.1%}, "
            f"floor {self.coverage_floor:.0%})",
            f"triplets solved: {self.solved_triplets}/{self.total_triplets} "
            f"({self.rejected_triplets} rejected as unphysical)",
            f"cost: {self.estimation_time:.2f} s cluster time, "
            f"{self.repetitions} repetitions, {self.wall_time:.2f} s wall",
        ]
        if self.quarantined:
            lines.append(f"quarantined nodes: {list(self.quarantined)}")
        if self.failed or self.skipped:
            lines.append(
                f"unmeasured: {self.failed} failed, {self.skipped} rerouted "
                "around open breakers"
            )
        counts = self.breakers.get("counts", {})
        if counts.get("open") or counts.get("half_open"):
            lines.append(
                f"breakers: {counts.get('open', 0)} open, "
                f"{counts.get('half_open', 0)} half-open"
            )
        if self.resumable:
            lines.append(f"resumable journal: {self.journal_path}")
        if self.degraded:
            lines.append("DEGRADED result — treat coverage report as part of the model")
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignStatus:
    """A journal's state, readable without a cluster attached."""

    journal_path: str
    n: int
    total_experiments: int
    completed: int
    failed: int
    skipped: int
    in_flight: tuple[int, ...]
    repetitions: int
    estimation_time: float
    wall_time: float
    complete: bool
    stopped_reason: Optional[str]
    truncated_tail: bool
    #: Fraction of scheduled experiments with a journaled measurement.
    coverage: float = 0.0
    #: Nodes whose breakers the replayed outcome sequence leaves OPEN.
    quarantined: tuple[int, ...] = ()
    #: Triplets whose full eight-experiment set is already measured.
    solved_triplets: int = 0
    total_triplets: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "journal_path": self.journal_path,
            "n": self.n,
            "total_experiments": self.total_experiments,
            "completed": self.completed,
            "failed": self.failed,
            "skipped": self.skipped,
            "in_flight": list(self.in_flight),
            "repetitions": self.repetitions,
            "estimation_time": self.estimation_time,
            "wall_time": self.wall_time,
            "complete": self.complete,
            "stopped_reason": self.stopped_reason,
            "truncated_tail": self.truncated_tail,
            "coverage": self.coverage,
            "quarantined": list(self.quarantined),
            "solved_triplets": self.solved_triplets,
            "total_triplets": self.total_triplets,
        }

    def summary(self) -> str:
        state = "complete" if self.complete else "resumable"
        lines = [
            f"campaign journal {self.journal_path} ({state}): "
            f"{self.completed}/{self.total_experiments} experiments done "
            f"on {self.n} nodes",
            f"cost so far: {self.estimation_time:.2f} s cluster time, "
            f"{self.wall_time:.2f} s wall clock, {self.repetitions} repetitions",
            f"coverage {self.coverage:.1%}; triplets solvable: "
            f"{self.solved_triplets}/{self.total_triplets}",
        ]
        if self.quarantined:
            lines.append(f"quarantined nodes (open breakers): {list(self.quarantined)}")
        if self.failed:
            lines.append(f"failed experiments: {self.failed}")
        if self.in_flight:
            lines.append(
                f"in-flight at crash (will be re-queued): {list(self.in_flight)}"
            )
        if self.stopped_reason and not self.complete:
            lines.append(f"last stop reason: {self.stopped_reason}")
        if self.truncated_tail:
            lines.append("journal ends in a torn record (crash mid-append); "
                         "the partial line will be ignored on resume")
        return "\n".join(lines)


# -- replayed state -------------------------------------------------------------
@dataclass
class _ReplayedState:
    completed: dict[int, float] = field(default_factory=dict)
    last_outcome: dict[int, str] = field(default_factory=dict)
    events: list[tuple[str, int]] = field(default_factory=list)
    in_flight: list[int] = field(default_factory=list)
    repetitions: int = 0
    sim_time: float = 0.0
    wall_time: float = 0.0
    complete: bool = False
    stop_reason: Optional[str] = None

    @property
    def failed(self) -> int:
        return sum(
            1 for idx, out in self.last_outcome.items()
            if out == "failed" and idx not in self.completed
        )

    @property
    def skipped(self) -> int:
        return sum(
            1 for idx, out in self.last_outcome.items()
            if out == "skipped" and idx not in self.completed
        )


#: Unit-record fields excluded when deciding whether two records for the
#: same unit are the same measurement.  Wall clock is not deterministic
#: across processes or runs; ``sim_cost`` is a *delta* of the engine's
#: accumulated estimation time, so its trailing float bits depend on what
#: the measuring process ran beforehand.  The physics — ``samples``,
#: ``value``, ``attempts``, ``timeouts`` — is what unit determinism
#: guarantees, and is what identity compares.
_VOLATILE_RECORD_KEYS = ("wall_cost", "sim_cost")


def _record_identity(rec: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in rec.items() if k not in _VOLATILE_RECORD_KEYS}


def _replay_state(rep: JournalReplay, total: int) -> _ReplayedState:
    state = _ReplayedState()
    done_records: dict[int, dict[str, Any]] = {}
    for rec in rep.records:
        rtype = rec.get("type")
        if rtype in ("experiment_started", "experiment_done", "experiment_failed",
                     "experiment_skipped"):
            idx = rec.get("index")
            if not isinstance(idx, int) or not (0 <= idx < total):
                raise JournalCorruption(
                    f"{rep.path}: record references experiment index {idx!r} "
                    f"outside the schedule (0..{total - 1})"
                )
            if rtype == "experiment_started":
                if idx not in state.in_flight:
                    state.in_flight.append(idx)
                continue
            if idx in state.in_flight:
                state.in_flight.remove(idx)
            if rtype == "experiment_done":
                if idx in state.completed:
                    # Unit results are pure functions of (campaign seed,
                    # unit index), so an identical duplicate (up to wall
                    # clock) is a benign replay — keep the first record
                    # and skip the duplicate's accounting.  A *differing*
                    # payload cannot come from the same campaign.
                    if _record_identity(done_records[idx]) != _record_identity(rec):
                        raise JournalCorruption(
                            f"{rep.path}: conflicting experiment_done records "
                            f"for index {idx}; unit results are deterministic "
                            "— differing payloads mean this journal was "
                            "concatenated or hand-edited, restart the campaign"
                        )
                    warnings.warn(
                        f"{rep.path}: duplicate experiment_done for index "
                        f"{idx} (identical payload); keeping the first record",
                        stacklevel=2,
                    )
                    continue
                done_records[idx] = rec
                state.completed[idx] = float(rec["value"])
                state.events.append(("done", idx))
                state.last_outcome[idx] = "done"
            elif rtype == "experiment_failed":
                state.events.append(("failed", idx))
                state.last_outcome[idx] = "failed"
            else:
                state.events.append(("skipped", idx))
                state.last_outcome[idx] = "skipped"
            state.repetitions += int(rec.get("attempts", 0))
            state.sim_time += float(rec.get("sim_cost", 0.0))
            state.wall_time += float(rec.get("wall_cost", 0.0))
        elif rtype == "checkpoint":
            state.stop_reason = rec.get("reason")
        elif rtype == "campaign_complete":
            state.complete = True
        elif rtype in ("breaker", "heal_cycle"):
            continue
        else:
            raise JournalCorruption(
                f"{rep.path}: unknown record type {rtype!r} "
                "(journal written by a newer build?)"
            )
    return state


def _rebuild_board(
    n: int,
    policy: BreakerPolicy,
    events: Sequence[tuple[str, int]],
    experiments: Sequence[Experiment],
) -> BreakerBoard:
    """Re-derive the breaker board by replaying unit outcomes in order.

    Applies the same calls the live run made (including the
    OPEN -> HALF_OPEN transition inside ``allows``), so a resumed
    campaign continues from the exact breaker state the crashed one had.
    Replay is history, not live breaker activity: telemetry is suppressed."""
    board = BreakerBoard(n, policy=policy)
    with _obs.suppressed():
        for kind, idx in events:
            nodes = experiments[idx].nodes
            board.allows(nodes)
            if kind == "done":
                board.record_success(nodes)
            elif kind == "failed":
                board.record_failure(nodes)
            board.advance()
    return board


def _stopped_result(
    reason: str,
    config: CampaignConfig,
    state: _ReplayedState,
    board: BreakerBoard,
    n: int,
    total: int,
    total_triplets: int,
    journal_path: str,
) -> CampaignResult:
    """The model-less, resumable result of a campaign stopped on a budget."""
    return CampaignResult(
        model=None,
        n=n,
        total_experiments=total,
        completed=len(state.completed),
        failed=state.failed,
        skipped=state.skipped,
        coverage=len(state.completed) / max(1, total),
        coverage_floor=config.coverage_floor,
        degraded=True,
        quarantined=tuple(board.open_nodes()),
        solved_triplets=0,
        total_triplets=total_triplets,
        rejected_triplets=0,
        stopped=reason,
        resumable=True,
        estimation_time=state.sim_time,
        wall_time=state.wall_time,
        repetitions=state.repetitions,
        breakers=board.to_dict(),
        journal_path=journal_path,
    )


# -- the campaign ----------------------------------------------------------------
class Campaign:
    """A durable pair+triplet estimation sweep over journaled units.

    Build one with :meth:`start` (fresh journal) or :meth:`resume`
    (continue an interrupted one), then call :meth:`run`.
    """

    def __init__(
        self,
        engine: ExperimentEngine,
        journal: CampaignJournal,
        config: CampaignConfig,
        pairs: list[tuple[int, int]],
        base_triplets: list[tuple[int, int, int]],
        experiments: list[Experiment],
        state: _ReplayedState,
        board: BreakerBoard,
    ) -> None:
        self.engine = engine
        self.journal = journal
        self.config = config
        self.pairs = pairs
        self.base_triplets = base_triplets
        self.experiments = experiments
        self.state = state
        self.board = board
        self.policy = config.retry_policy()
        self._units_since_checkpoint = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def start(
        cls,
        engine: ExperimentEngine,
        path: str,
        config: Optional[CampaignConfig] = None,
        triplets: Optional[Sequence[tuple[int, int, int]]] = None,
    ) -> "Campaign":
        """Create a fresh journal at ``path`` and a campaign over it."""
        config = config if config is not None else CampaignConfig()
        pairs, base_triplets, experiments = build_schedule(
            engine.n, config.probe_nbytes, triplets
        )
        journal = CampaignJournal.create(
            path, _journal_header(engine, config, experiments, triplets),
            fsync=config.fsync,
        )
        return cls(
            engine, journal, config, pairs, base_triplets, experiments,
            _ReplayedState(), BreakerBoard(engine.n, policy=config.breaker),
        )

    @classmethod
    def resume(
        cls,
        engine: ExperimentEngine,
        path: str,
        max_wall_seconds: Optional[float] = None,
        max_sim_seconds: Optional[float] = None,
        max_repetitions: Optional[int] = None,
    ) -> "Campaign":
        """Continue the campaign journaled at ``path``.

        Validates the cluster fingerprint and the schedule hash, replays
        the journal (skipping completed units, re-queuing in-flight
        ones), and rebuilds the breaker board.  The budget arguments,
        when given, *replace* the journaled caps — a campaign stopped on
        a budget needs a bigger one to finish.
        """
        rep = replay(path)
        header = rep.header
        config = _with_budgets(
            CampaignConfig.from_dict(header["config"]),
            max_wall_seconds, max_sim_seconds, max_repetitions,
        )
        pairs, base_triplets, experiments = _header_schedule(header, config)
        validate_fingerprint(header, cluster_fingerprint(engine), path)
        validate_schedule(header, _schedule_hash(experiments, config), path)
        state = _replay_state(rep, len(experiments))
        board = _rebuild_board(
            int(header["n"]), config.breaker, state.events, experiments
        )
        journal = CampaignJournal.open_append(path, fsync=config.fsync)
        return cls(
            engine, journal, config, pairs, base_triplets, experiments, state, board
        )

    # -- telemetry -----------------------------------------------------------
    def _flush_telemetry(self) -> None:
        """Publish campaign-level gauges (cold path: checkpoints and exits)."""
        tel = _obs.ACTIVE
        if tel is None:
            return
        state, cfg = self.state, self.config
        reg = tel.registry
        reg.gauge(
            "campaign_budget_wall_seconds_used", help="wall-clock budget consumed"
        ).set(state.wall_time)
        reg.gauge(
            "campaign_budget_sim_seconds_used", help="simulated-time budget consumed"
        ).set(state.sim_time)
        reg.gauge(
            "campaign_budget_repetitions_used", help="repetition budget consumed"
        ).set(float(state.repetitions))
        for name, limit in (
            ("campaign_budget_wall_seconds_limit", cfg.max_wall_seconds),
            ("campaign_budget_sim_seconds_limit", cfg.max_sim_seconds),
            ("campaign_budget_repetitions_limit", cfg.max_repetitions),
        ):
            if limit is not None:
                reg.gauge(name, help="configured budget cap").set(float(limit))
        for state_name, count in self.board.state_counts().items():
            reg.gauge(
                "breaker_nodes", help="nodes per breaker state", state=state_name
            ).set(float(count))
        reg.gauge(
            "campaign_coverage", help="fraction of scheduled experiments measured"
        ).set(len(state.completed) / max(1, len(self.experiments)))

    def _checkpoint(self, reason: str) -> None:
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.info(
                "campaign_checkpoint",
                reason=reason,
                completed=len(self.state.completed),
                repetitions=self.state.repetitions,
            )
            self._flush_telemetry()
        self.journal.append({
            "type": "checkpoint",
            "reason": reason,
            "completed": len(self.state.completed),
            "failed": self.state.failed,
            "skipped": self.state.skipped,
            "repetitions": self.state.repetitions,
            "sim_time": self.state.sim_time,
            "wall_time": self.state.wall_time,
        })
        self._units_since_checkpoint = 0

    # -- unit execution ------------------------------------------------------
    def _note_experiment(self) -> None:
        """Give a ProcessCrash fault its chance to kill us (tests/chaos)."""
        injector = getattr(getattr(self.engine, "cluster", None), "injector", None)
        if injector is not None and hasattr(injector, "note_experiment"):
            injector.note_experiment()

    def _process_unit(self, index: int) -> str:
        with _obs.span("campaign.unit", index=index):
            outcome = self._process_unit_inner(index)
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.counter(
                "campaign_units_total", help="campaign units by final outcome",
                outcome=outcome,
            ).inc()
        return outcome

    def _process_unit_inner(self, index: int) -> str:
        exp = self.experiments[index]
        state, config, journal = self.state, self.config, self.journal
        if not self.board.allows(exp.nodes):
            journal.append({
                "type": "experiment_skipped",
                "index": index,
                "open_nodes": self.board.open_nodes(),
            })
            state.events.append(("skipped", index))
            state.last_outcome[index] = "skipped"
            self.board.advance()
            return "skipped"

        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.counter(
                "campaign_units_started_total", help="campaign units started"
            ).inc()
        journal.append({
            "type": "experiment_started",
            "index": index,
            "experiment": _experiment_to_dict(exp),
        })
        _reseed_engine(self.engine, _unit_seed(config.seed, index))
        sim_start = self.engine.estimation_time
        wall_start = time.perf_counter()
        tally = _measure(self.engine, exp, self.policy, reps=config.reps)
        sim_cost = float(self.engine.estimation_time - sim_start)
        wall_cost = float(time.perf_counter() - wall_start)
        state.repetitions += tally.attempts
        state.sim_time += sim_cost
        state.wall_time += wall_cost
        if tel is not None:
            retries = tally.attempts - config.reps
            if retries > 0:
                tel.registry.counter(
                    "campaign_unit_retries_total",
                    help="backoff retry attempts beyond the scheduled reps",
                ).inc(retries)
            tel.registry.histogram(
                "campaign_unit_wall_seconds", help="wall-clock cost of one unit"
            ).observe(wall_cost)

        common = {
            "index": index,
            "attempts": tally.attempts,
            "timeouts": tally.timeouts,
            "deadlocks": tally.deadlocks,
            "sim_cost": sim_cost,
            "wall_cost": wall_cost,
        }
        if tally.samples:
            value = float(screened_mean(tally.samples, config.mad_threshold))
            journal.append({
                "type": "experiment_done",
                "samples": tally.samples,
                "value": value,
                **common,
            })
            state.completed[index] = value
            state.events.append(("done", index))
            state.last_outcome[index] = "done"
            self.board.record_success(exp.nodes)
            outcome = "done"
        else:
            journal.append({"type": "experiment_failed", **common})
            state.events.append(("failed", index))
            state.last_outcome[index] = "failed"
            before = set(self.board.open_nodes())
            self.board.record_failure(exp.nodes)
            for node in self.board.open_nodes():
                if node not in before:
                    journal.append({"type": "breaker", "node": node, "state": "open"})
            outcome = "failed"
        self.board.advance()
        self._units_since_checkpoint += 1
        if self._units_since_checkpoint >= config.checkpoint_every:
            self._checkpoint("periodic")
        self._note_experiment()
        return outcome

    # -- the sweep -----------------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute (or finish) the sweep; returns the assembled result.

        Stops *between* units when a budget trips, journaling a
        checkpoint and returning a model-less, resumable result.  A
        campaign whose journal already holds ``campaign_complete`` just
        re-assembles the final model from the journal — no measurement.
        """
        try:
            with _obs.span("campaign.run", n=self.engine.n,
                           total=len(self.experiments)):
                if self.state.complete:
                    return self._finalize(write_record=False)
                total = len(self.experiments)
                for pass_no in range(1 + self.config.retry_passes):
                    missing = [i for i in range(total) if i not in self.state.completed]
                    if not missing:
                        break
                    successes = 0
                    for index in missing:
                        reason = _budget_exceeded(self.config, self.state)
                        if reason is not None:
                            tel = _obs.ACTIVE
                            if tel is not None:
                                tel.events.warning(
                                    "campaign_budget_stop", reason=reason,
                                    completed=len(self.state.completed), total=total,
                                )
                            self._checkpoint(reason)  # flushes the gauges too
                            return _stopped_result(
                                reason, self.config, self.state, self.board,
                                self.engine.n, total, len(self.base_triplets),
                                self.journal.path,
                            )
                        if self._process_unit(index) == "done":
                            successes += 1
                    if successes == 0:
                        break
                return self._finalize(write_record=True)
        finally:
            self.journal.close()

    def _finalize(self, write_record: bool) -> CampaignResult:
        self._flush_telemetry()
        state, config = self.state, self.config
        total = len(self.experiments)
        measured = {
            self.experiments[idx]: value for idx, value in state.completed.items()
        }
        solvable = [
            triple
            for triple in self.base_triplets
            if all(exp in measured
                   for exp in _triplet_experiments(triple, config.probe_nbytes))
        ]
        open_nodes = self.board.open_nodes()
        if solvable:
            assembly = solve_and_assemble(
                measured,
                self.engine.n,
                solvable,
                self.pairs,
                config.probe_nbytes,
                mad_threshold=config.mad_threshold,
                physical_tol=config.physical_tol,
                quarantine_fraction=config.quarantine_fraction,
                extra_quarantined=open_nodes,
            )
            model: Optional[object] = assembly.model
            quarantined = tuple(assembly.quarantined)
            rejected = len(assembly.rejected_triplets)
        else:
            model = None
            quarantined = tuple(sorted(open_nodes))
            rejected = 0
        coverage = len(state.completed) / total
        degraded = coverage < 1.0 or bool(quarantined) or model is None
        if write_record:
            self.journal.append({
                "type": "campaign_complete",
                "coverage": coverage,
                "degraded": degraded,
                "quarantined": list(quarantined),
                "solved_triplets": len(solvable),
            })
        return CampaignResult(
            model=model,
            n=self.engine.n,
            total_experiments=total,
            completed=len(state.completed),
            failed=state.failed,
            skipped=state.skipped,
            coverage=coverage,
            coverage_floor=config.coverage_floor,
            degraded=degraded,
            quarantined=quarantined,
            solved_triplets=len(solvable),
            total_triplets=len(self.base_triplets),
            rejected_triplets=rejected,
            stopped="complete",
            resumable=False,
            estimation_time=state.sim_time,
            wall_time=state.wall_time,
            repetitions=state.repetitions,
            breakers=self.board.to_dict(),
            journal_path=self.journal.path,
        )


def _status(
    path: str, header: dict[str, Any], state: _ReplayedState, truncated_tail: bool
) -> CampaignStatus:
    """The :class:`CampaignStatus` of the unit outcomes in ``state``.

    The schedule is rebuilt from the header's config (so triplet
    solvability can be checked against completed indices) and the
    breaker board is replayed from the outcome sequence (so
    "quarantined" means exactly what a resume would see).  Headers that
    predate the config field give counts only.
    """
    total = int(header.get("total_experiments", 0))
    quarantined: tuple[int, ...] = ()
    solved = total_triplets = 0
    if header.get("config") is not None:
        config = CampaignConfig.from_dict(header["config"])
        _, base_triplets, experiments = _header_schedule(header, config)
        board = _rebuild_board(int(header["n"]), config.breaker, state.events, experiments)
        quarantined = tuple(board.open_nodes())
        exp_index = {exp: idx for idx, exp in enumerate(experiments)}
        total_triplets = len(base_triplets)
        solved = sum(
            1 for triple in base_triplets
            if all(exp_index[exp] in state.completed
                   for exp in _triplet_experiments(triple, config.probe_nbytes))
        )
    return CampaignStatus(
        journal_path=path,
        n=int(header.get("n", 0)),
        total_experiments=total,
        completed=len(state.completed),
        failed=state.failed,
        skipped=state.skipped,
        in_flight=tuple(state.in_flight),
        repetitions=state.repetitions,
        estimation_time=state.sim_time,
        wall_time=state.wall_time,
        complete=state.complete,
        stopped_reason=state.stop_reason,
        truncated_tail=truncated_tail,
        coverage=len(state.completed) / total if total else 0.0,
        quarantined=quarantined,
        solved_triplets=solved,
        total_triplets=total_triplets,
    )


def campaign_status(path: str) -> CampaignStatus:
    """Inspect a journal without touching any cluster.

    Everything is re-derived from the journal alone (:func:`_status`).
    A parallel campaign whose shards are not merged yet is reported by
    folding its worker journals instead
    (:func:`repro.estimation.parallel.parallel_status`).
    """
    from repro.estimation.parallel import parallel_status, unmerged_shard_set

    if unmerged_shard_set(path):
        return parallel_status(path)
    rep = replay(path)
    state = _replay_state(rep, int(rep.header.get("total_experiments", 0)))
    return _status(path, rep.header, state, bool(rep.truncated_tail))
