"""Parallel campaign executor: a process pool over node-locality groups,
per-worker journals, deterministic journal merge.

The estimation sweep (paper eqs. 6-12) is a set of *independent* units —
pair roundtrips and triplet one-to-two experiments — each of which draws
its measurement noise from a seed derived purely from ``(campaign seed,
unit index)`` (:func:`repro.estimation.campaign._unit_seed`).  That
purity is what PR 3's crash-resume determinism rests on, and it is also
what makes the sweep parallelizable without losing it: *which process*
measures a unit, and *when*, cannot change its value.

This module runs the sweep on a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping every
durability property of the serial path:

* the **coordinator** shards units into node-locality groups (the units
  of one pair or one triplet stay together — mirroring the logical-
  cluster decomposition of Estefanel & Mounié) and submits one task per
  group;
* each pool **worker** builds its engine once from a picklable
  :class:`EngineRecipe`, opens its own write-ahead journal
  (:mod:`repro.estimation.journal`, unchanged — torn tails included),
  and runs every task's units through the *same*
  :class:`~repro.estimation.campaign.Campaign` unit executor the serial
  path uses;
* the coordinator watches **progress**: a pool that breaks (a worker
  process died) or lands nothing for :data:`PROGRESS_DEADLINE` seconds
  (a hung worker) is killed.  The worker journals say which units
  landed; the rest go to a fresh pool if the lost one landed at least
  one unit, and are otherwise left to the serial finish below;
* a deterministic **merge** step orders the per-worker journals back
  into canonical unit order, deduplicates double-measured units (their
  payloads are bit-identical by construction; differing payloads are
  corruption), and writes a canonical journal at the campaign path that
  replays exactly like a serial run's.  The final model, coverage
  report and breaker board are then *re-derived from that journal* by
  the serial replay path, which also measures any unit the fleet never
  landed, so the merged result is bit-identical to an uninterrupted
  serial run with the same seed — by construction, not by bookkeeping.

Crash-resume works on the sharded set: if the coordinator dies, the
coordinator journal plus the per-worker journals are enough for
:meth:`ParallelCampaign.resume` (``repro campaign resume --workers N``)
to fold what was measured and finish the rest with a fresh pool.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import queue as _queue
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Container, Optional, Sequence

from repro.cluster.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.cluster.machine import SimulatedCluster
from repro.estimation.breakers import BreakerBoard
from repro.estimation.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    CampaignStatus,
    _build_schedule,
    _experiment_to_dict,
    _rebuild_board,
    _record_identity,
    _ReplayedState,
    _schedule_hash,
    _triplet_experiments,
    cluster_fingerprint,
)
from repro.estimation.engines import AnalyticEngine, DESEngine, ExperimentEngine
from repro.estimation.journal import (
    CampaignJournal,
    JournalCorruption,
    JournalError,
    replay,
    validate_fingerprint,
    validate_schedule,
)
from repro.io import atomic_write_text
from repro.obs import runtime as _obs
from repro.obs import trace as _trace

__all__ = [
    "AnalyticEngineRecipe",
    "ChaosKill",
    "DESEngineRecipe",
    "EngineRecipe",
    "ParallelCampaign",
    "ParallelConfig",
    "coordinator_path",
    "merge_worker_journals",
    "parallel_shards_exist",
    "parallel_status",
    "recipe_for_cluster",
    "worker_journal_paths",
]

#: Exit code a chaos-killed worker dies with (distinguishable in tests).
CHAOS_EXIT_CODE = 137

#: Seconds a pool may go without landing a unit before it is killed as hung.
PROGRESS_DEADLINE = 30.0

_UNIT_RECORD_TYPES = ("experiment_done", "experiment_failed", "experiment_skipped")

#: What a pool task reports per unit: ``(index, outcome, cost)``.
_UnitResult = tuple[int, str, dict[str, float]]

#: How a pool can be lost (the ``reason`` of ``worker_dead`` records).
_POOL_FAILURES = ("worker_died", "progress_deadline")


# -- engine recipes --------------------------------------------------------------
class EngineRecipe:
    """A picklable recipe for rebuilding an engine inside a worker process.

    Engines carry live simulator state (event heaps, generator frames)
    that must not cross a process boundary; recipes carry only the frozen
    inputs — spec, ground truth, profile, noise, fault plan — and rebuild
    a fresh engine per process.  Because every campaign unit reseeds the
    engine from ``(campaign seed, unit index)`` before measuring, a
    freshly built engine produces bit-identical measurements to any other
    engine built from the same recipe.
    """

    def build(self) -> ExperimentEngine:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class DESEngineRecipe(EngineRecipe):
    """Rebuild a :class:`~repro.estimation.engines.DESEngine`."""

    spec: Any
    ground_truth: Any
    profile: Any
    noise: Any
    seed: int = 0
    plan: Optional[FaultPlan] = None

    def build(self) -> DESEngine:
        cluster = SimulatedCluster(
            self.spec,
            ground_truth=self.ground_truth,
            profile=self.profile,
            noise=self.noise,
            seed=self.seed,
        )
        if self.plan is not None and len(self.plan):
            cluster.attach_injector(FaultInjector(self.plan))
        return DESEngine(cluster)


@dataclass(frozen=True)
class AnalyticEngineRecipe(EngineRecipe):
    """Rebuild an :class:`~repro.estimation.engines.AnalyticEngine`."""

    ground_truth: Any
    noise: Any = None
    seed: int = 0

    def build(self) -> AnalyticEngine:
        return AnalyticEngine(self.ground_truth, noise=self.noise, seed=self.seed)


def recipe_for_cluster(cluster: SimulatedCluster) -> DESEngineRecipe:
    """The recipe that rebuilds ``DESEngine(cluster)`` in a worker.

    The cluster's live state (simulator, RNG position) is deliberately
    *not* captured: campaign units reseed per unit, so only the frozen
    identity — spec, ground truth, profile, noise, fault plan — matters.
    """
    injector = getattr(cluster, "injector", None)
    plan = injector.plan if injector is not None else None
    return DESEngineRecipe(
        spec=cluster.spec,
        ground_truth=cluster.ground_truth,
        profile=cluster.profile,
        noise=cluster.noise,
        plan=plan,
    )


# -- configuration ---------------------------------------------------------------
@dataclass(frozen=True)
class ChaosKill:
    """Test-only chaos: worker ``worker`` dies mid-unit after ``after_units``.

    The worker journals ``experiment_started`` for its next unit (plus an
    optional torn half-record) and then ``os._exit``\\ s — the hardest
    crash shape the merge and resume paths must survive.  Worker ids
    count up across every pool of a campaign, in the order the workers
    start.
    """

    worker: int
    after_units: int
    torn_tail: bool = False

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if self.after_units < 0:
            raise ValueError(f"after_units must be >= 0, got {self.after_units}")


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the parallel executor itself.  The campaign's measurement
    discipline lives in :class:`~repro.estimation.campaign.CampaignConfig`
    and is shared verbatim with every worker."""

    workers: int = 2
    #: Test-only chaos: kill specific workers mid-unit.
    chaos_kills: tuple[ChaosKill, ...] = ()
    #: Test-only chaos: the *coordinator* dies (SimulatedCrash) after this
    #: many unit completions reach it, leaving the sharded set behind.
    chaos_coordinator_crash_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "chaos_kills", tuple(self.chaos_kills))
        if (
            self.chaos_coordinator_crash_after is not None
            and self.chaos_coordinator_crash_after < 1
        ):
            raise ValueError("chaos_coordinator_crash_after must be >= 1")


# -- journal layout --------------------------------------------------------------
def coordinator_path(path: str) -> str:
    """The coordinator's supervision journal for campaign ``path``."""
    return path + ".coord"


def _worker_journals(path: str) -> list[tuple[int, str]]:
    prefix = path + ".w"
    found = []
    for candidate in _glob.glob(_glob.escape(prefix) + "*"):
        suffix = candidate[len(prefix):]
        if suffix.isdigit():
            found.append((int(suffix), candidate))
    return sorted(found)


def worker_journal_paths(path: str) -> list[str]:
    """Every per-worker journal of campaign ``path``, in worker-id order."""
    return [candidate for _id, candidate in _worker_journals(path)]


def parallel_shards_exist(path: str) -> bool:
    """True when ``path`` has a parallel shard set on disk (a coordinator
    journal, with or without worker journals yet)."""
    return os.path.exists(coordinator_path(path))


def _shard_groups(experiments: Sequence[Any]) -> list[list[int]]:
    """Shard the schedule into unit groups by node locality.

    The two roundtrips of a pair, and the six rooted one-to-two probes of
    a triplet, land in one group — the same locality the logical-cluster
    decomposition gives — and the group is one pool task.  Every
    experiment index appears in exactly one group; groups and their
    members preserve canonical unit order.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, exp in enumerate(experiments):
        groups.setdefault(tuple(sorted(exp.nodes)), []).append(index)
    return list(groups.values())


def _without(groups: list[list[int]], units: Container[int]) -> list[list[int]]:
    """``groups`` minus ``units``, dropping groups left empty."""
    kept = ([idx for idx in group if idx not in units] for group in groups)
    return [group for group in kept if group]


def _header_schedule(
    header: dict[str, Any], config: CampaignConfig
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], list[Any]]:
    """``(pairs, base_triplets, experiments)`` of a journal header."""
    triplets = header.get("triplets")
    return _build_schedule(
        int(header["n"]), config.probe_nbytes,
        [tuple(t) for t in triplets] if triplets is not None else None,
    )


# -- the pool worker -------------------------------------------------------------
@dataclass
class _Worker:
    """What the pool initializer builds once per worker process."""

    worker_id: int
    runner: Campaign
    chaos: Optional[ChaosKill]
    units_done: int = 0


#: This process's worker state; set by :func:`_init_worker` in pool workers.
_WORKER: Optional[_Worker] = None


def _init_worker(
    recipe: EngineRecipe,
    path: str,
    header: dict[str, Any],
    config_doc: dict[str, Any],
    next_id: Any,
    chaos_kills: tuple[ChaosKill, ...],
) -> None:
    """Pool initializer: claim a worker id, build the engine, open ``path.wK``.

    Units run through the serial :class:`Campaign` unit executor — the
    same measurement, journaling and screening code path — against the
    worker's own write-ahead journal and a worker-local breaker board.
    Telemetry is disabled in the worker: the coordinator owns the
    campaign's metrics, and the worker journals are the durable truth.
    """
    global _WORKER
    _obs.disable()
    with next_id.get_lock():
        worker_id = int(next_id.value)
        next_id.value = worker_id + 1
    config = CampaignConfig.from_dict(config_doc)
    n = int(header["n"])
    pairs, base_triplets, experiments = _header_schedule(header, config)
    journal = CampaignJournal.create(
        f"{path}.w{worker_id}", {**header, "worker": worker_id}, fsync=config.fsync
    )
    runner = Campaign(
        recipe.build(), journal, config, pairs, base_triplets, experiments,
        _ReplayedState(), BreakerBoard(n, policy=config.breaker),
    )
    chaos = next((c for c in chaos_kills if c.worker == worker_id), None)
    _WORKER = _Worker(worker_id, runner, chaos)


def _run_group(indices: list[int]) -> tuple[int, list[_UnitResult]]:
    """Pool task: measure one unit group in this worker.

    Returns the worker id and, per unit, ``(index, outcome, cost)``.
    """
    worker = _WORKER
    assert worker is not None, "_run_group runs in initialized pool workers"
    runner = worker.runner
    state = runner.state
    results: list[_UnitResult] = []
    for index in indices:
        chaos = worker.chaos
        if chaos is not None and worker.units_done >= chaos.after_units:
            # Die mid-unit: the intent record is durably journaled, the
            # outcome never lands — exactly an OOM kill between
            # write-ahead and completion.
            runner.journal.append({
                "type": "experiment_started",
                "index": index,
                "experiment": _experiment_to_dict(runner.experiments[index]),
            })
            if chaos.torn_tail:
                with open(runner.journal.path, "a") as handle:
                    handle.write('{"type": "experiment_done", "ind')
            os._exit(CHAOS_EXIT_CODE)
        before = (state.repetitions, state.sim_time, state.wall_time)
        try:
            outcome = runner._process_unit(index)
        except SimulatedCrash:
            # A ProcessCrash fault plan in the worker's recipe fired: die
            # the way a real OOM-killed worker would, journal intact.
            os._exit(CHAOS_EXIT_CODE)
        worker.units_done += 1
        results.append((index, outcome, {
            "attempts": state.repetitions - before[0],
            "sim_cost": state.sim_time - before[1],
            "wall_cost": state.wall_time - before[2],
        }))
    return worker.worker_id, results


def _kill_workers(pool: Any) -> None:
    """SIGKILL every worker of ``pool``; the executor then breaks itself."""
    for process in list((pool._processes or {}).values()):
        process.kill()


# -- merge -----------------------------------------------------------------------
@dataclass
class _MergedUnits:
    """Per-unit outcome records folded across worker journals."""

    done: dict[int, dict[str, Any]] = field(default_factory=dict)
    failed: dict[int, dict[str, Any]] = field(default_factory=dict)
    skipped: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: Units with a journaled intent but no outcome (crash mid-unit).
    in_flight: set[int] = field(default_factory=set)
    duplicates: int = 0

    def outcome(self, index: int) -> Optional[str]:
        if index in self.done:
            return "done"
        if index in self.failed:
            return "failed"
        if index in self.skipped:
            return "skipped"
        return None


def _collect_worker_units(path: str, header: dict[str, Any]) -> _MergedUnits:
    """Fold every worker journal of ``path`` into per-unit outcomes.

    Worker journals are replayed with the standard torn-tail-tolerant
    replay; duplicate ``experiment_done`` records for the same unit are
    legal across journals (a unit re-measured after its worker was lost)
    *iff* their payloads are identical up to the volatile cost fields
    (wall clock, accumulated-time deltas) — determinism makes them so.
    A differing payload means two journals disagree about physics, which
    is corruption, not a race.
    """
    merged = _MergedUnits()
    for wpath in worker_journal_paths(path):
        try:
            rep = replay(wpath)
        except JournalCorruption:
            raise
        except JournalError:
            continue  # shard created-then-crashed before its header landed
        validate_fingerprint(rep.header, header["fingerprint"], wpath)
        validate_schedule(rep.header, header["schedule_hash"], wpath)
        started: set[int] = set()
        for rec in rep.records:
            rtype = rec.get("type")
            if rtype == "experiment_started":
                started.add(int(rec["index"]))
                continue
            if rtype not in _UNIT_RECORD_TYPES:
                continue
            index = int(rec["index"])
            started.discard(index)
            if rtype == "experiment_done":
                if index in merged.done:
                    if _record_identity(merged.done[index]) != _record_identity(rec):
                        raise JournalCorruption(
                            f"{wpath}: experiment_done for unit {index} "
                            "disagrees with another worker journal's record; "
                            "unit results are deterministic, so differing "
                            "payloads mean a journal was damaged or the "
                            "shards come from different campaigns"
                        )
                    merged.duplicates += 1
                else:
                    merged.done[index] = dict(rec)
            elif rtype == "experiment_failed":
                merged.failed.setdefault(index, dict(rec))
            else:
                merged.skipped.setdefault(index, dict(rec))
        merged.in_flight.update(started)
    merged.in_flight -= set(merged.done)
    return merged


def _merged_board(
    header: dict[str, Any], config: CampaignConfig, experiments: Sequence[Any],
    merged: _MergedUnits,
) -> BreakerBoard:
    """The breaker board the merged outcomes give in canonical unit order."""
    events = []
    for index in range(len(experiments)):
        outcome = merged.outcome(index)
        if outcome is not None:
            events.append((outcome, index))
    with _obs.suppressed():  # replay is history, not live breaker activity
        return _rebuild_board(int(header["n"]), config.breaker, events, experiments)


def merge_worker_journals(path: str) -> tuple[int, int]:
    """Deterministically merge ``path``'s worker journals into ``path``.

    Re-orders every *measured* unit into canonical (serial) unit order
    and writes the canonical journal atomically.  Worker-local skip
    records are dropped: a skip encodes one worker's breaker history,
    not physics, so those units are left missing for the serial
    assembly pass to re-decide against the canonical board.  The result
    replays exactly like a serial journal — same completed map, same
    outcome event sequence, same final assembly.

    Returns ``(units_merged, duplicates_dropped)``.
    """
    rep = replay(coordinator_path(path))
    header = rep.header
    with _obs.span("campaign.parallel.merge", path=path):
        merged = _collect_worker_units(path, header)
        config = CampaignConfig.from_dict(header["config"])
        _pairs, _base, experiments = _header_schedule(header, config)
        canonical_header = {
            k: v for k, v in header.items() if k not in ("role", "parallel")
        }
        canonical_header["merged_from_workers"] = len(worker_journal_paths(path))
        lines = [json.dumps(canonical_header)]
        units_merged = 0
        for index in range(len(experiments)):
            record = merged.done.get(index) or merged.failed.get(index)
            if record is None:
                continue
            lines.append(json.dumps({
                "type": "experiment_started",
                "index": index,
                "experiment": _experiment_to_dict(experiments[index]),
            }))
            lines.append(json.dumps(record))
            units_merged += 1
        atomic_write_text(path, "\n".join(lines) + "\n")
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.counter(
                "parallel_merge_units_total",
                help="units merged into the canonical journal",
            ).inc(units_merged)
            if merged.duplicates:
                tel.registry.counter(
                    "parallel_merge_duplicates_total",
                    help="double-measured units dropped at merge "
                         "(identical payloads)",
                ).inc(merged.duplicates)
        if merged.duplicates:
            warnings.warn(
                f"{path}: merge dropped {merged.duplicates} duplicate unit "
                "record(s) (re-measured after a worker was lost; payloads "
                "identical)",
                stacklevel=2,
            )
        return units_merged, merged.duplicates


# -- the parallel campaign -------------------------------------------------------
class ParallelCampaign:
    """Coordinator of a sharded campaign run on a process pool.

    Build with :meth:`start` (fresh shard set) or :meth:`resume`
    (continue one — after a budget stop, a coordinator crash, or any
    pattern of worker deaths), then call :meth:`run`.
    """

    def __init__(
        self,
        recipe: EngineRecipe,
        path: str,
        config: CampaignConfig,
        parallel: ParallelConfig,
        header: dict[str, Any],
        coord: CampaignJournal,
        done: dict[int, dict[str, Any]],
    ) -> None:
        self.recipe = recipe
        self.path = path
        self.config = config
        self.parallel = parallel
        self.header = header
        self.coord = coord
        self.pairs, self.base_triplets, self.experiments = _header_schedule(
            header, config
        )
        self.n = int(header["n"])
        #: Unit groups still to measure, one pool task each.
        self.pending = _without(_shard_groups(self.experiments), done)
        # Budget counters start from what prior runs already spent.
        self.repetitions = sum(int(r.get("attempts", 0)) for r in done.values())
        self.sim_time = sum(float(r.get("sim_cost", 0.0)) for r in done.values())
        self.wall_time = sum(float(r.get("wall_cost", 0.0)) for r in done.values())
        self._units_landed = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def start(
        cls,
        recipe: EngineRecipe,
        path: str,
        config: Optional[CampaignConfig] = None,
        parallel: Optional[ParallelConfig] = None,
        triplets: Optional[Sequence[tuple[int, int, int]]] = None,
    ) -> "ParallelCampaign":
        """Create a fresh shard set for campaign ``path``.

        Refuses to start over an existing canonical journal or shard set —
        resume those instead.
        """
        config = config if config is not None else CampaignConfig()
        parallel = parallel if parallel is not None else ParallelConfig()
        if os.path.exists(path):
            raise JournalError(
                f"journal already exists at {path}; resume it or pick a new path"
            )
        if parallel_shards_exist(path):
            raise JournalError(
                f"parallel shard set already exists for {path}; resume it "
                "or pick a new path"
            )
        engine = recipe.build()
        _pairs, _base, experiments = _build_schedule(
            engine.n, config.probe_nbytes, triplets
        )
        header = {
            "fingerprint": cluster_fingerprint(engine),
            "schedule_hash": _schedule_hash(experiments, config),
            "n": engine.n,
            "total_experiments": len(experiments),
            "triplets": [list(t) for t in triplets] if triplets is not None else None,
            "config": config.to_dict(),
        }
        # Stamp the active trace into the coordinator header; every
        # worker journal inherits it ({**header, "worker": id}), so all
        # shards of one campaign are greppable by a single trace id —
        # and resume preserves it (only role/parallel keys are stripped).
        ctx = _trace.current() or _trace.from_environ()
        if ctx is not None:
            header["trace_id"] = ctx.trace_id
        coord = CampaignJournal.create(
            coordinator_path(path),
            {**header, "role": "coordinator",
             "parallel": {"workers": parallel.workers}},
            fsync=config.fsync,
        )
        return cls(recipe, path, config, parallel, header, coord, {})

    @classmethod
    def resume(
        cls,
        recipe: EngineRecipe,
        path: str,
        parallel: Optional[ParallelConfig] = None,
        max_wall_seconds: Optional[float] = None,
        max_sim_seconds: Optional[float] = None,
        max_repetitions: Optional[int] = None,
    ) -> "ParallelCampaign":
        """Continue a sharded campaign from its coordinator + worker journals.

        Validates the cluster fingerprint, folds every worker journal's
        completed units (idempotently — double-measured units are
        deduplicated), and re-queues everything else for a fresh pool.
        The budget arguments, when given, *replace* the journaled caps,
        exactly as serial :meth:`Campaign.resume` does.
        """
        parallel = parallel if parallel is not None else ParallelConfig()
        coord_file = coordinator_path(path)
        rep = replay(coord_file)
        header = {
            k: v for k, v in rep.header.items()
            if k not in ("type", "schema_version", "role", "parallel")
        }
        config = CampaignConfig.from_dict(header["config"])
        overrides: dict[str, Any] = {}
        if max_wall_seconds is not None:
            overrides["max_wall_seconds"] = max_wall_seconds
        if max_sim_seconds is not None:
            overrides["max_sim_seconds"] = max_sim_seconds
        if max_repetitions is not None:
            overrides["max_repetitions"] = max_repetitions
        if overrides:
            doc = config.to_dict()
            doc.update(overrides)
            config = CampaignConfig.from_dict(doc)
            header["config"] = config.to_dict()
        engine = recipe.build()
        validate_fingerprint(header, cluster_fingerprint(engine), coord_file)
        merged = _collect_worker_units(path, header)
        coord = CampaignJournal.open_append(coord_file, fsync=config.fsync)
        coord.append({
            "type": "coordinator_resumed",
            "completed_units": len(merged.done),
            "worker_journals": len(worker_journal_paths(path)),
        })
        return cls(recipe, path, config, parallel, header, coord, merged.done)

    # -- telemetry -----------------------------------------------------------
    def _count(self, name: str, help_text: str, value: float = 1.0,
               **labels: str) -> None:
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.counter(name, help=help_text, **labels).inc(value)

    # -- the sweep -----------------------------------------------------------
    def _budget_exceeded(self) -> Optional[str]:
        cfg = self.config
        if cfg.max_sim_seconds is not None and self.sim_time >= cfg.max_sim_seconds:
            return "budget_sim"
        if (
            cfg.max_repetitions is not None
            and self.repetitions >= cfg.max_repetitions
        ):
            return "budget_repetitions"
        if cfg.max_wall_seconds is not None and self.wall_time >= cfg.max_wall_seconds:
            return "budget_wall"
        return None

    def run(self) -> CampaignResult:
        """Execute the sharded sweep, merge, and assemble the final result.

        On a budget stop the shard set is left resumable (no canonical
        journal yet; :meth:`resume` continues it).  On completion the
        merge writes the canonical journal at the campaign path and the
        result is re-derived from it by the serial replay-and-assemble
        path — bit-identical to an uninterrupted serial run.
        """
        wall_start = time.perf_counter()
        try:
            with _obs.span(
                "campaign.parallel.run", n=self.n,
                total=len(self.experiments), workers=self.parallel.workers,
            ):
                stopped = self._run_pools()
            if stopped is not None:
                merged = _collect_worker_units(self.path, self.header)
                tel = _obs.ACTIVE
                if tel is not None:
                    tel.events.warning(
                        "campaign_budget_stop", reason=stopped,
                        completed=len(merged.done), total=len(self.experiments),
                    )
                self.coord.append({
                    "type": "checkpoint", "reason": stopped,
                    "completed": len(merged.done),
                })
                return self._stopped_result(stopped, merged, wall_start)
            units_merged, duplicates = merge_worker_journals(self.path)
            self.coord.append({
                "type": "merge_complete",
                "units": units_merged,
                "duplicates": duplicates,
            })
            result = self._assemble(wall_start)
            self.coord.append({
                "type": "campaign_complete", "coverage": result.coverage,
            })
            return result
        finally:
            self.coord.close()

    def _run_pools(self) -> Optional[str]:
        """Measure the pending groups on process pools until none are left.

        Returns the budget that stopped the sweep, or None.  Every pool
        is shut down, its workers reaped, before this returns or raises.
        """
        import multiprocessing as mp
        from concurrent.futures.process import ProcessPoolExecutor

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        existing = _worker_journals(self.path)
        next_id = ctx.Value("i", existing[-1][0] + 1 if existing else 0)
        while self.pending:
            reason = self._budget_exceeded()
            if reason is not None:
                return reason
            first_id = next_id.value
            pool = ProcessPoolExecutor(
                max_workers=min(self.parallel.workers, len(self.pending)),
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self.recipe, self.path, self.header,
                          self.config.to_dict(), next_id,
                          self.parallel.chaos_kills),
            )
            graceful = False
            try:
                outcome = self._drain(pool)
                graceful = outcome not in _POOL_FAILURES
            finally:
                if not graceful:
                    _kill_workers(pool)
                pool.shutdown(wait=True, cancel_futures=True)
                self._count("parallel_workers_spawned_total",
                            "worker processes started",
                            float(next_id.value - first_id))
            if outcome not in _POOL_FAILURES:
                return outcome
            self._reclaim(outcome, list(range(first_id, next_id.value)))
        return None

    def _drain(self, pool: Any) -> Optional[str]:
        """Submit every pending group to ``pool`` and land the results.

        Returns None once every group landed, a budget-stop reason, or
        the way the pool was lost (``worker_died``: a worker process
        died and broke the pool; ``progress_deadline``: no group landed
        for :data:`PROGRESS_DEADLINE` seconds).  Exceptions raised by a
        task are re-raised here.
        """
        from concurrent.futures.process import BrokenProcessPool

        finished: _queue.SimpleQueue = _queue.SimpleQueue()
        futures = [pool.submit(_run_group, group) for group in self.pending]
        for future in futures:
            future.add_done_callback(finished.put)
        for _ in futures:
            try:
                future = finished.get(timeout=PROGRESS_DEADLINE)
            except _queue.Empty:
                return "progress_deadline"
            try:
                worker_id, results = future.result()
            except BrokenProcessPool:
                return "worker_died"
            self._land(worker_id, results)
            reason = self._budget_exceeded()
            if reason is not None:
                return reason
        self.pending = []
        return None

    def _land(self, worker_id: int, results: list[_UnitResult]) -> None:
        for _index, outcome, costs in results:
            self._units_landed += 1
            self.repetitions += int(costs["attempts"])
            self.sim_time += float(costs["sim_cost"])
            self.wall_time += float(costs["wall_cost"])
            self._count(
                "parallel_worker_units_total", "units executed per worker",
                outcome=outcome, worker=str(worker_id),
            )
            crash_after = self.parallel.chaos_coordinator_crash_after
            if crash_after is not None and self._units_landed >= crash_after:
                raise SimulatedCrash(
                    f"coordinator died after {self._units_landed} unit "
                    "completions (chaos_coordinator_crash_after)"
                )

    def _reclaim(self, reason: str, workers: list[int]) -> None:
        """Journal a lost pool and decide where its unlanded units go.

        The worker journals say which units landed, including any the
        pool finished but never reported.  The rest go to a fresh pool
        when this one landed at least one unit, so every restart makes
        progress; otherwise the fleet is exhausted and they are left to
        the serial assembly pass.
        """
        self.coord.append({"type": "worker_dead", "workers": workers, "reason": reason})
        self._count("parallel_workers_dead_total", "workers lost",
                    float(len(workers)), reason=reason)
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.warning("parallel_worker_dead", workers=workers, reason=reason)
        merged = _collect_worker_units(self.path, self.header)
        landed = merged.done.keys() | merged.failed.keys() | merged.skipped.keys()
        handed = sum(len(group) for group in self.pending)
        self.pending = _without(self.pending, landed)
        requeued = sorted(idx for group in self.pending for idx in group)
        if len(requeued) == handed:
            reason = "fleet_exhausted"
            self.pending = []
        self.coord.append({
            "type": "units_reclaimed", "reason": reason, "requeued": requeued,
            # No unit is quarantined; the key keeps the record's shape
            # for readers of the journal.
            "quarantined": [],
        })
        self._count(
            "parallel_units_reclaimed_total",
            "units a lost pool did not land, handed to a fresh pool or "
            "the serial finish",
            float(len(requeued)),
        )
        if tel is not None:
            tel.events.warning(
                "parallel_units_reclaimed", reason=reason, requeued=len(requeued),
            )

    # -- results -------------------------------------------------------------
    def _stopped_result(
        self, reason: str, merged: _MergedUnits, wall_start: float
    ) -> CampaignResult:
        records = list(merged.done.values()) + list(merged.failed.values())
        board = _merged_board(self.header, self.config, self.experiments, merged)
        return CampaignResult(
            model=None,
            n=self.n,
            total_experiments=len(self.experiments),
            completed=len(merged.done),
            failed=len(merged.failed),
            skipped=len(merged.skipped),
            coverage=len(merged.done) / max(1, len(self.experiments)),
            coverage_floor=self.config.coverage_floor,
            degraded=True,
            quarantined=tuple(board.open_nodes()),
            solved_triplets=0,
            total_triplets=len(self.base_triplets),
            rejected_triplets=0,
            stopped=reason,
            resumable=True,
            estimation_time=sum(float(r.get("sim_cost", 0.0)) for r in records),
            wall_time=time.perf_counter() - wall_start,
            repetitions=sum(int(r.get("attempts", 0)) for r in records),
            breakers=board.to_dict(),
            journal_path=self.path,
        )

    def _assemble(self, wall_start: float) -> CampaignResult:
        """Re-derive the final result from the canonical merged journal.

        This goes through the serial replay-resume-assemble path: a
        canonical journal with every unit measured re-measures nothing,
        and one with gaps (units a dying fleet never landed) finishes
        them serially against the canonical breaker board — the same
        passes an interrupted serial run would make on resume.  That is
        what makes the parallel result bit-identical to the serial one
        by construction rather than by careful bookkeeping.
        """
        engine = self.recipe.build()
        result = Campaign.resume(engine, self.path).run()
        # Report the fleet's real elapsed time, not the replay's.
        return replace(result, wall_time=time.perf_counter() - wall_start)


# -- status over a shard set -----------------------------------------------------
def parallel_status(path: str) -> CampaignStatus:
    """A :class:`CampaignStatus` computed from a sharded journal set.

    Folds every worker journal (idempotently, torn tails tolerated)
    without touching a cluster, exactly as
    :func:`repro.estimation.campaign.campaign_status` does for a serial
    journal.
    """
    rep = replay(coordinator_path(path))
    header = rep.header
    merged = _collect_worker_units(path, header)
    total = int(header.get("total_experiments", 0))
    records = list(merged.done.values()) + list(merged.failed.values())
    stop_reason = None
    complete = False
    for record in rep.records:
        if record.get("type") == "checkpoint":
            stop_reason = record.get("reason")
        elif record.get("type") == "campaign_complete":
            complete = True
    solved = total_triplets = 0
    quarantined: tuple[int, ...] = ()
    header_config = header.get("config")
    if header_config is not None:
        config = CampaignConfig.from_dict(header_config)
        _pairs, base_triplets, experiments = _header_schedule(header, config)
        exp_index = {exp: idx for idx, exp in enumerate(experiments)}
        total_triplets = len(base_triplets)
        solved = sum(
            1 for triple in base_triplets
            if all(exp_index[exp] in merged.done
                   for exp in _triplet_experiments(triple, config.probe_nbytes))
        )
        board = _merged_board(header, config, experiments, merged)
        quarantined = tuple(board.open_nodes())
    return CampaignStatus(
        journal_path=path,
        n=int(header.get("n", 0)),
        total_experiments=total,
        completed=len(merged.done),
        failed=len(merged.failed),
        skipped=len(merged.skipped),
        in_flight=tuple(sorted(merged.in_flight)),
        repetitions=sum(int(r.get("attempts", 0)) for r in records),
        estimation_time=sum(float(r.get("sim_cost", 0.0)) for r in records),
        wall_time=sum(float(r.get("wall_cost", 0.0)) for r in records),
        complete=complete,
        stopped_reason=stop_reason,
        truncated_tail=False,
        coverage=len(merged.done) / total if total else 0.0,
        quarantined=quarantined,
        solved_triplets=solved,
        total_triplets=total_triplets,
    )
