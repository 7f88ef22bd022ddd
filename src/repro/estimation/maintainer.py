"""Self-healing model maintenance: estimate, monitor, repair, repeat.

The paper frames LMO estimation as something done *at runtime*, which
only makes sense if the model stays cheap to keep current.  A full
re-estimation costs ``2 C(n,2) + 6 C(n,3)`` experiments; re-running it on
a schedule defeats the purpose.  :class:`ModelMaintainer` closes the loop
at much lower cost:

1. **bootstrap** — one robust full estimation
   (:func:`~repro.estimation.robust.estimate_extended_lmo_robust`);
2. **spot-check** — a handful of roundtrips against the model's own
   predictions (:func:`~repro.estimation.drift.detect_model_drift`);
3. **attribute** — :meth:`DriftReport.drifted_nodes` names the nodes at
   the intersection of the drifted pairs;
4. **heal** — re-estimate *only* the triplets touching the implicated
   nodes (their :func:`~repro.estimation.lmo_est.star_triplets` union —
   for one node out of ``n`` that is ``3 C(n-1,2)`` one-to-twos instead
   of ``3 C(n,3)``, a ``3/(n-2)`` reduction) and splice the refreshed
   parameters into the standing model, leaving healthy entries untouched;
5. **log** — every cycle appends a :class:`HealthRecord`, so the
   maintainer's history is inspectable after the fact.

When drift is too widespread to attribute (more than
``MaintainerPolicy.full_refresh_fraction`` of the nodes implicated), the
maintainer gives up on splicing and re-estimates everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.estimation.drift import DriftReport, detect_model_drift
from repro.estimation.engines import ExperimentEngine
from repro.estimation.journal import CampaignJournal
from repro.estimation.lmo_est import DEFAULT_PROBE_NBYTES, star_triplets
from repro.estimation.robust import (
    RetryPolicy,
    RobustLMOResult,
    estimate_extended_lmo_robust,
)
from repro.models.lmo_extended import ExtendedLMOModel
from repro.obs import runtime as _obs
from repro.obs.events import EventLog
from repro.obs.insight.residuals import ResidualMonitor

__all__ = ["HealthRecord", "MaintainerPolicy", "ModelMaintainer"]


@dataclass(frozen=True)
class MaintainerPolicy:
    """Knobs of the monitor/heal loop."""

    probe_nbytes: int = DEFAULT_PROBE_NBYTES
    #: Relative roundtrip error above which a spot-checked pair counts as
    #: drifted (matches :func:`detect_model_drift`'s default).
    drift_threshold: float = 0.15
    #: Repetitions per spot-check roundtrip (cheap, so few).  The reps
    #: collapse via minimum-RTT (see ``detect_model_drift``'s
    #: ``aggregate``): one transient escalation must not trigger a heal.
    spot_reps: int = 3
    #: Repetitions per estimation experiment (bootstrap and heal).
    reps: int = 3
    #: Timeout/retry discipline for all estimation runs.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: When the implicated nodes exceed this fraction of the cluster,
    #: splicing is pointless — do a full re-estimation instead.
    full_refresh_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.probe_nbytes <= 0:
            raise ValueError("probe_nbytes must be positive")
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if self.spot_reps < 1 or self.reps < 1:
            raise ValueError("repetition counts must be >= 1")
        if not (0 < self.full_refresh_fraction <= 1):
            raise ValueError(
                f"full_refresh_fraction must be in (0, 1], got {self.full_refresh_fraction}"
            )


@dataclass(frozen=True)
class HealthRecord:
    """One maintenance cycle's outcome."""

    cycle: int
    #: "bootstrap" | "ok" | "heal" | "refresh"
    action: str
    worst_error: float
    implicated: tuple[int, ...]
    #: Simulated seconds of cluster time this cycle consumed.
    cost: float
    detail: str = ""

    def render(self) -> str:
        nodes = ",".join(map(str, self.implicated)) if self.implicated else "-"
        line = (
            f"[{self.cycle:3d}] {self.action:<9s} worst drift {self.worst_error:7.2%}  "
            f"nodes {nodes:<8s} cost {self.cost:.4f}s"
        )
        return f"{line}  ({self.detail})" if self.detail else line


class ModelMaintainer:
    """Keeps an extended-LMO model honest against a changing cluster."""

    def __init__(
        self,
        engine: ExperimentEngine,
        policy: Optional[MaintainerPolicy] = None,
        journal: Optional[CampaignJournal] = None,
    ):
        self.engine = engine
        self.policy = policy if policy is not None else MaintainerPolicy()
        self.model: Optional[ExtendedLMOModel] = None
        #: Canonical history: every cycle is one structured event here,
        #: regardless of whether process-wide telemetry is enabled.
        self.health_events = EventLog(capacity=4096)
        self.last_result: Optional[RobustLMOResult] = None
        #: Optional durable log: every heal cycle is journaled through the
        #: same write-ahead layer the campaign runner uses, so a crashed
        #: maintenance loop leaves an auditable history on disk.
        self.journal = journal
        self._cycle = 0

    # -- estimation ----------------------------------------------------------

    def _estimate(self, triplets=None) -> RobustLMOResult:
        return estimate_extended_lmo_robust(
            self.engine,
            probe_nbytes=self.policy.probe_nbytes,
            reps=self.policy.reps,
            triplets=triplets,
            policy=self.policy.retry,
        )

    def bootstrap(self) -> ExtendedLMOModel:
        """Full robust estimation; the starting point of the loop."""
        with _obs.span("maintainer.bootstrap"):
            result = self._estimate()
        self.model = result.model
        self.last_result = result
        self._record("bootstrap", worst_error=0.0, implicated=(),
                     cost=result.estimation_time,
                     detail=result.run_stats.summary())
        return self.model

    # -- monitoring ----------------------------------------------------------

    def spot_check(self) -> DriftReport:
        """Cheap roundtrip sweep of the standing model's predictions."""
        if self.model is None:
            raise RuntimeError("no model yet — call bootstrap() first")
        report = detect_model_drift(
            self.model,
            self.engine,
            probe_nbytes=self.policy.probe_nbytes,
            threshold=self.policy.drift_threshold,
            reps=self.policy.spot_reps,
            aggregate=np.min,
        )
        if _obs.ACTIVE is not None:
            # Spot-checks double as (prediction, measurement) pairs for
            # the residual monitor: every cycle refreshes the lmo/roundtrip
            # scorecard for free.
            monitor = ResidualMonitor()
            for pair, predicted in report.predicted.items():
                monitor.record(
                    "lmo", "roundtrip", report.probe_nbytes,
                    predicted, report.measured[pair],
                )
        return report

    @staticmethod
    def implicated_nodes(report: DriftReport) -> list[int]:
        """Who to blame for a drifted report.

        Prefer the intersection attribution (nodes on >= 2 drifted pairs,
        the degraded-*node* signature); when drift is confined to a single
        pair — the degraded-*link* signature — fall back to that pair's
        endpoints, since the link parameters ``L``/``beta`` live on both.
        """
        nodes = report.drifted_nodes()
        if nodes:
            return nodes
        return sorted({
            node
            for pair, error in report.errors.items()
            if error > report.threshold
            for node in pair
        })

    # -- repair --------------------------------------------------------------

    def heal(self, report: DriftReport) -> ExtendedLMOModel:
        """Repair the standing model where ``report`` says it is stale."""
        if self.model is None:
            raise RuntimeError("no model yet — call bootstrap() first")
        implicated = self.implicated_nodes(report)
        if not implicated:
            return self.model
        n = self.engine.n
        if len(implicated) / n > self.policy.full_refresh_fraction:
            with _obs.span("maintainer.refresh", implicated=len(implicated)):
                result = self._estimate()
            self.model = result.model
            self.last_result = result
            self._record("refresh", report.worst_error, tuple(implicated),
                         result.estimation_time, result.run_stats.summary())
            return self.model

        triplets = sorted({
            triple for node in implicated for triple in star_triplets(n, node)
        })
        with _obs.span("maintainer.heal", implicated=len(implicated),
                       triplets=len(triplets)):
            result = self._estimate(triplets=triplets)
        self.model = self._splice(self.model, result.model, implicated)
        self.last_result = result
        self._record(
            "heal", report.worst_error, tuple(implicated), result.estimation_time,
            f"{len(triplets)} triplets re-estimated; {result.run_stats.summary()}",
        )
        return self.model

    @staticmethod
    def _splice(
        old: ExtendedLMOModel,
        fresh: ExtendedLMOModel,
        nodes: list[int],
    ) -> ExtendedLMOModel:
        """Refresh ``nodes``'s parameters (and their incident links) only."""
        C = old.C.copy()
        t = old.t.copy()
        L = old.L.copy()
        beta = old.beta.copy()
        idx = np.asarray(nodes, dtype=int)
        C[idx] = fresh.C[idx]
        t[idx] = fresh.t[idx]
        L[idx, :] = fresh.L[idx, :]
        L[:, idx] = fresh.L[:, idx]
        beta[idx, :] = fresh.beta[idx, :]
        beta[:, idx] = fresh.beta[:, idx]
        return ExtendedLMOModel(
            C=C, t=t, L=L, beta=beta,
            gather_irregularity=old.gather_irregularity,
        )

    # -- the loop ------------------------------------------------------------

    def cycle(self) -> HealthRecord:
        """One monitor-and-repair pass: spot-check, heal if needed, log."""
        with _obs.span("maintainer.cycle", cycle=self._cycle):
            if self.model is None:
                self.bootstrap()
            t_start = self.engine.estimation_time
            report = self.spot_check()
            check_cost = self.engine.estimation_time - t_start
            if not report.drifted:
                return self._record("ok", report.worst_error, (), check_cost)
            self.heal(report)
            # The heal() call appended its own record; fold the spot-check
            # cost in and surface the post-heal state as the cycle's record.
            return self.health_records()[-1]

    def _record(self, action, worst_error, implicated, cost, detail="") -> HealthRecord:
        record = HealthRecord(
            cycle=self._cycle,
            action=action,
            worst_error=worst_error,
            implicated=tuple(implicated),
            cost=cost,
            detail=detail,
        )
        self._cycle += 1
        fields = {
            "cycle": record.cycle,
            "action": record.action,
            "worst_error": float(record.worst_error),
            "implicated": list(record.implicated),
            "cost": float(record.cost),
            "detail": record.detail,
        }
        self.health_events.info("heal_cycle", **fields)
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.info("heal_cycle", **fields)
            tel.registry.counter(
                "maintainer_cycles_total", help="maintenance cycles by action",
                action=record.action,
            ).inc()
            tel.registry.gauge(
                "maintainer_worst_drift",
                help="worst relative drift seen by the latest cycle",
            ).set(float(record.worst_error))
        if self.journal is not None:
            self.journal.append({
                "type": "heal_cycle",
                "cycle": record.cycle,
                "action": record.action,
                "worst_error": float(record.worst_error),
                "implicated": list(record.implicated),
                "cost": float(record.cost),
                "detail": record.detail,
            })
        return record

    # -- history -------------------------------------------------------------

    def health_records(self) -> list[HealthRecord]:
        """Every recorded cycle, rebuilt from the structured event log."""
        return [
            HealthRecord(
                cycle=evt["cycle"],
                action=evt["action"],
                worst_error=evt["worst_error"],
                implicated=tuple(evt["implicated"]),
                cost=evt["cost"],
                detail=evt["detail"],
            )
            for evt in self.health_events.events("heal_cycle")
        ]

    def render_log(self) -> str:
        """The health log as a human-readable block."""
        records = self.health_records()
        if not records:
            return "(no maintenance cycles recorded)"
        return "\n".join(record.render() for record in records)
