"""Declarative alert rules over metric snapshots.

An :class:`AlertRule` names a scalar derived from the metrics section of
a snapshot document and a threshold for it; an :class:`AlertEngine`
evaluates a rule set against successive snapshots, tracks the
firing/resolved lifecycle, narrates transitions into the event log, and
can invoke a hook — e.g. :func:`heal_hook` wrapping a
:class:`repro.estimation.maintainer.ModelMaintainer` — when a rule with
``trigger_heal`` starts firing.

Eight rule kinds cover the observatory's needs without a query language:

* ``metric_value`` — sum of one family's samples whose labels include
  ``rule.labels`` (e.g. ``breaker_nodes{state=open}``);
* ``metric_total`` — sum across the whole family (histograms count
  observations);
* ``metric_ratio`` — ``metric`` summed over ``metric_denom`` summed
  (0 when the denominator is absent or zero), e.g. units reclaimed
  from lost worker pools per unit the workers landed;
* ``metric_quantile`` — an interpolated quantile (``rule.quantile``) of
  one histogram family, buckets merged across matching samples — e.g.
  the service's p99 request latency across all verbs;
* ``escalation_rate`` — escalated / total transfers from the
  :mod:`detector <repro.obs.insight.detectors>` histograms;
* ``residual`` — a scorecard statistic (``p95``/``mean``/``max``/``bias``)
  for a model/operation selection, worst-case across matching cards;
* ``slo_burn_rate`` — ``min(burn(fast_window), burn(slow_window))`` of
  the named :class:`repro.obs.slo.SLOSpec` over the timeline passed to
  :meth:`AlertEngine.evaluate` — the SRE multi-window pattern: both
  windows must burn hot before the rule fires (0.0, i.e. quiet, when no
  timeline or spec is available);
* ``metric_absent`` — staleness: counts consecutive evaluations in which
  a family that *has reported before* shows no new activity (absent, or
  a counter total frozen in place).  Catches workers that die silently
  — the failure mode a threshold on a value can never see.

The two stateful additions make the engine itself stateful across
snapshots; :meth:`AlertEngine.to_dict` / :meth:`AlertEngine.from_dict`
round-trip that state (firing flags, staleness counters) so dashboards
and restarts resume the lifecycle instead of re-firing everything.
Transitions are additionally mirrored into the flight recorder
(:meth:`repro.obs.flight.FlightRecorder.note_alert`) when one is
attached — an alert firing is exactly the moment a black-box dump is
worth keeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.obs import runtime as _runtime
from repro.obs import slo as _slo
from repro.obs.events import LEVELS as _LEVELS
from repro.obs.insight.detectors import ESCALATED_METRIC, TRANSFER_METRIC
from repro.obs.metrics import bucket_quantile
from repro.obs.insight.residuals import Scorecard, scorecards

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AlertState",
    "default_rules",
    "heal_hook",
    "slo_burn_rules",
]

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}

_RESIDUAL_STATS = {
    "p50": lambda c: c.p50,
    "p95": lambda c: c.p95,
    "mean": lambda c: c.mean_abs_error,
    "max": lambda c: c.max_abs_error,
    "bias": lambda c: abs(c.bias),
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold over a metrics snapshot."""

    name: str
    kind: str  # metric_value | metric_total | metric_ratio | metric_quantile |
    #            escalation_rate | residual | slo_burn_rate | metric_absent
    threshold: float
    op: str = ">"
    level: str = "warning"
    metric: str = ""
    #: metric_ratio rules: the denominator family (numerator is ``metric``).
    metric_denom: str = ""
    labels: tuple[tuple[str, str], ...] = ()
    stat: str = "p95"  # residual rules: p50|p95|mean|max|bias
    #: metric_quantile rules: which quantile of the histogram to take.
    quantile: float = 0.99
    model: str = ""  # residual rules: "" = any model
    operation: str = ""  # residual rules: "" = any operation
    #: slo_burn_rate rules: the SLO spec name and the two windows (s).
    slo: str = ""
    fast_window: float = 300.0
    slow_window: float = 3600.0
    description: str = ""
    trigger_heal: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("metric_value", "metric_total", "metric_ratio",
                             "metric_quantile", "escalation_rate", "residual",
                             "slo_burn_rate", "metric_absent"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")
        if self.kind == "residual" and self.stat not in _RESIDUAL_STATS:
            raise ValueError(f"unknown residual stat {self.stat!r}")
        if self.kind in ("metric_value", "metric_total", "metric_ratio",
                         "metric_quantile", "metric_absent") and not self.metric:
            raise ValueError(f"rule {self.name!r} needs a metric name")
        if self.kind == "metric_ratio" and not self.metric_denom:
            raise ValueError(f"rule {self.name!r} needs a denominator metric")
        if self.kind == "metric_quantile" and not (0.0 < self.quantile <= 1.0):
            raise ValueError(f"rule {self.name!r} needs a quantile in (0, 1], "
                             f"got {self.quantile}")
        if self.kind == "slo_burn_rate":
            if not self.slo:
                raise ValueError(f"rule {self.name!r} needs an SLO name")
            if self.fast_window <= 0.0 or self.slow_window < self.fast_window:
                raise ValueError(
                    f"rule {self.name!r} needs 0 < fast_window <= slow_window, "
                    f"got {self.fast_window}/{self.slow_window}")
        if self.level not in _LEVELS:
            raise ValueError(f"unknown level {self.level!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind, "threshold": self.threshold,
            "op": self.op, "level": self.level, "metric": self.metric,
            "metric_denom": self.metric_denom,
            "labels": dict(self.labels), "stat": self.stat,
            "quantile": self.quantile, "model": self.model,
            "operation": self.operation, "slo": self.slo,
            "fast_window": self.fast_window, "slow_window": self.slow_window,
            "description": self.description,
            "trigger_heal": self.trigger_heal,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "AlertRule":
        return cls(
            name=doc["name"], kind=doc["kind"],
            threshold=float(doc["threshold"]),
            op=doc.get("op", ">"), level=doc.get("level", "warning"),
            metric=doc.get("metric", ""),
            metric_denom=doc.get("metric_denom", ""),
            labels=tuple(sorted(
                (str(k), str(v)) for k, v in dict(doc.get("labels", {})).items())),
            stat=doc.get("stat", "p95"),
            quantile=float(doc.get("quantile", 0.99)),
            model=doc.get("model", ""), operation=doc.get("operation", ""),
            slo=doc.get("slo", ""),
            fast_window=float(doc.get("fast_window", 300.0)),
            slow_window=float(doc.get("slow_window", 3600.0)),
            description=doc.get("description", ""),
            trigger_heal=bool(doc.get("trigger_heal", False)),
        )


@dataclass(frozen=True)
class AlertState:
    """One rule's verdict against one snapshot."""

    rule: AlertRule
    value: float
    firing: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule.to_dict(), "value": self.value,
            "firing": self.firing,
        }


def _sample_value(family_type: str, sample: Mapping[str, Any]) -> float:
    if family_type == "histogram":
        return float(sample["count"])
    return float(sample["value"])


def _labels_match(sample: Mapping[str, Any], wanted: tuple[tuple[str, str], ...]) -> bool:
    labels = sample.get("labels", {})
    return all(str(labels.get(k)) == v for k, v in wanted)


def _family_sum(metrics: Mapping[str, Any], name: str,
                labels: tuple[tuple[str, str], ...] = ()) -> float:
    family = metrics.get(name)
    if not family:
        return 0.0
    return sum(
        _sample_value(family["type"], sample)
        for sample in family.get("samples", ())
        if _labels_match(sample, labels)
    )


def _histogram_quantile(metrics: Mapping[str, Any], name: str,
                        labels: tuple[tuple[str, str], ...], q: float) -> float:
    """Interpolated quantile of one histogram family, matching samples'
    buckets merged (all samples of a family share one bucket layout)."""
    family = metrics.get(name)
    if not family or family.get("type") != "histogram":
        return 0.0
    merged: list[list[Any]] = []
    total = 0
    for sample in family.get("samples", ()):
        if not _labels_match(sample, labels):
            continue
        total += int(sample["count"])
        if not merged:
            merged = [[bound, int(n)] for bound, n in sample["buckets"]]
        else:
            for slot, (_, n) in zip(merged, sample["buckets"]):
                slot[1] += int(n)
    if not total:
        return 0.0
    return bucket_quantile(merged, total, q)


def _evaluate(rule: AlertRule, metrics: Mapping[str, Any],
              cards: list[Scorecard]) -> float:
    if rule.kind == "metric_value":
        return _family_sum(metrics, rule.metric, rule.labels)
    if rule.kind == "metric_total":
        return _family_sum(metrics, rule.metric)
    if rule.kind == "metric_ratio":
        denominator = _family_sum(metrics, rule.metric_denom)
        if not denominator:
            return 0.0
        return _family_sum(metrics, rule.metric, rule.labels) / denominator
    if rule.kind == "metric_quantile":
        return _histogram_quantile(metrics, rule.metric, rule.labels, rule.quantile)
    if rule.kind == "escalation_rate":
        transfers = sum(
            float(s["count"])
            for s in metrics.get(TRANSFER_METRIC, {}).get("samples", ())
        )
        escalated = sum(
            float(s["count"])
            for s in metrics.get(ESCALATED_METRIC, {}).get("samples", ())
        )
        return escalated / transfers if transfers else 0.0
    # residual
    stat = _RESIDUAL_STATS[rule.stat]
    selected = [
        stat(card) for card in cards
        if (not rule.model or card.model == rule.model)
        and (not rule.operation or card.operation == rule.operation)
    ]
    return max(selected) if selected else 0.0


class AlertEngine:
    """Evaluates a rule set against snapshots, with lifecycle tracking.

    ``on_fire(rule, value)`` is called once per rule on the transition
    into *firing* (never on re-evaluation while still firing).

    ``slos`` names the :class:`repro.obs.slo.SLOSpec` catalog that
    ``slo_burn_rate`` rules resolve against (defaults to
    :func:`repro.obs.slo.default_slos`); those rules additionally need a
    timeline passed to :meth:`evaluate` — without one they read 0.0 and
    stay quiet, so snapshot-only callers keep working unchanged.
    """

    def __init__(
        self,
        rules: Optional[list[AlertRule]] = None,
        on_fire: Optional[Callable[[AlertRule, float], None]] = None,
        slos: Optional[list[_slo.SLOSpec]] = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names in {names}")
        self.on_fire = on_fire
        self.slos: dict[str, _slo.SLOSpec] = {
            spec.name: spec
            for spec in (slos if slos is not None else _slo.default_slos())
        }
        self._firing: dict[str, bool] = {}
        #: metric_absent state: last seen family total / stale-eval streak.
        self._last_totals: dict[str, float] = {}
        self._stale: dict[str, int] = {}

    def _evaluate_burn(self, rule: AlertRule, timeline: Any,
                       now: Optional[float]) -> float:
        spec = self.slos.get(rule.slo)
        if spec is None or timeline is None:
            return 0.0
        return min(
            _slo.burn_rate(spec, timeline, rule.fast_window, now=now),
            _slo.burn_rate(spec, timeline, rule.slow_window, now=now),
        )

    def _evaluate_absent(self, rule: AlertRule,
                         metrics: Mapping[str, Any]) -> float:
        """Consecutive evaluations without new activity, 0 until first seen.

        "New activity" means the family total moved (or appeared); a
        family that has never reported is not stale — a campaign-only
        process must not page about service metrics it will never have.
        """
        present = bool(metrics.get(rule.metric))
        total = _family_sum(metrics, rule.metric, rule.labels)
        previous = self._last_totals.get(rule.name)
        if present and (previous is None or total != previous):
            self._stale[rule.name] = 0
            self._last_totals[rule.name] = total
        elif previous is None:
            self._stale[rule.name] = 0
        else:
            self._stale[rule.name] = self._stale.get(rule.name, 0) + 1
        return float(self._stale[rule.name])

    def evaluate(self, metrics: Mapping[str, Any],
                 timeline: Any = None,
                 now: Optional[float] = None) -> list[AlertState]:
        """One pass over the rule set; narrates transitions, runs hooks."""
        cards = scorecards(metrics)
        tel = _runtime.ACTIVE
        recorder = tel.flight if tel is not None else None
        states: list[AlertState] = []
        for rule in self.rules:
            if rule.kind == "slo_burn_rate":
                value = self._evaluate_burn(rule, timeline, now)
            elif rule.kind == "metric_absent":
                value = self._evaluate_absent(rule, metrics)
            else:
                value = _evaluate(rule, metrics, cards)
            firing = _OPS[rule.op](value, rule.threshold)
            was = self._firing.get(rule.name, False)
            self._firing[rule.name] = firing
            states.append(AlertState(rule=rule, value=value, firing=firing))
            if firing == was:
                continue
            if recorder is not None:
                recorder.note_alert(rule=rule.name, firing=firing, value=value,
                                    threshold=rule.threshold, level=rule.level)
            if firing:
                if tel is not None:
                    tel.registry.counter(
                        "alerts_fired_total", "alert rule firing transitions",
                        rule=rule.name,
                    ).inc()
                    tel.events.emit(
                        "alert_firing", level=rule.level, rule=rule.name,
                        value=value, threshold=rule.threshold,
                    )
                if self.on_fire is not None:
                    self.on_fire(rule, value)
            elif tel is not None:
                tel.events.info(
                    "alert_resolved", rule=rule.name,
                    value=value, threshold=rule.threshold,
                )
        return states

    def firing(self) -> list[str]:
        """Names of currently-firing rules (after the last evaluate)."""
        return [name for name, on in sorted(self._firing.items()) if on]

    # -- state round-trip ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Rules + lifecycle state, JSON-ready (dashboard/restart resume)."""
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "slos": [spec.to_dict() for spec in self.slos.values()],
            "firing": dict(sorted(self._firing.items())),
            "stale": dict(sorted(self._stale.items())),
            "last_totals": dict(sorted(self._last_totals.items())),
        }

    @classmethod
    def from_dict(
        cls, doc: Mapping[str, Any],
        on_fire: Optional[Callable[[AlertRule, float], None]] = None,
    ) -> "AlertEngine":
        """Rebuild an engine mid-lifecycle: a rule recorded as firing does
        not re-fire on the next evaluate unless it first resolved."""
        engine = cls(
            rules=[AlertRule.from_dict(r) for r in doc.get("rules", [])],
            on_fire=on_fire,
            slos=[_slo.SLOSpec.from_dict(s) for s in doc.get("slos", [])],
        )
        engine._firing = {str(k): bool(v)
                          for k, v in dict(doc.get("firing", {})).items()}
        engine._stale = {str(k): int(v)
                         for k, v in dict(doc.get("stale", {})).items()}
        engine._last_totals = {str(k): float(v)
                               for k, v in dict(doc.get("last_totals", {})).items()}
        return engine


def default_rules() -> list[AlertRule]:
    """The stock observatory rule set (docs/observability.md catalog)."""
    return [
        AlertRule(
            name="escalation_rate_high", kind="escalation_rate",
            threshold=0.02, op=">", level="warning",
            description="natural RTO escalations exceed 2% of transfers "
                        "(traffic is living inside the M1..M2 region)",
        ),
        AlertRule(
            name="breaker_open", kind="metric_value",
            metric="breaker_nodes", labels=(("state", "open"),),
            threshold=0.0, op=">", level="error",
            description="at least one node's circuit breaker is OPEN",
        ),
        AlertRule(
            name="model_drift_high", kind="metric_value",
            metric="maintainer_worst_drift", threshold=0.15, op=">",
            level="warning", trigger_heal=True,
            description="maintainer spot-check drift above 15% — "
                        "re-estimation warranted",
        ),
        AlertRule(
            name="residual_p95_high", kind="residual", stat="p95",
            threshold=0.25, op=">", level="warning",
            description="95th-percentile |relative prediction error| "
                        "above 25% for some model/operation",
        ),
        AlertRule(
            name="units_reclaimed_high", kind="metric_ratio",
            metric="parallel_units_reclaimed_total",
            metric_denom="parallel_worker_units_total",
            threshold=1.0, op=">", level="warning",
            description="parallel campaign handed back more units from "
                        "lost pools than its workers landed — workers keep "
                        "dying or hanging",
        ),
        AlertRule(
            name="service_queue_depth_high", kind="metric_value",
            metric="service_queue_depth", threshold=48.0, op=">",
            level="warning",
            description="prediction-service worker queues hold more than 48 "
                        "requests in total — nearing the bounded-queue limit "
                        "where new work is rejected as `overloaded`",
        ),
        AlertRule(
            name="service_p99_latency_high", kind="metric_quantile",
            metric="service_request_seconds", quantile=0.99,
            threshold=0.25, op=">", level="warning",
            description="99th-percentile service request latency above "
                        "250 ms across all verbs",
        ),
        AlertRule(
            name="service_crash_loop", kind="metric_value",
            metric="supervisor_crash_loop", threshold=0.0, op=">",
            level="error",
            description="the service supervisor gave up: the daemon "
                        "crashed restart-limit times within the crash-loop "
                        "window and will not be restarted again",
        ),
        AlertRule(
            name="service_deadline_shed_high", kind="metric_ratio",
            metric="service_deadline_shed_total",
            metric_denom="service_requests_total",
            threshold=0.05, op=">", level="warning",
            description="more than 5% of service requests were shed "
                        "unexecuted because their deadline_ms expired "
                        "while queued — the service is running behind "
                        "its callers' latency budgets",
        ),
        AlertRule(
            name="service_requests_absent", kind="metric_absent",
            metric="service_requests_total", threshold=3.0, op=">=",
            level="error",
            description="the service_requests_total family has shown no "
                        "new activity for 3 consecutive evaluations after "
                        "reporting before — the daemon (or its watchdog) "
                        "went silent, not loud",
        ),
    ] + slo_burn_rules(
        "service_availability", level_fast="error", level_slow="warning",
    )


def slo_burn_rules(
    slo_name: str,
    fast_windows: tuple[float, float] = _slo.FAST_WINDOWS,
    slow_windows: tuple[float, float] = _slo.SLOW_WINDOWS,
    fast_burn: float = _slo.FAST_BURN,
    slow_burn: float = _slo.SLOW_BURN,
    level_fast: str = "error",
    level_slow: str = "warning",
) -> list[AlertRule]:
    """The paging pair for one SLO: fast 5m/1h @ 14.4x, slow 30m/6h @ 6x.

    Window lengths are parameters so tests (and sim-time campaigns) can
    shrink the pattern without changing its shape.
    """
    return [
        AlertRule(
            name=f"slo_{slo_name}_burn_fast", kind="slo_burn_rate",
            slo=slo_name, threshold=fast_burn, op=">", level=level_fast,
            fast_window=fast_windows[0], slow_window=fast_windows[1],
            description=f"SLO {slo_name}: error budget burning faster than "
                        f"{fast_burn}x sustained over both the "
                        f"{fast_windows[0]:.0f}s and {fast_windows[1]:.0f}s "
                        f"windows — page",
        ),
        AlertRule(
            name=f"slo_{slo_name}_burn_slow", kind="slo_burn_rate",
            slo=slo_name, threshold=slow_burn, op=">", level=level_slow,
            fast_window=slow_windows[0], slow_window=slow_windows[1],
            description=f"SLO {slo_name}: error budget burning faster than "
                        f"{slow_burn}x sustained over both the "
                        f"{slow_windows[0]:.0f}s and {slow_windows[1]:.0f}s "
                        f"windows — ticket",
        ),
    ]


def heal_hook(maintainer: Any) -> Callable[[AlertRule, float], None]:
    """An ``on_fire`` hook that runs a maintainer cycle on heal-rules.

    Wire it as ``AlertEngine(rules, on_fire=heal_hook(maintainer))`` —
    any rule with ``trigger_heal=True`` entering the firing state runs
    one monitor-and-repair cycle.
    """
    def _hook(rule: AlertRule, value: float) -> None:
        if rule.trigger_heal:
            maintainer.cycle()
    return _hook
