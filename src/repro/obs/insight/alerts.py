"""Declarative alert rules over metric snapshots.

An :class:`AlertRule` names a scalar derived from the metrics section of
a snapshot document and a threshold for it; an :class:`AlertEngine`
evaluates a rule set against successive snapshots, tracks the
firing/resolved lifecycle and narrates transitions into the event log.

Six rule kinds cover the observatory's needs without a query language:

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
  for a model/operation selection, worst-case across matching cards.

The only state the engine keeps across snapshots is each rule's firing
flag, so a transition is narrated once per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.obs import runtime as _runtime
from repro.obs.events import LEVELS as _LEVELS
from repro.obs.insight.detectors import ESCALATED_METRIC, TRANSFER_METRIC
from repro.obs.insight.residuals import Scorecard, scorecards
from repro.obs.metrics import bucket_quantile, family_sum, merged_buckets

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AlertState",
    "default_rules",
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
    #            escalation_rate | residual
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
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("metric_value", "metric_total", "metric_ratio",
                             "metric_quantile", "escalation_rate", "residual"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")
        if self.kind == "residual" and self.stat not in _RESIDUAL_STATS:
            raise ValueError(f"unknown residual stat {self.stat!r}")
        if self.kind in ("metric_value", "metric_total", "metric_ratio",
                         "metric_quantile") and not self.metric:
            raise ValueError(f"rule {self.name!r} needs a metric name")
        if self.kind == "metric_ratio" and not self.metric_denom:
            raise ValueError(f"rule {self.name!r} needs a denominator metric")
        if self.kind == "metric_quantile" and not (0.0 < self.quantile <= 1.0):
            raise ValueError(f"rule {self.name!r} needs a quantile in (0, 1], "
                             f"got {self.quantile}")
        if self.level not in _LEVELS:
            raise ValueError(f"unknown level {self.level!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind, "threshold": self.threshold,
            "op": self.op, "level": self.level, "metric": self.metric,
            "metric_denom": self.metric_denom,
            "labels": dict(self.labels), "stat": self.stat,
            "quantile": self.quantile, "model": self.model,
            "operation": self.operation,
            "description": self.description,
        }


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


def _evaluate(rule: AlertRule, metrics: Mapping[str, Any],
              cards: list[Scorecard]) -> float:
    if rule.kind == "metric_value":
        return family_sum(metrics, rule.metric, rule.labels)
    if rule.kind == "metric_total":
        return family_sum(metrics, rule.metric)
    if rule.kind == "metric_ratio":
        denominator = family_sum(metrics, rule.metric_denom)
        if not denominator:
            return 0.0
        return family_sum(metrics, rule.metric, rule.labels) / denominator
    if rule.kind == "metric_quantile":
        family = metrics.get(rule.metric)
        if not family or family.get("type") != "histogram":
            return 0.0
        count = family_sum(metrics, rule.metric, rule.labels)
        if not count:
            return 0.0
        return bucket_quantile(merged_buckets(family, rule.labels), count, rule.quantile)
    if rule.kind == "escalation_rate":
        transfers = family_sum(metrics, TRANSFER_METRIC)
        escalated = family_sum(metrics, ESCALATED_METRIC)
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
    """Evaluates a rule set against snapshots, with lifecycle tracking."""

    def __init__(self, rules: Optional[list[AlertRule]] = None) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names in {names}")
        self._firing: dict[str, bool] = {}

    def evaluate(
        self, metrics: Mapping[str, Any], cards: Optional[list[Scorecard]] = None,
    ) -> list[AlertState]:
        """One pass over the rule set; narrates transitions.

        ``cards`` are ``scorecards(metrics)`` when the caller has already
        built them (the dashboard shows them too); otherwise they are
        built here.
        """
        if cards is None:
            cards = scorecards(metrics)
        tel = _runtime.ACTIVE
        states: list[AlertState] = []
        for rule in self.rules:
            value = _evaluate(rule, metrics, cards)
            firing = _OPS[rule.op](value, rule.threshold)
            was = self._firing.get(rule.name, False)
            self._firing[rule.name] = firing
            states.append(AlertState(rule=rule, value=value, firing=firing))
            if firing == was or tel is None:
                continue
            if firing:
                tel.registry.counter(
                    "alerts_fired_total", "alert rule firing transitions",
                    rule=rule.name,
                ).inc()
                tel.events.emit(
                    "alert_firing", level=rule.level, rule=rule.name,
                    value=value, threshold=rule.threshold,
                )
            else:
                tel.events.info(
                    "alert_resolved", rule=rule.name,
                    value=value, threshold=rule.threshold,
                )
        return states

    def firing(self) -> list[str]:
        """Names of currently-firing rules (after the last evaluate)."""
        return [name for name, on in sorted(self._firing.items()) if on]


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
            level="warning",
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
    ]

