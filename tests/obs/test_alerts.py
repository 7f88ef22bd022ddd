"""Unit tests for the declarative alert rules engine."""

import pytest

from repro.obs import runtime as _obs
from repro.obs.insight.alerts import AlertEngine, AlertRule, default_rules
from repro.obs.insight.detectors import ESCALATED_METRIC, TRANSFER_METRIC
from repro.obs.insight.residuals import ResidualMonitor
from repro.obs.metrics import MetricsRegistry


def test_rule_validation_rejects_nonsense():
    with pytest.raises(ValueError, match="unknown rule kind"):
        AlertRule(name="x", kind="promql", threshold=1.0)
    with pytest.raises(ValueError, match="unknown comparison"):
        AlertRule(name="x", kind="metric_total", metric="m", threshold=1.0, op="!=")
    with pytest.raises(ValueError, match="unknown residual stat"):
        AlertRule(name="x", kind="residual", threshold=1.0, stat="p42")
    with pytest.raises(ValueError, match="needs a metric name"):
        AlertRule(name="x", kind="metric_value", threshold=1.0)
    with pytest.raises(ValueError, match="unknown level"):
        AlertRule(name="x", kind="metric_total", metric="m", threshold=1.0,
                  level="panic")
    with pytest.raises(ValueError, match="duplicate rule names"):
        AlertEngine(rules=[
            AlertRule(name="x", kind="metric_total", metric="m", threshold=1.0),
            AlertRule(name="x", kind="metric_total", metric="m", threshold=2.0),
        ])


def test_metric_value_rule_sums_matching_samples_only():
    reg = MetricsRegistry()
    reg.gauge("breaker_nodes", state="open").set(2)
    reg.gauge("breaker_nodes", state="closed").set(5)
    rule = AlertRule(name="open", kind="metric_value", metric="breaker_nodes",
                     labels=(("state", "open"),), threshold=0.0, op=">")
    engine = AlertEngine(rules=[rule])
    states = engine.evaluate(reg.snapshot())
    assert states[0].value == 2.0
    assert states[0].firing is True
    assert engine.firing() == ["open"]


def test_metric_total_rule_counts_histogram_observations():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", a="1")
    h.observe(0.1)
    h.observe(0.2)
    reg.histogram("lat_seconds", a="2").observe(0.3)
    rule = AlertRule(name="busy", kind="metric_total", metric="lat_seconds",
                     threshold=2.0, op=">")
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].value == 3.0 and states[0].firing


def test_missing_metric_evaluates_to_zero_not_error():
    rule = AlertRule(name="m", kind="metric_value", metric="absent",
                     threshold=1.0)
    states = AlertEngine(rules=[rule]).evaluate({})
    assert states[0].value == 0.0 and not states[0].firing


def test_escalation_rate_rule():
    reg = MetricsRegistry()
    for _ in range(50):
        reg.histogram(TRANSFER_METRIC, lo=0, hi=28).observe(16384)
    for _ in range(3):
        reg.histogram(ESCALATED_METRIC, lo=0, hi=28).observe(16384)
    rule = AlertRule(name="esc", kind="escalation_rate", threshold=0.02, op=">")
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].value == pytest.approx(0.06)
    assert states[0].firing


def test_residual_rule_selects_worst_matching_card():
    reg = MetricsRegistry()
    monitor = ResidualMonitor(reg)
    monitor.record("lmo", "gather/linear", 1024, 1.5, 1.0)   # 50% error
    monitor.record("lmo", "scatter/linear", 1024, 1.05, 1.0)  # 5% error
    snap = reg.snapshot()
    any_card = AlertRule(name="any", kind="residual", stat="max", threshold=0.25)
    scoped = AlertRule(name="scoped", kind="residual", stat="max",
                       threshold=0.25, operation="scatter/linear")
    wrong_model = AlertRule(name="wrong", kind="residual", stat="max",
                            threshold=0.25, model="hockney")
    states = AlertEngine(rules=[any_card, scoped, wrong_model]).evaluate(snap)
    by_name = {s.rule.name: s for s in states}
    assert by_name["any"].firing and by_name["any"].value == pytest.approx(0.5)
    assert not by_name["scoped"].firing
    assert by_name["wrong"].value == 0.0 and not by_name["wrong"].firing


def test_residual_bias_stat_is_absolute():
    reg = MetricsRegistry()
    ResidualMonitor(reg).record("m", "op", 64, 0.5, 1.0)  # bias -0.5
    rule = AlertRule(name="b", kind="residual", stat="bias", threshold=0.25)
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].value == pytest.approx(0.5) and states[0].firing


def test_lifecycle_fires_once_and_resolves_once():
    firing_reg = MetricsRegistry()
    firing_reg.gauge("x").set(10)
    quiet_reg = MetricsRegistry()
    quiet_reg.gauge("x").set(0)
    rule = AlertRule(name="x_high", kind="metric_value", metric="x",
                     threshold=5.0, level="error")
    engine = AlertEngine(rules=[rule])
    tel = _obs.enable(fresh=True)
    engine.evaluate(firing_reg.snapshot())
    engine.evaluate(firing_reg.snapshot())  # still firing: no re-fire
    engine.evaluate(quiet_reg.snapshot())   # falling edge: resolved
    engine.evaluate(quiet_reg.snapshot())
    engine.evaluate(firing_reg.snapshot())  # rising edge again
    assert tel.registry.value("alerts_fired_total", rule="x_high") == 2
    firing_events = tel.events.events("alert_firing")
    resolved_events = tel.events.events("alert_resolved")
    assert len(firing_events) == 2
    assert len(resolved_events) == 1
    assert firing_events[0]["level"] == "error"
    assert firing_events[0]["rule"] == "x_high"
    assert [e["value"] for e in firing_events] == [10.0, 10.0]
    assert resolved_events[0]["level"] == "info"
    assert engine.firing() == ["x_high"]


def test_engine_works_with_telemetry_off():
    reg = MetricsRegistry()
    reg.gauge("x").set(10)
    rule = AlertRule(name="x_high", kind="metric_value", metric="x", threshold=5.0)
    engine = AlertEngine(rules=[rule])
    assert engine.evaluate(reg.snapshot())[0].firing
    assert engine.firing() == ["x_high"]


def test_default_rules_catalog():
    rules = default_rules()
    names = [r.name for r in rules]
    assert names == ["escalation_rate_high", "breaker_open",
                     "model_drift_high", "residual_p95_high",
                     "units_reclaimed_high",
                     "service_queue_depth_high", "service_p99_latency_high",
                     "service_crash_loop", "service_deadline_shed_high"]
    assert len(set(names)) == len(names)
    assert all(r.description for r in rules)
    # The stock set evaluates cleanly against an empty snapshot.
    states = AlertEngine().evaluate({})
    assert [s.firing for s in states] == [False] * len(rules)


def test_metric_ratio_rule_divides_family_sums():
    reg = MetricsRegistry()
    reg.counter("reclaims").inc(3)
    reg.counter("grants", worker="0").inc(2)
    reg.counter("grants", worker="1").inc(2)
    rule = AlertRule(name="r", kind="metric_ratio", metric="reclaims",
                     metric_denom="grants", threshold=0.5, op=">")
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].value == pytest.approx(0.75)
    assert states[0].firing


def test_metric_ratio_rule_is_zero_when_denominator_absent():
    reg = MetricsRegistry()
    reg.counter("reclaims").inc(5)
    rule = AlertRule(name="r", kind="metric_ratio", metric="reclaims",
                     metric_denom="grants", threshold=0.5, op=">")
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].value == 0.0 and not states[0].firing


def test_metric_ratio_rule_requires_denominator():
    with pytest.raises(ValueError, match="denominator"):
        AlertRule(name="r", kind="metric_ratio", metric="a", threshold=0.5)


def test_default_units_reclaimed_rule_fires_on_churny_campaign():
    reg = MetricsRegistry()
    reg.counter("parallel_worker_units_total", outcome="done", worker="0").inc(6)
    reg.counter("parallel_worker_units_total", outcome="done", worker="1").inc(4)
    reg.counter("parallel_units_reclaimed_total").inc(8)
    by_name = {s.rule.name: s for s in AlertEngine().evaluate(reg.snapshot())}
    assert not by_name["units_reclaimed_high"].firing  # one lost pool is no churn
    assert by_name["units_reclaimed_high"].value == pytest.approx(0.8)
    reg.counter("parallel_units_reclaimed_total").inc(7)
    by_name = {s.rule.name: s for s in AlertEngine().evaluate(reg.snapshot())}
    assert by_name["units_reclaimed_high"].firing
    assert by_name["units_reclaimed_high"].value == pytest.approx(1.5)
    assert by_name["units_reclaimed_high"].rule.level == "warning"


def test_default_escalation_rate_rule_fires_on_hot_region():
    reg = MetricsRegistry()
    for i in range(100):
        reg.histogram(TRANSFER_METRIC, lo=0, hi=28).observe(32768)
        if i < 5:
            reg.histogram(ESCALATED_METRIC, lo=0, hi=28).observe(32768)
    states = AlertEngine().evaluate(reg.snapshot())
    by_name = {s.rule.name: s for s in states}
    assert by_name["escalation_rate_high"].firing
    assert by_name["escalation_rate_high"].value == pytest.approx(0.05)


def test_rule_to_dict_is_json_ready():
    rule = default_rules()[1]
    doc = rule.to_dict()
    assert doc["name"] == "breaker_open"
    assert doc["labels"] == {"state": "open"}
    assert doc["level"] == "error"


def test_metric_quantile_rule_validation():
    with pytest.raises(ValueError, match="needs a metric name"):
        AlertRule(name="q", kind="metric_quantile", threshold=1.0)
    with pytest.raises(ValueError, match="quantile"):
        AlertRule(name="q", kind="metric_quantile", metric="m",
                  threshold=1.0, quantile=0.0)
    with pytest.raises(ValueError, match="quantile"):
        AlertRule(name="q", kind="metric_quantile", metric="m",
                  threshold=1.0, quantile=1.5)
    rule = AlertRule(name="q", kind="metric_quantile", metric="m",
                     threshold=1.0, quantile=0.99)
    assert rule.to_dict()["quantile"] == 0.99


def test_metric_quantile_rule_merges_buckets_across_samples():
    reg = MetricsRegistry()
    # 99 fast requests on one verb, 9 slow ones on another: the p50 sits
    # in the fast bucket, the p99 in the slow bucket, and both are only
    # visible if the family's samples are merged.
    for _ in range(99):
        reg.histogram("svc_seconds", verb="predict").observe(0.01)
    for _ in range(9):
        reg.histogram("svc_seconds", verb="estimate").observe(2.0)
    snapshot = reg.snapshot()
    p50 = AlertRule(name="p50", kind="metric_quantile", metric="svc_seconds",
                    quantile=0.5, threshold=0.25, op=">")
    p99 = AlertRule(name="p99", kind="metric_quantile", metric="svc_seconds",
                    quantile=0.99, threshold=0.25, op=">")
    states = AlertEngine(rules=[p50, p99]).evaluate(snapshot)
    assert states[0].firing is False and states[0].value < 0.25
    assert states[1].firing is True and states[1].value > 1.0


def test_metric_quantile_rule_respects_label_filters():
    reg = MetricsRegistry()
    for _ in range(10):
        reg.histogram("svc_seconds", verb="predict").observe(0.01)
        reg.histogram("svc_seconds", verb="estimate").observe(2.0)
    rule = AlertRule(name="p99", kind="metric_quantile", metric="svc_seconds",
                     labels=(("verb", "predict"),), quantile=0.99,
                     threshold=0.25, op=">")
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].firing is False and states[0].value < 0.25


def test_metric_quantile_rule_is_quiet_without_data():
    rule = AlertRule(name="p99", kind="metric_quantile", metric="svc_seconds",
                     quantile=0.99, threshold=0.25, op=">")
    # Missing family, and a family of the wrong type, both read as 0.0.
    assert AlertEngine(rules=[rule]).evaluate({})[0].value == 0.0
    reg = MetricsRegistry()
    reg.counter("svc_seconds").inc(5)
    states = AlertEngine(rules=[rule]).evaluate(reg.snapshot())
    assert states[0].value == 0.0 and not states[0].firing


def test_default_service_rules_fire_on_a_struggling_daemon():
    reg = MetricsRegistry()
    reg.gauge("service_queue_depth", worker="predict-0").set(30)
    reg.gauge("service_queue_depth", worker="predict-1").set(30)
    for _ in range(100):
        reg.histogram("service_request_seconds", verb="predict").observe(0.5)
    states = AlertEngine().evaluate(reg.snapshot())
    by_name = {s.rule.name: s for s in states}
    assert by_name["service_queue_depth_high"].firing
    assert by_name["service_queue_depth_high"].value == 60.0
    assert by_name["service_p99_latency_high"].firing
    assert by_name["service_p99_latency_high"].value > 0.25
