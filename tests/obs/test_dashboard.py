"""Dashboard tests: build/render/watch, plus the fig5-style acceptance run.

The acceptance bar from the observatory issue: on a fig5-style run
(gather traffic through the irregularity region), ``build_dashboard``
must produce per-model residual scorecards, a live M1/M2 within 2x of
the empirical thresholds, and a fired escalation-rate alert — and
``render_html`` must emit one self-contained HTML file.
"""

import io
import json

import pytest

import repro.api as api
from repro.obs import runtime as _obs
from repro.obs.insight import alerts, dashboard
from repro.obs.insight.alerts import AlertEngine
from repro.obs.insight.dashboard import (
    build_dashboard,
    render_html,
    render_terminal,
    watch,
)
from repro.obs.insight.residuals import ResidualMonitor
from repro.obs.runtime import Telemetry


def _sample_doc():
    """A synthetic snapshot with residuals, escalations, events, spans."""
    tel = Telemetry()
    reg = tel.registry
    monitor = ResidualMonitor(reg)
    monitor.record("lmo", "gather/linear", 16384, 1.1, 1.0)
    monitor.record("lmo", "gather/linear", 65536, 1.6, 1.0)
    monitor.record("hockney", "gather/linear", 16384, 0.4, 1.0)
    for i in range(50):
        reg.histogram("sim_transfer_bytes", lo=0, hi=28).observe(16384)
        if i < 10:
            reg.histogram("sim_escalated_transfer_bytes", lo=0, hi=28).observe(16384)
    reg.counter("rto_escalations_total", cause="incast").inc(10)
    reg.histogram("rto_escalation_seconds", cause="incast").observe(0.2)
    reg.gauge("breaker_nodes", state="open").set(1)
    tel.events.warning("rto_escalation", cause="incast", delay=0.2)
    tel.events.info("heal_cycle", action="ok")
    with tel.spans.span("campaign.run"):
        pass
    return tel.to_dict()


def test_build_dashboard_shape():
    data = build_dashboard(_sample_doc())
    assert data["title"] == "repro model-fidelity observatory"
    tiles = {t["label"]: t for t in data["tiles"]}
    assert tiles["residual pairs"]["value"] == "3"
    assert tiles["RTO escalations"]["value"] == "10"
    assert tiles["breakers open"]["value"] == "1"
    assert tiles["breakers open"]["status"] == "serious"
    assert tiles["escalation rate"]["value"] == "20.0%"
    assert int(tiles["alerts firing"]["value"]) >= 2  # escalation + breaker
    by_rule = {a["rule"]["name"]: a for a in data["alerts"]}
    assert by_rule["escalation_rate_high"]["firing"]
    assert by_rule["breaker_open"]["firing"]
    assert {c["model"] for c in data["scorecards"]} == {"lmo", "hockney"}
    assert data["irregularity"] is not None
    assert data["irregularity"]["m1"] == 8192.0
    assert data["events_by_name"] == {"heal_cycle": 1, "rto_escalation": 1}
    assert data["spans_by_name"]["campaign.run"]["count"] == 1
    # The whole data dict is JSON-ready (the CLI's --format json path).
    assert json.loads(json.dumps(data)) == data


def test_build_dashboard_builds_the_scorecards_once(monkeypatch):
    """The alert engine reuses the dashboard's scorecards; the residual
    rules read the same cards the panel shows."""
    calls = []
    real = dashboard.scorecards

    def counted(metrics):
        calls.append(1)
        return real(metrics)

    monkeypatch.setattr(dashboard, "scorecards", counted)
    monkeypatch.setattr(alerts, "scorecards", counted)
    doc = _sample_doc()
    data = build_dashboard(doc)
    assert len(calls) == 1
    # The same verdicts an engine reaches when it builds the cards itself.
    alone = AlertEngine().evaluate(doc["metrics"])
    assert len(calls) == 2
    assert data["alerts"] == [a.to_dict() for a in alone]


def test_build_dashboard_rejects_non_snapshot():
    with pytest.raises(ValueError):
        build_dashboard({"format": "something-else"})


def test_build_dashboard_on_minimal_snapshot():
    doc = Telemetry().to_dict()
    data = build_dashboard(doc)
    assert data["scorecards"] == []
    assert data["irregularity"] is None
    assert not any(a["firing"] for a in data["alerts"])


def test_render_terminal_contains_everything():
    text = render_terminal(build_dashboard(_sample_doc()))
    assert "repro model-fidelity observatory" in text
    assert "FIRING" in text and "escalation_rate_high" in text
    assert "lmo" in text and "hockney" in text
    assert "live gather irregularity" in text
    assert "M1 ~ 8 KB" in text


def test_render_html_is_self_contained():
    data = build_dashboard(
        _sample_doc(),
        bench=[("BENCH_obs.json", {"overhead_fraction": 0.004})],
    )
    html = render_html(data)
    assert html.startswith("<!DOCTYPE html>")
    # Self-contained: no scripts, no external fetches of any kind.
    lowered = html.lower()
    assert "<script" not in lowered
    assert "http://" not in lowered and "https://" not in lowered
    assert "<link" not in lowered and "@import" not in lowered
    assert ' src="' not in lowered
    # Content: tiles, alerts, scorecards, irregularity chart + table twin.
    assert "escalation_rate_high" in html
    assert "lmo" in html and "hockney" in html
    assert "<svg" in html and "M1" in html and "M2" in html
    assert "prefers-color-scheme: dark" in html
    assert "BENCH_obs.json" in html
    assert "overhead_fraction" in html


def test_render_html_escapes_hostile_labels():
    tel = Telemetry()
    ResidualMonitor(tel.registry).record(
        '<b onmouseover="x()">&m', "gather/linear", 64, 1.1, 1.0
    )
    html = render_html(build_dashboard(tel.to_dict()))
    assert "<b onmouseover" not in html
    assert "&lt;b onmouseover=" in html


def test_watch_refreshes_and_tracks_lifecycle(tmp_path):
    quiet = Telemetry().to_dict()
    noisy = _sample_doc()
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(quiet))

    sleeps = []
    docs = iter([noisy, quiet])

    def fake_sleep(seconds):
        sleeps.append(seconds)
        path.write_text(json.dumps(next(docs)))

    stream = io.StringIO()
    tel = _obs.enable(fresh=True)
    data = watch(str(path), interval=0.5, count=3, stream=stream,
                 sleep=fake_sleep)
    assert sleeps == [0.5, 0.5]
    output = stream.getvalue()
    assert output.count("repro model-fidelity observatory") == 3
    # One rising edge and one falling edge per firing rule — the engine
    # persisted across refreshes, so transitions were narrated once.
    fired = tel.events.events("alert_firing")
    resolved = tel.events.events("alert_resolved")
    assert {e["rule"] for e in fired} >= {"escalation_rate_high", "breaker_open"}
    assert len(fired) == len(resolved)
    # Returns the last data dict (the quiet snapshot again).
    assert data["scorecards"] == []


def test_watch_json_formatter_roundtrips(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(_sample_doc()))
    stream = io.StringIO()
    watch(str(path), count=1, stream=stream,
          formatter=lambda data: json.dumps(data, indent=2))
    doc = json.loads(stream.getvalue())
    assert doc["title"] == "repro model-fidelity observatory"


def test_fig5_style_chaos_run_acceptance():
    """The issue's acceptance scenario, end to end in-process.

    Estimate the extended LMO empirically (offline M1/M2), then stream a
    gather sweep through the irregularity region under fresh telemetry:
    the dashboard must show residual scorecards, a live M1/M2 within 2x
    of the empirical thresholds, and a fired escalation-rate alert.
    """
    cluster = api.load_cluster(nodes=6, seed=3)
    outcome = api.estimate(cluster, "lmo", quick=True, empirical=True)
    model = outcome.model
    reference = model.gather_irregularity
    assert reference is not None

    tel = _obs.enable(fresh=True)
    try:
        for nbytes in (16384, 24576, 49152, 65536):
            api.measure(cluster, "gather", "linear", nbytes, max_reps=6,
                        models={"lmo": model})
        doc = tel.to_dict()
    finally:
        _obs.disable()

    data = build_dashboard(doc)

    # Scorecards: the lmo model scored on the gather sweep.
    assert [c["model"] for c in data["scorecards"]] == ["lmo"]
    assert data["scorecards"][0]["count"] >= 4

    # Live irregularity within 2x of the offline empirical thresholds.
    live = data["irregularity"]
    assert live is not None
    for live_value, ref_value in (
        (live["m1"], reference.m1),
        (live["m2"], reference.m2),
        (live["escalation_value"], reference.escalation_value),
    ):
        ratio = max(live_value, ref_value) / min(live_value, ref_value)
        assert ratio <= 2.0, (live_value, ref_value)

    # The escalation-rate alert fired.
    by_rule = {a["rule"]["name"]: a for a in data["alerts"]}
    assert by_rule["escalation_rate_high"]["firing"]
    assert by_rule["escalation_rate_high"]["value"] > 0.02

    # And the HTML artifact carries all of it, self-contained.
    html = render_html(data)
    assert "<script" not in html.lower()
    assert "lmo" in html
    assert "escalation_rate_high" in html
    assert "M1" in html and "M2" in html


# -- trace panel ------------------------------------------------------------------
def _traced_doc():
    from repro.obs import trace as _trace
    import random

    tel = Telemetry()
    ctx = _trace.new_context(random.Random(8))
    with _trace.use(ctx):
        with tel.spans.span("client.request"):
            with tel.spans.span("serve.request"):
                pass
    with tel.spans.span("untraced"):
        pass
    return tel.to_dict(), ctx.trace_id


def test_trace_panel_groups_spans_by_trace_id():
    doc, trace_id = _traced_doc()
    data = build_dashboard(doc)
    assert set(data["traces"]) == {trace_id}
    entry = data["traces"][trace_id]
    assert entry["spans"] == 2
    assert entry["names"] == ["client.request", "serve.request"]
    text = render_terminal(data)
    assert "traces:" in text and trace_id in text
    html = render_html(data)
    assert trace_id in html


def test_panels_degrade_gracefully_when_absent():
    data = build_dashboard(_sample_doc())
    assert data["traces"] == {}
    text = render_terminal(data)
    assert "traces:" not in text
    html = render_html(data)
    assert "no traced spans" in html
