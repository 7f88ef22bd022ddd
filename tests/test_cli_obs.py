"""CLI surface of the telemetry layer: --metrics-out, obs, trace export.

These are the acceptance paths from the observability issue: a campaign
run must leave a queryable snapshot behind, ``repro obs`` must re-render
it (including valid Prometheus text exposition), ``repro trace export``
must round-trip through Chrome trace JSON, and a chaos run over a flaky
link must narrate exactly the RTO escalations the injector reports.
"""

import json
import re

import pytest

from repro.cli import main
from repro.obs import runtime as _obs
from tests.obs.test_metrics import assert_valid_prometheus


@pytest.fixture(autouse=True)
def _telemetry_off():
    _obs.disable()
    yield
    _obs.disable()


@pytest.fixture()
def snapshot(tmp_path, capsys):
    """One finished 4-node campaign and its telemetry snapshot."""
    journal = str(tmp_path / "camp.jsonl")
    metrics = str(tmp_path / "metrics.json")
    assert main(["campaign", "run", "--journal", journal, "--nodes", "4",
                 "--metrics-out", metrics]) == 0
    capsys.readouterr()
    return journal, metrics


def _value(doc, name, **labels):
    total = 0.0
    for sample in doc["metrics"].get(name, {}).get("samples", []):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


def test_campaign_metrics_out_writes_live_snapshot(snapshot):
    _journal, metrics = snapshot
    doc = json.load(open(metrics))
    assert doc["format"] == "repro-telemetry" and doc["version"] == 1
    # Non-zero unit, journal and breaker metrics — the acceptance bar.
    assert _value(doc, "campaign_units_total", outcome="done") == 36
    assert _value(doc, "journal_appends_total") >= 72
    assert _value(doc, "breaker_nodes", state="closed") == 4
    assert _value(doc, "sim_events_total") > 0
    assert doc["metrics"]["journal_append_seconds"]["samples"][0]["count"] >= 72
    assert any(s["name"] == "campaign.run" for s in doc["spans"])
    # The CLI turned telemetry off again on the way out.
    assert _obs.ACTIVE is None


def test_obs_report_summarizes_snapshot(snapshot, capsys):
    _journal, metrics = snapshot
    assert main(["obs", "report", "--metrics", metrics]) == 0
    out = capsys.readouterr().out
    assert "campaign_units_total{outcome=done}: 36" in out
    assert "journal_append_seconds" in out
    assert "campaign.run: 1 x" in out

    assert main(["obs", "report", "--metrics", metrics,
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "repro-telemetry"


def test_obs_export_prom_is_valid_exposition(snapshot, capsys):
    _journal, metrics = snapshot
    assert main(["obs", "export", "--metrics", metrics]) == 0
    text = capsys.readouterr().out
    assert_valid_prometheus(text)
    assert re.search(r'campaign_units_total\{outcome="done"\} 36', text)
    assert 'journal_append_seconds_bucket{le="+Inf"}' in text


def test_obs_export_chrome_and_json(snapshot, tmp_path, capsys):
    _journal, metrics = snapshot
    out = str(tmp_path / "trace.json")
    assert main(["obs", "export", "--metrics", metrics,
                 "--format", "chrome", "--out", out]) == 0
    capsys.readouterr()
    doc = json.load(open(out))
    names = {e["name"] for e in doc["traceEvents"]}
    assert "campaign.run" in names and "campaign.unit" in names

    assert main(["obs", "export", "--metrics", metrics,
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == 1


def test_obs_rejects_non_snapshot_files(tmp_path, capsys):
    bogus = tmp_path / "model.json"
    bogus.write_text(json.dumps({"format": "lmo-model"}))
    assert main(["obs", "report", "--metrics", str(bogus)]) == 2
    assert "not a telemetry snapshot" in capsys.readouterr().err
    assert main(["obs", "report", "--metrics", str(tmp_path / "absent.json")]) == 2


def test_campaign_status_json_schema(snapshot, capsys):
    journal, _metrics = snapshot
    assert main(["campaign", "status", "--journal", journal,
                 "--format", "json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["coverage"] == 1.0
    assert status["quarantined"] == []
    assert status["solved_triplets"] == status["total_triplets"] == 4
    assert status["completed"] == status["total_experiments"] == 36
    assert status["complete"] is True


def test_predict_json_reports_cache_stats(tmp_path, capsys):
    model_file = str(tmp_path / "lmo.json")
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", model_file])
    capsys.readouterr()
    for expected_hits in (0, 1):
        assert main(["predict", "--model-file", model_file,
                     "--nbytes", "65536", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cache = payload["cache"]
        assert cache["hits"] >= expected_hits
        assert cache["misses"] >= 1
        assert set(cache) == {"hits", "misses", "evictions", "size", "maxsize"}


def test_trace_export_chrome_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "trace.json")
    assert main(["trace", "export", "--chrome", out, "--nbytes", "4096",
                 "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["out"] == out
    doc = json.load(open(out))
    sim_lanes = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert any(name.startswith("sim:cpu") for name in sim_lanes)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == meta["intervals"]
    assert len(sim_lanes) == len(meta["lanes"])
    assert all(e["dur"] >= 0 for e in slices)


def test_trace_export_requires_chrome_path(capsys):
    assert main(["trace", "export", "--nbytes", "4096"]) == 2
    assert "--chrome" in capsys.readouterr().err


def test_trace_show_still_default(capsys):
    assert main(["trace", "--nbytes", "4096"]) == 0
    assert "root CPU utilization" in capsys.readouterr().out


def test_chaos_narrates_every_injected_escalation(tmp_path, capsys):
    metrics = str(tmp_path / "chaos.json")
    assert main(["chaos", "--nodes", "4", "--cycles", "1", "--reps", "2",
                 "--flaky-link", "0:3:0.3", "--metrics-out", metrics]) == 0
    out = capsys.readouterr().out
    match = re.search(r"loss escalations: (\d+)", out)
    assert match, out
    injected = int(match.group(1))
    assert injected > 0

    doc = json.load(open(metrics))
    assert _value(doc, "rto_escalations_total", cause="loss") == injected
    events = [e for e in doc["events"]
              if e["name"] == "rto_escalation" and e["cause"] == "loss"]
    assert len(events) == injected
    assert all(e["level"] == "warning" and e["delay"] > 0 for e in events)
    # Heal-cycle narration rides in the same snapshot.
    assert any(e["name"] == "heal_cycle" for e in doc["events"])


def test_obs_dashboard_writes_self_contained_html(snapshot, tmp_path, capsys):
    _journal, metrics = snapshot
    out = str(tmp_path / "dash.html")
    bench = tmp_path / "BENCH_fake.json"
    bench.write_text(json.dumps({"overhead_fraction": 0.003}))
    assert main(["obs", "dashboard", "--metrics", metrics, "--out", out,
                 "--bench", str(bench)]) == 0
    text = capsys.readouterr().out
    assert "repro model-fidelity observatory" in text
    assert f"dashboard written to {out}" in text
    html = open(out).read()
    assert html.startswith("<!DOCTYPE html>")
    lowered = html.lower()
    assert "<script" not in lowered
    assert "http://" not in lowered and "https://" not in lowered
    assert "<link" not in lowered
    assert "BENCH_fake.json" in html
    assert "escalation_rate_high" in html  # the alert catalog rendered


def test_obs_dashboard_format_json_roundtrips(snapshot, tmp_path, capsys):
    _journal, metrics = snapshot
    out = str(tmp_path / "dash.html")
    assert main(["obs", "dashboard", "--metrics", metrics, "--out", out,
                 "--format", "json", "--bench", str(tmp_path / "none.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["title"] == "repro model-fidelity observatory"
    assert {a["rule"]["name"] for a in data["alerts"]} >= {
        "escalation_rate_high", "breaker_open", "model_drift_high",
        "residual_p95_high",
    }
    assert open(out).read().startswith("<!DOCTYPE html>")


def test_obs_dashboard_rejects_bad_snapshot(tmp_path, capsys):
    bogus = tmp_path / "x.json"
    bogus.write_text(json.dumps({"format": "nope"}))
    assert main(["obs", "dashboard", "--metrics", str(bogus),
                 "--out", str(tmp_path / "d.html")]) == 2
    assert "not a telemetry snapshot" in capsys.readouterr().err


def test_obs_watch_bounded_refreshes(snapshot, capsys):
    _journal, metrics = snapshot
    assert main(["obs", "watch", "--metrics", metrics, "--count", "2",
                 "--interval", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("repro model-fidelity observatory") == 2


def test_obs_watch_format_json_roundtrips(snapshot, capsys):
    _journal, metrics = snapshot
    assert main(["obs", "watch", "--metrics", metrics, "--count", "1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["title"] == "repro model-fidelity observatory"


def test_obs_watch_missing_file_is_an_error(tmp_path, capsys):
    assert main(["obs", "watch", "--metrics", str(tmp_path / "absent.json"),
                 "--count", "1"]) == 2
    assert "cannot" in capsys.readouterr().err.lower()


def test_suite_metrics_out(tmp_path, capsys):
    metrics = str(tmp_path / "suite.json")
    assert main(["suite", "--sizes", "1024", "--max-reps", "2",
                 "--metrics-out", metrics]) == 0
    capsys.readouterr()
    doc = json.load(open(metrics))
    assert doc["format"] == "repro-telemetry"
    assert _value(doc, "sim_events_total") > 0


# -- obs trace stitch -------------------------------------------------------------
def _write_snapshot(path, epoch, spans):
    json.dump({"format": "repro-telemetry", "version": 1, "metrics": {},
               "spans_epoch_unix": epoch, "spans": spans, "events": []},
              open(path, "w"))


def _span(name, start, end, trace_id):
    return {"name": name, "start": start, "end": end, "span_id": 1,
            "parent_id": None, "attrs": {}, "trace_id": trace_id}


def test_obs_trace_stitch_lists_and_stitches(tmp_path, capsys):
    trace_id = "c" * 32
    client = str(tmp_path / "client.json")
    server = str(tmp_path / "server.json")
    _write_snapshot(client, 100.0, [_span("client.request", 0.0, 1.0, trace_id)])
    _write_snapshot(server, 100.2, [_span("serve.request", 0.1, 0.7, trace_id)])

    assert main(["obs", "trace", "stitch", "--in", f"client={client}",
                 "--in", f"server={server}", "--list"]) == 0
    listing = capsys.readouterr().out
    assert trace_id in listing and "client,server" in listing

    out = str(tmp_path / "stitched.json")
    assert main(["obs", "trace", "stitch", "--in", f"client={client}",
                 "--in", f"server={server}", "--trace-id", trace_id,
                 "--out", out]) == 0
    doc = json.load(open(out))
    lanes = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert lanes == {"client", "server"}


def test_obs_trace_stitch_bare_path_uses_file_stem(tmp_path, capsys):
    path = str(tmp_path / "worker7.json")
    _write_snapshot(path, 10.0, [_span("serve.worker", 0.0, 0.5, "d" * 32)])
    assert main(["obs", "trace", "stitch", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    lanes = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert lanes == {"worker7"}


def test_obs_trace_stitch_error_paths(tmp_path, capsys):
    assert main(["obs", "trace", "stitch"]) == 2
    assert "nothing to stitch" in capsys.readouterr().err

    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"nope": 1}')
    assert main(["obs", "trace", "stitch", "--in", str(bogus)]) == 2
    assert "cannot read telemetry snapshot" in capsys.readouterr().err

    good = str(tmp_path / "good.json")
    _write_snapshot(good, 10.0, [_span("s", 0.0, 0.1, "e" * 32)])
    assert main(["obs", "trace", "stitch", "--in", good,
                 "--trace-id", "f" * 32]) == 2
    assert "stitch failed" in capsys.readouterr().err


# -- client --traceparent ---------------------------------------------------------
def test_client_rejects_malformed_traceparent(capsys):
    assert main(["client", "health", "--traceparent", "garbage"]) == 2
    assert "malformed --traceparent" in capsys.readouterr().err


# -- obs dashboard bench hardening ------------------------------------------------
def test_obs_dashboard_survives_truncated_bench_file(snapshot, tmp_path,
                                                     capsys):
    """A half-written BENCH_*.json (a crashed benchmark, a torn copy)
    must become a warning panel, never a traceback."""
    _journal, metrics = snapshot
    out = str(tmp_path / "dash.html")
    truncated = tmp_path / "BENCH_torn.json"
    truncated.write_text('{"bench": "torn", "guard_ns"')  # mid-key EOF
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps({"overhead_fraction": 0.003}))
    wrong_shape = tmp_path / "BENCH_list.json"
    wrong_shape.write_text("[1, 2, 3]")

    assert main(["obs", "dashboard", "--metrics", metrics, "--out", out,
                 "--bench", str(truncated), "--bench", str(good),
                 "--bench", str(wrong_shape),
                 "--bench", str(tmp_path / "BENCH_absent.json")]) == 0
    text = capsys.readouterr().out
    assert "BENCH_torn.json skipped" in text
    assert "BENCH_list.json skipped" in text
    assert "BENCH_absent.json skipped" in text
    html = open(out).read()
    assert "Ingest warnings" in html
    assert "BENCH_torn.json" in html
    assert "BENCH_good.json" in html  # the healthy file still renders


# -- files written by servers that kept a timeline ------------------------------
_OLD_TIMELINE = {
    "format": "repro-timeline", "version": 1,
    "tiers": [{"width": 1.0, "capacity": 120}, {"width": 10.0, "capacity": 120},
              {"width": 60.0, "capacity": 180}],
    "ticks": 2, "dropped": 0, "last_tick": 101.5,
    "windows": [{"width": 1.0, "index": 101, "ticks": 1, "counters": [
        {"name": "service_requests_total",
         "labels": {"outcome": "ok", "verb": "predict"}, "value": 2.0}]}],
}

_OLD_SLO_STATUS = {
    "slo": {"name": "service_availability", "objective": 0.999, "kind": "ratio",
            "metric": "service_requests_total", "labels": {},
            "good_labels": {"outcome": "ok"}, "bad_labels": {},
            "threshold": 0.0, "description": "99.9% of requests succeed"},
    "burn_fast": 0.0, "burn_slow": 0.0, "fast_window": 300.0,
    "slow_window": 3600.0, "budget_window": 10800.0,
    "budget_remaining": 1.0, "good": 5.0, "total": 5.0,
}


def test_snapshots_with_timeline_and_replies_with_slos_still_read(tmp_path, capsys):
    """Older ``repro serve`` processes put a ``timeline`` section in the
    snapshot and ``slos`` in the ``obs`` reply; both are ignored."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("service_requests_total", verb="predict", outcome="ok").inc(5)
    trace_id = "a" * 32
    snapshot = {
        "format": "repro-telemetry", "version": 1,
        "metrics": registry.snapshot(),
        "spans": [_span("serve.request", 0.1, 0.2, trace_id)],
        "spans_epoch_unix": 100.0, "events": [],
        "dropped": {"spans": 0, "events": 0},
        "timeline": _OLD_TIMELINE,
    }
    metrics = str(tmp_path / "snap.json")
    json.dump(snapshot, open(metrics, "w"))
    reply = str(tmp_path / "reply.json")
    json.dump({"enabled": True, "telemetry": snapshot, "alerts": [],
               "firing": [], "slos": [_OLD_SLO_STATUS]}, open(reply, "w"))

    assert main(["obs", "report", "--metrics", metrics]) == 0
    assert "service_requests_total" in capsys.readouterr().out
    out = str(tmp_path / "dash.html")
    assert main(["obs", "dashboard", "--metrics", metrics, "--out", out]) == 0
    assert "repro model-fidelity observatory" in capsys.readouterr().out
    assert main(["obs", "watch", "--metrics", metrics, "--count", "1"]) == 0
    assert "repro model-fidelity observatory" in capsys.readouterr().out
    assert main(["obs", "trace", "stitch", "--in", f"server={reply}",
                 "--list"]) == 0
    assert trace_id in capsys.readouterr().out
