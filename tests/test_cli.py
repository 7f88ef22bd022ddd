"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro import api
from repro.cli import main
from repro.io import load
from repro.models import ExtendedLMOModel, HeterogeneousHockneyModel

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def test_describe_prints_cluster(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "16 nodes" in out
    assert "Celeron" in out
    assert "M2=" in out


def test_describe_other_profile(capsys):
    assert main(["--profile", "mpich", "describe"]) == 0
    assert "MPICH" in capsys.readouterr().out


def test_estimate_hockney_writes_model(tmp_path, capsys):
    out_file = tmp_path / "hockney.json"
    assert main(["estimate", "--model", "hockney", "--out", str(out_file)]) == 0
    model = load(str(out_file))
    assert isinstance(model, HeterogeneousHockneyModel)
    assert model.n == 16
    assert "estimated hockney" in capsys.readouterr().out


def test_estimate_lmo_quick_with_empirical(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    assert main([
        "estimate", "--model", "lmo", "--quick", "--empirical",
        "--reps", "2", "--out", str(out_file),
    ]) == 0
    model = load(str(out_file))
    assert isinstance(model, ExtendedLMOModel)
    assert model.gather_irregularity is not None


def test_predict_from_saved_model(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", str(out_file)])
    capsys.readouterr()
    assert main(["predict", "--model-file", str(out_file),
                 "--nbytes", "65536"]) == 0
    out = capsys.readouterr().out
    assert "predicted scatter/linear" in out
    assert "ms" in out


def test_predict_gather_reports_regime(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--empirical",
          "--reps", "1", "--out", str(out_file)])
    capsys.readouterr()
    assert main(["predict", "--model-file", str(out_file),
                 "--operation", "gather", "--nbytes", "32768"]) == 0
    out = capsys.readouterr().out
    assert "regime: medium" in out


def test_predict_unsupported_combination(tmp_path, capsys):
    out_file = tmp_path / "hockney.json"
    main(["estimate", "--model", "hockney", "--out", str(out_file)])
    capsys.readouterr()
    # The full menu (bcast etc.) is extended-LMO only.
    assert main(["predict", "--model-file", str(out_file),
                 "--operation", "bcast", "--algorithm", "pipeline",
                 "--nbytes", "100"]) == 2
    assert "no prediction formula" in capsys.readouterr().err


def test_predict_answers_the_whole_menu_as_the_api_does(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", str(out_file)])
    capsys.readouterr()
    model = load(str(out_file))
    menu = [pair for pair in api.available_algorithms(model) if pair[0] != "p2p"]
    assert len(menu) == 14
    for operation, algorithm in menu:
        assert main(["predict", "--model-file", str(out_file),
                     "--operation", operation, "--algorithm", algorithm,
                     "--nbytes", "65536", "--format", "json"]) == 0, (operation, algorithm)
        doc = json.loads(capsys.readouterr().out)
        del doc["cache"]
        assert doc == api.predict(model, operation, algorithm, 65536).to_dict()


@pytest.fixture(scope="module")
def bad_input_dir(tmp_path_factory):
    """Saved 4-node models, a 16-node model of the default cluster (for
    ``drift``) and a telemetry snapshot (not a model)."""
    root = tmp_path_factory.mktemp("bad-input")
    cluster = api.load_cluster(nodes=4)
    for name in ("lmo", "hockney", "plogp"):
        outcome = api.estimate(cluster, model=name, reps=1, quick=True)
        api.save_model(outcome.model, str(root / f"{name}.json"))
    api.save_model(ExtendedLMOModel.from_ground_truth(api.load_cluster().ground_truth),
                   str(root / "lmo16.json"))
    (root / "snapshot.json").write_text(json.dumps(
        {"format": "repro-telemetry", "version": 1, "metrics": {}, "spans": [],
         "events": []}))
    return root


@pytest.mark.parametrize("argv", [
    pytest.param(["predict", "--model-file", "lmo.json", "--nbytes", "-5"],
                 id="predict-negative-nbytes"),
    pytest.param(["predict", "--model-file", "lmo.json", "--nbytes", "10", "--root", "99"],
                 id="predict-root-out-of-range"),
    pytest.param(["predict", "--model-file", "missing.json", "--nbytes", "10"],
                 id="predict-missing-model-file"),
    pytest.param(["predict", "--model-file", "snapshot.json", "--nbytes", "10"],
                 id="predict-snapshot-as-model"),
    pytest.param(["estimate", "--quick", "--reps", "1", "--out", "no-such-dir/x.json"],
                 id="estimate-unwritable-out"),
    pytest.param(["campaign", "run", "--journal", "c.jsonl", "--nodes", "1"],
                 id="campaign-one-node"),
    pytest.param(["measure", "--operation", "bogus", "--nbytes", "10"],
                 id="measure-unknown-operation"),
    pytest.param(["trace", "--operation", "bogus"], id="trace-unknown-operation"),
    pytest.param(["measure", "--operation", "scatterv", "--nbytes", "10"],
                 id="measure-variable-block"),
    pytest.param(["trace", "--operation", "gatherv"], id="trace-variable-block"),
    pytest.param(["measure", "--root", "40", "--nbytes", "10"], id="measure-root-out-of-range"),
    pytest.param(["suite", "--sizes", "abc"], id="suite-bad-sizes"),
    pytest.param(["plan", "--model-file", "lmo.json", "bcast:abc"], id="plan-bad-nbytes"),
    pytest.param(["partition", "--model-file", "hockney.json", "--total", "1000"],
                 id="partition-hockney-model"),
    pytest.param(["partition", "--model-file", "plogp.json", "--total", "1000"],
                 id="partition-plogp-model"),
    # Values that only a layer below the facade rejects.
    pytest.param(["measure", "--nbytes", "-5"], id="measure-negative-nbytes"),
    pytest.param(["trace", "--nbytes", "-5"], id="trace-negative-nbytes"),
    pytest.param(["estimate", "--quick", "--reps", "0", "--out", "x.json"],
                 id="estimate-zero-reps"),
    pytest.param(["drift", "--model-file", "lmo16.json", "--reps", "0"], id="drift-zero-reps"),
    pytest.param(["chaos", "--reps", "0"], id="chaos-zero-reps"),
    pytest.param(["drift", "--model-file", "lmo16.json", "--degrade-node", "99"],
                 id="drift-degrade-node-out-of-range"),
    pytest.param(["partition", "--model-file", "lmo.json", "--total", "1000", "--root", "99"],
                 id="partition-root-out-of-range"),
    pytest.param(["partition", "--model-file", "lmo.json", "--total", "-5"],
                 id="partition-negative-total"),
    pytest.param(["partition", "--model-file", "lmo.json", "--total", "1000",
                  "--work-rates", "abc"], id="partition-bad-work-rates"),
    pytest.param(["plan", "--model-file", "lmo.json", "bogus:1024"], id="plan-unknown-operation"),
    pytest.param(["plan", "--model-file", "lmo.json", "bcast:-5"], id="plan-negative-nbytes"),
    pytest.param(["plan", "--model-file", "hockney.json", "bcast:1024"],
                 id="plan-hockney-model"),
    pytest.param(["suite", "--sizes", "-5", "--operations", "bcast"],
                 id="suite-negative-sizes"),
])
def test_bad_input_is_one_stderr_line_and_exit_2(argv, bad_input_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], cwd=bad_input_dir,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stdout == ""


def test_measure_reports_ci(capsys):
    assert main(["measure", "--nbytes", "8192", "--max-reps", "6"]) == 0
    out = capsys.readouterr().out
    assert "reps, CI 95%" in out


def test_trace_renders_lanes(capsys):
    assert main(["trace", "--nbytes", "8192", "--max-lanes", "4",
                 "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "cpu0" in out
    assert "utilization" in out


def test_experiment_subcommand(capsys):
    assert main(["experiment", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "binomial tree" in out
    assert "[PASS]" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unknown experiment 'fig99'; available: ")
    assert "'accuracy_table'" in err and "'thresholds'" in err


def test_report_quick_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    assert main(["report", "--quick", "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert "ALL SHAPE CHECKS PASS" in text


def test_experiment_csv_flag(tmp_path, capsys):
    out_file = tmp_path / "fig2.csv"
    # fig2 has no numeric series: warns, still succeeds.
    assert main(["experiment", "fig2", "--csv", str(out_file)]) == 0
    assert "nothing written" in capsys.readouterr().err
    out_file2 = tmp_path / "fig1.csv"
    assert main(["experiment", "fig1", "--quick", "--csv", str(out_file2)]) == 0
    assert out_file2.read_text().startswith("nbytes,observed")


def test_suite_subcommand(capsys):
    assert main(["suite", "--operations", "bcast", "--sizes", "1024",
                 "--max-reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "bcast" in out and "*" in out


def test_partition_subcommand(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", str(out_file)])
    capsys.readouterr()
    assert main(["partition", "--model-file", str(out_file),
                 "--total", "1000000"]) == 0
    out = capsys.readouterr().out
    assert "min-makespan distribution" in out
    counts = [int(line.split(":")[1]) for line in out.splitlines()
              if line.strip().startswith("rank")]
    assert sum(counts) == 1000000


def test_partition_subcommand_bad_rates(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", str(out_file)])
    capsys.readouterr()
    assert main(["partition", "--model-file", str(out_file),
                 "--total", "1000", "--work-rates", "1e-9,2e-9"]) == 2


def test_plan_subcommand(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", str(out_file)])
    capsys.readouterr()
    assert main(["plan", "--model-file", str(out_file),
                 "bcast:65536:10", "allreduce:4096"]) == 0
    out = capsys.readouterr().out
    assert "predicted communication total" in out
    assert "bcast" in out and "allreduce" in out


def test_plan_subcommand_bad_spec(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "1",
          "--out", str(out_file)])
    capsys.readouterr()
    assert main(["plan", "--model-file", str(out_file), "bcast"]) == 2
    assert "bad call spec" in capsys.readouterr().err


def test_chaos_subcommand_heals(capsys):
    assert main(["chaos", "--nodes", "5", "--cycles", "2", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "fault plan" in out
    assert "slow node 1" in out  # default demo plan
    assert "bootstrap" in out
    assert "health log" in out
    assert "verdict:" in out


def test_chaos_subcommand_custom_plan(capsys):
    assert main([
        "chaos", "--nodes", "4", "--cycles", "1", "--reps", "2",
        "--slow-node", "2:3.0", "--fault-seed", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "slow node 2 x3" in out


def test_chaos_rejects_out_of_range_fault(capsys):
    assert main([
        "chaos", "--nodes", "4", "--slow-node", "9:2.0",
    ]) == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_chaos_rejects_bad_cluster_size(capsys):
    assert main(["chaos", "--nodes", "2"]) == 2
    assert "--nodes" in capsys.readouterr().err


def test_drift_subcommand_healthy_and_degraded(tmp_path, capsys):
    out_file = tmp_path / "lmo.json"
    main(["estimate", "--model", "lmo", "--quick", "--reps", "2",
          "--out", str(out_file)])
    capsys.readouterr()
    # Generous threshold: the quick reps=2 estimate is noisy (its worst
    # pair sits near 60%), but nowhere near a real degradation's 100%+.
    assert main(["drift", "--model-file", str(out_file),
                 "--threshold", "0.8"]) == 0
    assert "still accurate" in capsys.readouterr().out
    # A degraded node pushes its pairs far past any threshold.
    assert main(["drift", "--model-file", str(out_file),
                 "--threshold", "0.8", "--degrade-node", "5"]) == 1
    out = capsys.readouterr().out
    assert "implicated nodes: 5" in out
    assert "DRIFTED" in out


# -- campaign subcommand -------------------------------------------------------

@pytest.mark.campaign
def test_campaign_run_writes_model_and_journal(tmp_path, capsys):
    journal = tmp_path / "c.jsonl"
    out_file = tmp_path / "model.json"
    assert main(["campaign", "run", "--journal", str(journal),
                 "--nodes", "4", "--timeout", "5.0",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "36/36 experiments measured" in out
    assert "coverage 100.0%" in out
    assert isinstance(load(str(out_file)), ExtendedLMOModel)
    assert journal.exists()


@pytest.mark.campaign
def test_campaign_status_subcommand(tmp_path, capsys):
    journal = tmp_path / "c.jsonl"
    main(["campaign", "run", "--journal", str(journal),
          "--nodes", "4", "--timeout", "5.0"])
    capsys.readouterr()
    assert main(["campaign", "status", "--journal", str(journal)]) == 0
    assert "(complete)" in capsys.readouterr().out


@pytest.mark.campaign
def test_campaign_budget_stop_then_resume(tmp_path, capsys):
    journal = tmp_path / "c.jsonl"
    assert main(["campaign", "run", "--journal", str(journal),
                 "--nodes", "4", "--timeout", "5.0",
                 "--max-repetitions", "20"]) == 1
    out = capsys.readouterr().out
    assert "budget_repetitions" in out
    assert "resumable journal" in out
    # Resume derives the cluster size from the journal header.
    assert main(["campaign", "resume", "--journal", str(journal),
                 "--max-repetitions", "1000000"]) == 0
    assert "campaign complete" in capsys.readouterr().out


@pytest.mark.campaign
def test_campaign_json_format(tmp_path, capsys):
    import json as json_mod
    journal = tmp_path / "c.jsonl"
    assert main(["campaign", "run", "--journal", str(journal),
                 "--nodes", "4", "--timeout", "5.0",
                 "--format", "json"]) == 0
    doc = json_mod.loads(capsys.readouterr().out)
    assert doc["coverage"] == 1.0
    assert doc["degraded"] is False
    assert doc["breakers"]["counts"]["closed"] == 4


@pytest.mark.campaign
def test_campaign_errors_go_to_stderr(tmp_path, capsys):
    journal = tmp_path / "c.jsonl"
    main(["campaign", "run", "--journal", str(journal),
          "--nodes", "4", "--timeout", "5.0"])
    capsys.readouterr()
    # Journal exists -> fresh run refuses it.
    assert main(["campaign", "run", "--journal", str(journal),
                 "--nodes", "4"]) == 2
    assert "already exists" in capsys.readouterr().err
    # Status of a missing journal.
    assert main(["campaign", "status", "--journal",
                 str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read journal" in capsys.readouterr().err


@pytest.mark.campaign
def test_campaign_rejects_bad_config_values(tmp_path, capsys):
    assert main(["campaign", "run", "--journal", str(tmp_path / "c.jsonl"),
                 "--nodes", "4", "--reps", "-2"]) == 2
    assert "reps" in capsys.readouterr().err


@pytest.mark.campaign
def test_chaos_crash_stage_reports_breakers(capsys):
    assert main(["chaos", "--nodes", "4", "--cycles", "1",
                 "--crash-after", "8", "--crash-node", "3"]) == 0
    out = capsys.readouterr().out
    assert "process crash injected" in out
    assert "resuming from the journal" in out
    assert "breaker node 3: open" in out
    assert "quarantined nodes: [3]" in out


@pytest.mark.campaign
def test_chaos_crash_stage_json(capsys):
    import json as json_mod
    assert main(["chaos", "--nodes", "4", "--cycles", "1",
                 "--crash-after", "8", "--format", "json"]) == 0
    doc = json_mod.loads(capsys.readouterr().out)
    campaign = doc["campaign"]
    assert campaign["crashed_and_resumed"] is True
    assert campaign["coverage"] == 1.0
    assert campaign["breakers"]["counts"]["closed"] == 4
