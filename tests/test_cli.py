"""Command line interface: subcommands, file outputs, error paths, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dualmind.cli import main
from dualmind.core import BUILTIN_SCENARIOS, Provenance, builtin_scenario, scenario_to_dict, validate_config
from dualmind.dmwm import DmwmScheduler
from dualmind.harness import run_experiment, write_runs_csv
from dualmind.twin import model_error_matrix
import rewrite_goldens
from helpers import GOLDEN_SHA256, make_cfg, recorded_episode, sha256_of


def test_scenario_show_round_trips(capsys):
    assert main(["scenario", "show", "deadline"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == scenario_to_dict(builtin_scenario("deadline"))


_NEVER_PLANNED = "warning: scenario interference has no 3 pairwise conflict-free nodes"


def test_scenario_show_warns_when_no_conflict_free_set_exists(capsys):
    assert main(["scenario", "show", "interference"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == scenario_to_dict(builtin_scenario("interference"))
    assert captured.err.startswith(_NEVER_PLANNED) and captured.err.count("\n") == 1
    for name in ("default", "bursty", "deadline"):
        assert main(["scenario", "show", name]) == 0
        assert capsys.readouterr().err == ""


def test_run_campaign_and_trace_warn_when_no_conflict_free_set_exists(tmp_path, capsys):
    grid = ["--runs", "1", "--steps", "5"]
    commands = {
        "run": ["run", "--scenario", "interference"] + grid,
        "campaign": ["campaign"] + grid,
        "trace": ["trace", "--scenario", "interference"],
    }
    for command, args in commands.items():
        assert main(args + ["--out", str(tmp_path / command)]) == 0
        err = capsys.readouterr().err
        assert err.startswith(_NEVER_PLANNED) and err.count("\n") == 1, command  # once, for the ring only
    # silent where dmwm plans, and where dmwm does not run
    assert main(["run", "--scenario", "default"] + grid + ["--out", str(tmp_path / "quiet")]) == 0
    assert capsys.readouterr().err == ""
    lqf = ["run", "--scenario", "interference", "--policy", "lqf"] + grid
    assert main(lqf + ["--out", str(tmp_path / "lqf")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("schedule.csv", "model_error.csv", "queue_lengths.csv", "decisions.csv"):
        assert sha256_of(tmp_path / "trace" / name) == GOLDEN_SHA256[f"trace --seed 42 {name}"]["interference"]


def test_scenario_show_unknown(capsys):
    assert main(["scenario", "show", "rushhour"]) == 2
    err = capsys.readouterr().err
    assert "default" in err and "bursty" in err


def test_unknown_policy_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in ("dmwm", "random", "lqf", "deadline", "rr", "qlearn"):
        assert name in err


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "r"
    code = main(
        ["run", "--scenario", "bursty", "--policy", "lqf", "--runs", "2",
         "--steps", "40", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    runs_csv = (out / "runs.csv").read_text()
    assert runs_csv.startswith("scenario,policy,run,")
    assert runs_csv.endswith("\n")
    assert len(runs_csv.strip().splitlines()) == 3  # header + 2 runs
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"][0]["policy"] == "lqf"
    assert summary["metadata"]["runs"] == 2


def test_run_byte_identical_across_invocations(tmp_path):
    args = ["run", "--policy", "dmwm", "--runs", "2", "--steps", "50", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("runs.csv", "summary.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_accepts_scenario_file(tmp_path):
    doc = scenario_to_dict(builtin_scenario("interference"))
    doc["steps"] = 30
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--policy", "random",
                 "--runs", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"][0]["scenario"] == "ring"


def test_run_rejects_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_nodes": 3}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "missing field" in capsys.readouterr().err


def test_run_rejects_nan_burst_amplitudes(tmp_path, capsys):
    doc = scenario_to_dict(builtin_scenario("bursty"))
    doc["burst_amplitude_range"] = [float("nan"), float("nan")]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "burst_amplitude_range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value", [("lambda_base", [0.5, 0.6, 2000.0, 0.8, 0.9]), ("burst_amplitude_range", [3.0, 1e6])]
)
def test_run_rejects_rates_past_the_sampler_cap(tmp_path, capsys, field, value):
    # past a rate of about 745 the Poisson sampler returned about 746 whatever the rate
    doc = scenario_to_dict(builtin_scenario("bursty"))
    doc[field] = value
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "x").exists()


def test_run_rejects_non_object_scenario_file(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text("5")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: scenario: need a JSON object, got 5\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_rejects_workers_below_one(tmp_path, capsys, workers):
    args = ["run", "--runs", "1", "--steps", "10", "--workers", workers, "--out", str(tmp_path)]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: need at least one worker\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["trace", "--run-index", "-1"], "run_index must be non-negative, got -1"),
        (["run", "--runs", "0", "--steps", "10"], "need at least one run"),
        (["run", "--runs", "1", "--steps", "10", "--workers", "0"], "need at least one worker"),
        (["campaign", "--runs", "0", "--steps", "10"], "need at least one run"),
        (["campaign", "--runs", "1", "--steps", "10", "--workers", "0"], "need at least one worker"),
    ],
    ids=["trace-run_index", "run-runs", "run-workers", "campaign-runs", "campaign-workers"],
)
def test_rejected_run_creates_no_out_dir(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_scenario_file_with_huge_rate_is_rejected(tmp_path, capsys):
    doc = scenario_to_dict(builtin_scenario("bursty"))
    doc["burst_probability"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", "show", str(path)]) == 2
    assert capsys.readouterr().err == "error: burst_probability: integer too large for a float\n"


def test_scenario_file_with_huge_deadline_is_rejected(tmp_path, capsys):
    doc = scenario_to_dict(builtin_scenario("deadline"))
    doc["deadlines"] = [10**400, None, 10, None, 10]
    doc["steps"] = 5
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--policy", "deadline", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: deadlines: finite deadlines must lie in [1, 2**63); null means none\n"
    assert not out.exists()

    doc["deadlines"][0] = 2**63 - 1  # the largest accepted deadline runs
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--policy", "deadline", "--runs", "1",
                 "--out", str(out)]) == 0


def test_scenario_file_with_huge_buffer_is_rejected(tmp_path, capsys):
    doc = scenario_to_dict(builtin_scenario("default"))
    doc["buffer"] = 2**31
    doc["steps"] = 5
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--policy", "lqf", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: buffer: buffer must lie in [1, 2**31)\n"
    assert not out.exists()

    doc["buffer"] = 2**31 - 1  # the largest accepted buffer runs
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--policy", "lqf", "--runs", "1", "--out", str(out)]) == 0


def test_deeply_nested_scenario_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["scenario", "show", str(path)]) == 2
    assert capsys.readouterr().err == "error: scenario: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "command", [key for key in GOLDEN_SHA256 if key.startswith("run ")]
)
def test_run_matches_golden(tmp_path, command):
    assert main(command.split() + ["--out", str(tmp_path)]) == 0
    for name, golden in GOLDEN_SHA256[command].items():
        assert sha256_of(tmp_path / name) == golden, name


def test_run_horizon_reaches_the_planner(tmp_path):
    # the golden qlearn command passes --horizon too, but qlearn ignores it
    written = {}
    for horizon in ("1", "3"):
        out = tmp_path / f"h{horizon}"
        argv = ["run", "--policy", "dmwm", "--horizon", horizon, "--steps", "40", "--runs", "2", "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        written[horizon] = (out / "runs.csv").read_text()
    cfg = replace(builtin_scenario("default"), base_seed=7, steps=40, horizon=1)
    write_runs_csv(tmp_path / "expected.csv", run_experiment(scenarios=[("default", cfg)], policies=("dmwm",), runs=2))
    assert written["1"] == (tmp_path / "expected.csv").read_text()
    assert written["1"] != written["3"]


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_campaign_rejects_bad_step_override(tmp_path, capsys, steps):
    assert main(["campaign", "--runs", "1", "--steps", steps, "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == "error: steps: need at least one slot\n"


def test_run_rejects_removed_rollout_reward_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--rollout-reward", "served"])
    assert exc.value.code == 2


def test_campaign_produces_full_grid(tmp_path):
    out = tmp_path / "c"
    assert main(["campaign", "--runs", "2", "--steps", "30", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 6
    header = lines[0].split(",")
    assert header[:3] == ["scenario", "policy", "runs"]
    assert "throughput_mean" in header and "drops_std" in header


def test_trace_exports_matrices(tmp_path):
    out = tmp_path / "t"
    assert main(["trace", "--scenario", "default", "--seed", "3", "--out", str(out)]) == 0
    for name in ("schedule.csv", "model_error.csv", "queue_lengths.csv", "decisions.csv"):
        lines = (out / name).read_text().strip().splitlines()
        assert len(lines) == 1 + 200, name
    header = (out / "schedule.csv").read_text().splitlines()[0]
    assert header == "slot,node0,node1,node2,node3,node4"
    decisions = (out / "decisions.csv").read_text().strip().splitlines()[1:]
    provenances = {line.split(",")[1] for line in decisions}
    assert provenances <= {"slow_mind", "fast_mind"}


def _csv_rows(path):
    """A trace file's data rows as lists of cells, after checking that column 0 counts the slots."""
    lines = path.read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert [row[0] for row in rows] == [str(t) for t in range(len(rows))], path.name
    return [row[1:] for row in rows]


def test_trace_files_match_an_independent_recording(tmp_path):
    # off the golden path: a scenario file with a tight buffer and short deadlines, at seed 5
    cfg = make_cfg(
        n_nodes=4, max_scheduled=2, buffer=3, steps=120, lam=1.1,
        deadlines=(2, 3, None, 2), pairs=[(0, 1), (2, 3)], base_seed=5,
    )
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(scenario_to_dict(validate_config(cfg))))
    out = tmp_path / "t"
    assert main(["trace", "--scenario", str(path), "--seed", "5", "--run-index", "2", "--out", str(out)]) == 0
    record, queue_lengths, schedule = recorded_episode(cfg, DmwmScheduler(cfg), 2, "tight")
    m = record.metrics
    assert m.drops > 0 and m.violations > 0  # the buffer overflows and the deadlines purge
    assert {d.provenance for d in record.decision_trace} == {Provenance.SLOW_MIND, Provenance.FAST_MIND}

    assert [[int(v) for v in row] for row in _csv_rows(out / "queue_lengths.csv")] == queue_lengths.tolist()
    nodes = [row[1] for row in _csv_rows(out / "decisions.csv")]
    assert nodes == [" ".join(map(str, d.nodes)) for d in record.decision_trace]
    flags = [[i for i, v in enumerate(row) if v == "1"] for row in _csv_rows(out / "schedule.csv")]
    assert [" ".join(map(str, row)) for row in flags] == nodes
    errors = [[int(v) for v in row] for row in _csv_rows(out / "model_error.csv")]
    assert errors == model_error_matrix(queue_lengths, schedule).tolist()


@pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS)
def test_trace_decisions_match_golden(tmp_path, scenario):
    assert main(["trace", "--scenario", scenario, "--seed", "42", "--out", str(tmp_path)]) == 0
    for name in ("decisions.csv", "schedule.csv", "model_error.csv", "queue_lengths.csv"):
        golden = GOLDEN_SHA256[f"trace --seed 42 {name}"][scenario]
        assert sha256_of(tmp_path / name) == golden, name


def test_golden_rewrite_table_names_every_golden_entry():
    # tests/rewrite_goldens.py regenerates the goldens; the suite never runs it, only checks its table
    golden = {(key, name) for key, names in GOLDEN_SHA256.items() for name in names}
    assert set(rewrite_goldens.entries()) == golden and len(golden) == 29


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("DUALMIND_OUT", str(target))
    assert main(["run", "--policy", "rr", "--runs", "1", "--steps", "20"]) == 0
    assert (target / "summary.csv").exists()


def test_module_invocation_smoke():
    # the child does not inherit pytest's pythonpath, so hand it src explicitly
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dualmind", "scenario", "show", "default"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_nodes"] == 5
