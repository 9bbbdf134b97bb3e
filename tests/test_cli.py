"""Command line interface: subcommands, file outputs, error paths, determinism."""

import json
import subprocess
import sys

import pytest

from dualmind.cli import main
from dualmind.core import BUILTIN_SCENARIOS, builtin_scenario, scenario_to_dict
from helpers import GOLDEN_SHA256, sha256_of


def test_scenario_show_round_trips(capsys):
    assert main(["scenario", "show", "deadline"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == scenario_to_dict(builtin_scenario("deadline"))


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


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_campaign_rejects_bad_step_override(tmp_path, capsys, steps):
    assert main(["campaign", "--runs", "1", "--steps", steps, "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == "error: T: need at least one slot\n"


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


@pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS)
def test_trace_decisions_match_golden(tmp_path, scenario):
    assert main(["trace", "--scenario", scenario, "--seed", "42", "--out", str(tmp_path)]) == 0
    golden = GOLDEN_SHA256["trace --seed 42 decisions.csv"][scenario]
    assert sha256_of(tmp_path / "decisions.csv") == golden


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("DUALMIND_OUT", str(target))
    assert main(["run", "--policy", "rr", "--runs", "1", "--steps", "20"]) == 0
    assert (target / "summary.csv").exists()


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dualmind", "scenario", "show", "default"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_nodes"] == 5
