"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Run from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import dualmind  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def tiny(w: wl.Workload) -> wl.Workload:
    return replace(w, runs=1, cell_runs=1, decide_runs=1, steps=10)


def check_section(line: str, section: list[dict]) -> dict:
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    return doc["metrics"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_metric_prints_with_its_unit(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    w = tiny(wl.WORKLOADS[name])
    out = tmp_path / "out"
    out.mkdir()

    metrics, attempted, failed = run.measure(w, 3, 0.0, out, None)
    values = check_section(run.result_line(SPEC["end_to_end"], metrics, attempted, failed), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in values.values())

    metrics, attempted, failed = run.trace(w, 3, out, None)
    check_section(run.result_line(SPEC["per_layer"], metrics, attempted, failed), SPEC["per_layer"])
    assert (tmp_path / f"spans-{name}.npz").is_file()
    assert dualmind.harness.step is dualmind.twin.step
    assert dualmind.twin.generate_arrivals is dualmind.traffic.generate_arrivals


def test_perturbed_record_counts_as_failed():
    cfg = wl.pairwise_config(5, 3, seed=3, steps=20)
    records = dualmind.run_experiment(scenarios=[("t", cfg)], policies=["lqf"], runs=2)
    good = wl.digest(records)
    assert wl.count_failed(records, good) == 0

    bad = replace(records[1], metrics=replace(records[1].metrics, drops=records[1].metrics.drops + 1))
    assert wl.count_failed([records[0], bad]) == 1
    assert wl.count_failed([records[0], bad], good) == 2


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
