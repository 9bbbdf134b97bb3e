"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The expensive full campaign (4 scenarios x 6 policies x 30 runs,
seed 42, paired traffic) runs once per session, through the `campaign`
command, and is shared by the criteria that consume it.
"""

import time

import numpy as np
import pytest

from dualmind.baselines import QTable, q_select, q_update
from dualmind.core import ConflictGraph, Provenance
from dualmind import cli
from dualmind.harness import aggregate, make_policy, run_experiment
from dualmind.traffic import make_rng
from dualmind.twin import model_error_matrix
from helpers import (
    GOLDEN_DIR,
    GOLDEN_SHA256,
    make_cfg,
    poisson_counts,
    random_state,
    recorded_episode,
    search,
    sha256_of,
)
from oracles import drain_rollout, feasible_sets, first_best


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """`dualmind campaign --seed 42`, run once, with the records it wrote captured."""
    out = tmp_path_factory.mktemp("campaign")
    captured = []

    def recording_run_experiment(*args, **kwargs):
        captured.append(run_experiment(*args, **kwargs))
        return captured[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_experiment", recording_run_experiment)
        start = time.perf_counter()
        assert cli.main(["campaign", "--seed", "42", "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
    (records,) = captured
    return records, aggregate(records), elapsed, out


def test_c01_feasibility_oracle_equivalence():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    for trial in range(1000):
        k = 1 + trial % 3
        q, ages, deadlines, pairs = random_state(rng, 5, zero_share=1 / 7, density=0.3)
        sets = feasible_sets(k, q, ages, deadlines, pairs)
        count, schedule, _ = search(k, q, ages, deadlines, pairs, 3)
        assert count == len(sets), f"trial {trial}: {count} != {len(sets)}"
        assert schedule in sets if sets else schedule is None, f"trial {trial}: {schedule}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("C1", f"the search counted the oracle's feasible sets on 1000 randomized states in {elapsed:.2f}s")


def _backlogged_slots(rollout):
    """The removed alternative score: backlogged node-slots over the horizon, scheduled or not."""
    return sum(sum(1 for v in queues if v > 0) for queues in rollout.trajectory[:-1])


def test_c02_slow_mind_argmax_oracle():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    checked = 0
    for trial in range(500):
        q, ages, deadlines, pairs = random_state(rng, 7, zero_share=0.1, density=0.15)
        horizon = 1 + trial % 4
        got = search(3, q, ages, deadlines, pairs, horizon)
        assert got == first_best(3, q, ages, deadlines, pairs, horizon), f"trial {trial}"
        if got[0] == 0:
            continue
        # the two rules differ by a constant over feasible sets, so they share the first argmax
        backlogged = first_best(3, q, ages, deadlines, pairs, horizon, score=_backlogged_slots)
        assert got[:2] == backlogged[:2], f"trial {trial}"
        checked += 2
    elapsed = time.perf_counter() - start
    assert checked >= 800  # most of the 500 states must actually exercise the argmax
    assert elapsed < 10.0
    _report("C2", f"{checked} argmax selections matched the exhaustive rollout oracle in {elapsed:.2f}s")


def test_c03_rollout_hand_check():
    served = drain_rollout((3, 1), (0,), 3)
    assert served.reward == 3
    assert served.trajectory == ((3, 1), (2, 1), (1, 1), (0, 1))
    assert search(1, (3, 1), (0, 0), (None, None), (), 3) == (2, (0,), 3)
    _report("C3", "hand-stepped trajectory and its reward match the search's choice and score")


def test_c04_conservation_over_full_campaign(campaign):
    records, _, _, _ = campaign
    assert len(records) == 720
    for rec in records:
        m = rec.metrics
        assert rec.arrivals == rec.delivered + m.drops + m.violations + rec.final_backlog, (
            rec.scenario, rec.policy, rec.run_index,
        )
    _report("C4", "arrivals = delivered + drops + violations + backlog on all 720 runs")


def test_c05_interference_safety(campaign):
    records, _, _, _ = campaign
    graph = ConflictGraph.from_pairs([(0, 1), (2, 3)])
    planned_slots = 0
    for rec in records:
        if rec.scenario != "default" or rec.policy != "dmwm":
            continue
        assert rec.decision_trace is not None
        for decision in rec.decision_trace:
            if decision.provenance is not Provenance.SLOW_MIND:
                continue
            planned_slots += 1
            for a in decision.nodes:
                for b in decision.nodes:
                    if a < b:
                        assert not graph.contains(a, b), decision
    assert planned_slots > 0
    _report("C5", f"{planned_slots} planned slots over 30 runs, zero conflicting pairs")


def test_c06_campaign_determinism(campaign):
    _, _, _, out = campaign
    # byte for byte, row by row, before the hashes: a failure names the rows that moved
    rows = (out / "summary.csv").read_bytes().splitlines(keepends=True)
    assert rows == (GOLDEN_DIR / "campaign_seed42_summary.csv").read_bytes().splitlines(keepends=True)
    golden = GOLDEN_SHA256["campaign --seed 42"]
    for name, digest in golden.items():
        assert sha256_of(out / name) == digest, name
    _report("C6", "the seed-42 campaign's summary.csv matches its golden copy, and every file its golden hash")


def test_c07_poisson_sampler_moments():
    draws = np.array(poisson_counts(make_rng(424242).random, 1.0, 100_000))
    mean = float(draws.mean())
    var = float(draws.var(ddof=1))
    assert 0.99 <= mean <= 1.01
    assert 0.97 <= var <= 1.03
    _report("C7", f"100k draws at rate 1.0: mean {mean:.4f}, variance {var:.4f}")


def test_c08_model_error_tracks_admitted_arrivals():
    cfg = make_cfg(lam=0.3, steps=200, base_seed=42)
    error_total = np.zeros(cfg.n_nodes)
    admitted_total = np.zeros(cfg.n_nodes)
    slots = 0
    for run_index in range(30):
        rec, queue_lengths, schedule = recorded_episode(cfg, make_policy("dmwm", cfg), run_index, "lowrate")
        error_total += model_error_matrix(queue_lengths, schedule).sum(axis=0)
        admitted_total += rec.arrivals_by_node - rec.drops_by_node
        slots += cfg.steps
    mean_error = error_total / slots
    mean_admitted = admitted_total / slots
    assert np.all(mean_admitted > 0)
    rel = np.abs(mean_error - mean_admitted) / mean_admitted
    assert np.all(rel <= 0.05), rel
    _report(
        "C8",
        "per-node one-step prediction error equals admitted arrivals "
        f"(max relative gap {rel.max():.2e})",
    )


def test_c09_directional_performance(campaign):
    _, aggs, _, _ = campaign
    by = {(a.scenario, a.policy): a for a in aggs}
    thr_gap_default = by[("default", "dmwm")].throughput_mean - by[("default", "random")].throughput_mean
    viol_gap = by[("deadline", "lqf")].violations_mean - by[("deadline", "dmwm")].violations_mean
    thr_gap_ring = (
        by[("interference", "dmwm")].throughput_mean - by[("interference", "random")].throughput_mean
    )
    assert thr_gap_default >= 0.0
    assert viol_gap >= 0.0
    assert thr_gap_ring >= 0.0
    _report(
        "C9",
        f"default throughput +{thr_gap_default:.3f} vs random; deadline violations "
        f"-{viol_gap:.1f} vs lqf; interference throughput +{thr_gap_ring:.3f} vs random",
    )


def test_c10_q_learning_toy_convergence():
    table = QTable(n_actions=2)  # action 0 pays 1, action 1 pays 0, single state
    rng = make_rng(10)
    key = (0,)
    for _ in range(10_000):
        action = q_select(table, key, rng)
        q_update(table, key, action, 1.0 if action == 0 else 0.0, key)
    value = table.entries[key][0]
    assert abs(value - 20.0) <= 0.2
    _report("C10", f"Q(serve) converged to {value:.4f} (target 20 +/- 0.2)")


def test_c11_campaign_runtime_envelope(campaign):
    _, _, elapsed, _ = campaign
    assert elapsed < 60.0
    _report("C11", f"full 4x6x30 campaign finished in {elapsed:.1f}s (< 60s)")
