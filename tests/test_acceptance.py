"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The expensive full campaign (4 scenarios x 6 policies x 30 runs,
seed 42, paired traffic) runs once per session, through the `campaign`
command, and is shared by the criteria that consume it.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from dualmind.baselines import QTable, q_select, q_update
from dualmind.core import ConflictGraph, Provenance
from dualmind import cli
from dualmind.harness import aggregate, run_experiment
from dualmind.icn import enumerate_feasible
from dualmind.dmwm import rollout, slow_mind_select
from dualmind.traffic import make_rng
from dualmind.twin import model_error_matrix
from helpers import GOLDEN_SHA256, make_cfg, poisson_counts, sha256_of


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


def _brute_feasible(n, k, q, ages, deadlines, raw_pairs):
    out = []
    for combo in combinations(range(n), k):
        ok = all(q[i] > 0 for i in combo)
        if ok:
            for i in combo:
                d = deadlines[i]
                if d is not None and ages[i] is not None and ages[i] > d:
                    ok = False
        if ok:
            for i in combo:
                for j in combo:
                    if i != j and ((i, j) in raw_pairs or (j, i) in raw_pairs):
                        ok = False
        if ok:
            out.append(combo)
    return out


def _random_state(rng, n=5):
    q = tuple(int(rng.integers(0, 7)) for _ in range(n))
    ages = tuple(int(rng.integers(0, 11)) if q[i] > 0 else None for i in range(n))
    deadlines = tuple(int(rng.integers(1, 9)) if rng.random() < 0.5 else None for _ in range(n))
    raw_pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    return q, ages, deadlines, raw_pairs


def test_c01_feasibility_oracle_equivalence():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    for trial in range(1000):
        k = 1 + trial % 3
        q, ages, deadlines, raw_pairs = _random_state(rng)
        graph = ConflictGraph.from_pairs(raw_pairs)
        got = enumerate_feasible(5, k, q, ages, deadlines, graph)
        want = _brute_feasible(5, k, q, ages, deadlines, raw_pairs)
        assert got == want, f"trial {trial}: {got} != {want}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("C1", f"1000 randomized states matched brute force in {elapsed:.2f}s")


def _drain_reward(q, members, horizon, literal):
    # independent re-statement of the drain dynamics and both scoring rules
    lengths = {i: v for i, v in enumerate(q)}
    total = 0
    for _ in range(horizon):
        if literal:
            total += sum(1 for v in lengths.values() if v > 0)
        else:
            total += sum(1 for i in members if lengths[i] > 0)
        for i in members:
            lengths[i] = max(lengths[i] - 1, 0)
    return total


def _mostly_feasible_state(rng, n=5):
    # richer than _random_state so most trials exercise the maximizer
    q = tuple(0 if rng.random() < 0.15 else int(rng.integers(1, 8)) for _ in range(n))
    ages = tuple(int(rng.integers(0, 7)) if q[i] > 0 else None for i in range(n))
    deadlines = tuple(int(rng.integers(3, 10)) if rng.random() < 0.4 else None for _ in range(n))
    raw_pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15}
    return q, ages, deadlines, raw_pairs


def test_c02_slow_mind_argmax_oracle():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    checked = 0
    for trial in range(500):
        q, ages, deadlines, raw_pairs = _mostly_feasible_state(rng)
        graph = ConflictGraph.from_pairs(raw_pairs)
        horizon = 1 + trial % 4
        feasible = enumerate_feasible(5, 3, q, ages, deadlines, graph)
        assert feasible == _brute_feasible(5, 3, q, ages, deadlines, raw_pairs)
        best = slow_mind_select(feasible, q, horizon)
        if not feasible:
            assert best is None
            continue
        schedule, score = best
        # both rules differ by a constant over feasible sets, so they share the first argmax
        for literal in (True, False):
            oracle = [_drain_reward(q, s, horizon, literal) for s in feasible]
            top = max(oracle)
            assert schedule == feasible[oracle.index(top)]
            if not literal:
                assert score == top
                assert [rollout(q, s, horizon).reward for s in feasible] == oracle
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 800  # most of the 500 states must actually exercise the argmax
    assert elapsed < 10.0
    _report("C2", f"{checked} argmax selections matched the exhaustive oracle in {elapsed:.2f}s")


def test_c03_rollout_hand_check():
    served = rollout((3, 1), (0,), 3)
    assert served.reward == 3
    assert served.trajectory == ((3, 1), (2, 1), (1, 1), (0, 1))
    assert slow_mind_select([(0,)], (3, 1), 3) == ((0,), 3)
    _report("C3", "hand-stepped trajectory, its reward and the closed form match")


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
    golden = GOLDEN_SHA256["campaign --seed 42"]
    for name, digest in golden.items():
        assert sha256_of(out / name) == digest, name
    _report("C6", "the seed-42 campaign's runs.csv and summaries match the golden hashes")


def test_c07_poisson_sampler_moments():
    draws = np.array(poisson_counts(make_rng(424242).random, 1.0, 100_000))
    mean = float(draws.mean())
    var = float(draws.var(ddof=1))
    assert 0.99 <= mean <= 1.01
    assert 0.97 <= var <= 1.03
    _report("C7", f"100k draws at rate 1.0: mean {mean:.4f}, variance {var:.4f}")


def test_c08_model_error_tracks_admitted_arrivals():
    cfg = make_cfg(lam=0.3, steps=200, base_seed=42)
    records = run_experiment(scenarios=[("lowrate", cfg)], policies=["dmwm"], runs=30)
    error_total = np.zeros(cfg.n_nodes)
    admitted_total = np.zeros(cfg.n_nodes)
    slots = 0
    for rec in records:
        error_total += model_error_matrix(rec.queue_lengths, rec.schedule_matrix).sum(axis=0)
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
