"""Dual-mind scheduler: rollouts, closed-form argmax selection, fallback, decision records."""

import numpy as np
import pytest

from dualmind.core import ConflictGraph, Provenance, builtin_scenario
from dualmind.dmwm import (
    DmwmScheduler,
    dmwm_decide,
    fast_mind_select,
    rollout,
    slow_mind_select,
)
from dualmind.icn import enumerate_feasible
from dualmind.twin import Observation
from helpers import make_cfg


def test_rollout_served_hand_check():
    result = rollout((3, 1), (0,), 3)
    assert result.reward == 3
    assert result.trajectory == ((3, 1), (2, 1), (1, 1), (0, 1))


def test_rollout_all_empty():
    assert rollout((0, 0), (0, 1), 4).reward == 0


def test_rollout_monotone_and_bounded():
    rng = np.random.default_rng(31)
    for _ in range(200):
        q = tuple(int(rng.integers(0, 9)) for _ in range(5))
        members = tuple(sorted(rng.choice(5, size=3, replace=False).tolist()))
        horizon = int(rng.integers(1, 5))
        result = rollout(q, members, horizon)
        assert result.trajectory[0] == q
        for before, after in zip(result.trajectory, result.trajectory[1:]):
            for i in range(5):
                if i in members:
                    assert after[i] == max(before[i] - 1, 0)
                else:
                    assert after[i] == before[i]
        assert 0 <= result.reward <= horizon * len(members)


def test_served_with_unit_horizon_equals_slot_reward():
    rng = np.random.default_rng(77)
    for _ in range(100):
        q = tuple(int(rng.integers(0, 4)) for _ in range(5))
        members = tuple(sorted(rng.choice(5, size=3, replace=False).tolist()))
        instantaneous = sum(1 for i in members if q[i] > 0)
        assert rollout(q, members, 1).reward == instantaneous


def test_slow_mind_empty_feasible_gives_none():
    assert slow_mind_select([], (3, 1), 3) is None


def test_slow_mind_prefers_higher_reward():
    assert slow_mind_select([(0,), (1,)], (3, 1), 3) == ((0,), 3)


def test_slow_mind_tie_keeps_enumeration_order():
    # both singletons send one packet over a 1-step horizon
    assert slow_mind_select([(0,), (1,)], (2, 2), 1) == ((0,), 1)


def test_fast_mind_urgency_doubling():
    q = (5, 3, 4, 1, 2)
    deadlines = (None, 8, None, 4, None)
    assert fast_mind_select(q, deadlines, 3, ConflictGraph()) == (0, 1, 2)


def test_fast_mind_all_idle_tie_rule():
    assert fast_mind_select((0,) * 5, (None,) * 5, 3, ConflictGraph()) == (0, 1, 2)


def test_fast_mind_conflict_aware_skips():
    graph = ConflictGraph.from_pairs([(0, 1)])
    picked = fast_mind_select((5, 3), (None, None), 2, graph, conflict_aware=True)
    assert picked == (0,)


def test_fast_mind_conflict_aware_skips_idle_nodes():
    picked = fast_mind_select((4, 0, 2), (None,) * 3, 3, ConflictGraph(), conflict_aware=True)
    assert picked == (0, 2)


def _obs(q, ages=None, t=0):
    if ages is None:
        ages = tuple(0 if v > 0 else None for v in q)
    return Observation(q=tuple(q), oldest_age=tuple(ages), t=t)


def test_decide_uses_slow_mind_when_feasible():
    cfg = make_cfg()
    record = dmwm_decide(_obs((2, 2, 2, 2, 2)), cfg)
    assert record.provenance is Provenance.SLOW_MIND
    assert record.feasible_count == 10
    assert len(record.nodes) == 3


def test_decide_falls_back_when_too_few_backlogged():
    cfg = make_cfg()
    record = dmwm_decide(_obs((3, 0, 0, 0, 1)), cfg)
    assert record.provenance is Provenance.FAST_MIND
    assert record.feasible_count == 0
    assert record.best_reward is None
    assert len(record.nodes) == 3  # plain fallback always fills the budget


def test_slow_mind_actions_never_conflict():
    rng = np.random.default_rng(13)
    cfg = make_cfg(pairs=[(0, 1), (2, 3)])
    for _ in range(200):
        q = tuple(int(rng.integers(0, 6)) for _ in range(5))
        record = dmwm_decide(_obs(q), cfg)
        if record.provenance is Provenance.SLOW_MIND:
            members = record.nodes
            for a in members:
                for b in members:
                    if a < b:
                        assert not cfg.conflict_graph.contains(a, b)


def test_provenance_matches_feasibility():
    rng = np.random.default_rng(17)
    cfg = make_cfg(pairs=[(1, 2)], deadlines=(6, None, 6, None, 6))
    for _ in range(200):
        q = tuple(int(rng.integers(0, 4)) for _ in range(5))
        ages = tuple(int(rng.integers(0, 9)) if q[i] > 0 else None for i in range(5))
        obs = _obs(q, ages)
        feasible = enumerate_feasible(
            cfg.n_nodes, cfg.max_scheduled, obs.q, obs.oldest_age,
            cfg.deadlines, cfg.conflict_graph,
        )
        expected = Provenance.SLOW_MIND if feasible else Provenance.FAST_MIND
        assert dmwm_decide(obs, cfg).provenance is expected


def test_scheduler_trace_grows_per_decision():
    cfg = builtin_scenario("default")
    policy = DmwmScheduler(cfg)
    rng = np.random.default_rng(0)
    for t in range(5):
        schedule = policy.decide(_obs((1, 1, 1, 1, 1), t=t), rng)
        assert schedule == policy.trace[-1].nodes
    assert [rec.slot for rec in policy.trace] == [0, 1, 2, 3, 4]


def test_rollout_reward_recomputable_from_trajectory():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = tuple(int(rng.integers(0, 7)) for _ in range(5))
        members = tuple(sorted(rng.choice(5, size=2, replace=False).tolist()))
        horizon = int(rng.integers(1, 5))
        result = rollout(q, members, horizon)
        recomputed = sum(
            sum(1 for i in members if stage[i] > 0) for stage in result.trajectory[:-1]
        )
        assert result.reward == recomputed
