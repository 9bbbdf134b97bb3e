"""Dual-mind scheduler: rollouts, closed-form argmax selection, fallback, decision records."""

from math import comb

import numpy as np

from dualmind.baselines import lqf_select
from dualmind.core import ConflictGraph, Provenance, ScenarioConfig, builtin_scenario, default_lambda
from dualmind.dmwm import (
    DecisionRecord,
    DmwmScheduler,
    dmwm_decide,
    fast_mind_select,
    rollout,
    slow_mind_select,
)
from dualmind.harness import run_episode
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


def test_slow_mind_matches_max_oracle_with_ties():
    rng = np.random.default_rng(4242)
    tied = 0
    for _ in range(2000):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, n + 1))
        horizon = int(rng.integers(1, 5))
        q = tuple(int(rng.integers(0, 6)) for _ in range(n))
        feasible = [
            tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            for _ in range(int(rng.integers(1, 12)))
        ]

        def score(s):
            return sum(min(q[i], horizon) for i in s)

        best = max(feasible, key=score)
        assert slow_mind_select(feasible, q, horizon) == (best, score(best))
        tied += [score(s) for s in feasible].count(score(best)) > 1
    assert tied >= 500  # ties must be common for the tie order to be tested


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


def _fast_mind_oracle(q, deadlines, k, conflicts, conflict_aware):
    """fast_mind_select as a sort on the (-urgency, id) key and a greedy scan."""
    urgency = [q[i] * (2 if deadlines[i] is not None else 1) for i in range(len(q))]
    order = sorted(range(len(q)), key=lambda i: (-urgency[i], i))
    if not conflict_aware:
        return tuple(sorted(order[:k]))
    chosen = []
    for i in order:
        if len(chosen) < k and urgency[i] > 0 and not any(conflicts.contains(i, j) for j in chosen):
            chosen.append(i)
    return tuple(sorted(chosen))


def test_fast_mind_matches_sort_key_oracle_on_random_states():
    rng = np.random.default_rng(777)
    for _ in range(3000):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, n + 1))
        q = tuple(int(rng.integers(0, 5)) for _ in range(n))  # small range: many urgency ties
        deadlines = tuple(int(rng.integers(1, 9)) if rng.random() < 0.5 else None for _ in range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        graph = ConflictGraph.from_pairs(pairs)
        for aware in (False, True):
            expected = _fast_mind_oracle(q, deadlines, k, graph, aware)
            assert fast_mind_select(q, deadlines, k, graph, conflict_aware=aware) == expected


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


def _list_and_score_decide(obs, cfg):
    """dmwm_decide as it was before the one-pass search: list the feasible sets, then score them."""
    feasible = enumerate_feasible(
        cfg.n_nodes, cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, cfg.conflict_graph
    )
    if feasible:
        schedule, score = slow_mind_select(feasible, obs.q, cfg.horizon)
        return DecisionRecord(obs.t, Provenance.SLOW_MIND, schedule, len(feasible), score)
    picked = fast_mind_select(
        obs.q, cfg.deadlines, cfg.max_scheduled, cfg.conflict_graph,
        conflict_aware=cfg.fallback_conflict_aware,
    )
    return DecisionRecord(obs.t, Provenance.FAST_MIND, picked, 0, None)


class _Recorder(DmwmScheduler):
    """A dmwm scheduler that also keeps every observation it decided on."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.seen = []

    def decide(self, obs, rng):
        self.seen.append(obs)
        return super().decide(obs, rng)


def _pairwise_config(n, k, steps):
    """Conflict pairs (0,1),(2,3),..., a 10-slot deadline on even nodes, buffer 50, H=3."""
    return ScenarioConfig(
        n_nodes=n,
        max_scheduled=k,
        buffer=50,
        steps=steps,
        horizon=3,
        lambda_base=default_lambda(n),
        deadlines=tuple(10 if i % 2 == 0 else None for i in range(n)),
        conflict_graph=ConflictGraph.from_pairs((i, i + 1) for i in range(0, n - 1, 2)),
    )


def test_pairwise_topology_at_32_nodes_counts_every_set_and_matches_the_oracle():
    cfg = _pairwise_config(32, 4, steps=40)
    everyone = _obs((2,) * 32)  # every node backlogged and within its deadline
    record = dmwm_decide(everyone, cfg)
    assert record.feasible_count == comb(16, 4) * 2**4 == 29120  # one node from each of 4 pairs
    assert record == _list_and_score_decide(everyone, cfg)

    policy = _Recorder(cfg)
    run_episode(cfg, policy, run_index=0)
    assert [_list_and_score_decide(obs, cfg) for obs in policy.seen] == policy.trace
    assert sum(r.provenance is Provenance.SLOW_MIND for r in policy.trace) >= 30


def test_uncapped_conflict_free_deadline_free_dmwm_is_lqf():
    # With H >= buffer the weight min(q, H) is q, so the best K-set is the K
    # longest queues, ties to smaller ids: lqf (capped MaxWeight with no cap).
    rng = np.random.default_rng(404)
    slow = 0
    for trial in range(40):
        n = int(rng.integers(1, 9))
        buffer = int(rng.integers(3, 30))
        cfg = make_cfg(
            n_nodes=n,
            max_scheduled=int(rng.integers(1, n + 1)),
            buffer=buffer,
            steps=60,
            horizon=buffer + int(rng.integers(0, 5)),
            lambda_base=rng.uniform(0.2, 2.0, size=n).tolist(),
            burst_nodes=[i for i in range(n) if rng.random() < 0.3],
            base_seed=trial,
        )
        policy = _Recorder(cfg)
        run_episode(cfg, policy, run_index=0)
        for obs, record in zip(policy.seen, policy.trace):
            assert record.nodes == lqf_select(obs.q, cfg.max_scheduled), f"trial {trial}, slot {obs.t}"
        slow += sum(r.provenance is Provenance.SLOW_MIND for r in policy.trace)
    assert slow >= 1000  # the identity is checked on the slow mind, not only the fallback
