"""Dual-mind scheduler: the slow mind's choice, the fallback, decision records."""

from math import comb

import numpy as np

from dualmind.baselines import lqf_select
from dualmind.core import ConflictGraph, Provenance, ScenarioConfig, builtin_scenario, default_lambda
from dualmind.dmwm import DecisionRecord, DmwmScheduler, dmwm_decide, fast_mind_select
from dualmind.harness import run_episode
from dualmind.twin import Observation, reset, step
from helpers import make_cfg, search
from oracles import drain_rollout, feasible_sets, first_best


def test_rollout_served_hand_check():
    # Without arrivals the twin serves what the slow mind's rollout imagines.
    cfg = make_cfg(n_nodes=2, max_scheduled=1, lam=0.0, steps=4)
    state = reset(cfg)
    obs = step(state, (), (3, 1)).next_obs
    record = dmwm_decide(obs, cfg)
    assert (record.nodes, record.feasible_count, record.best_reward) == ((0,), 2, 3)
    served = sum(len(step(state, record.nodes, (0, 0)).served) for _ in range(3))
    assert served == record.best_reward
    rollout = drain_rollout(obs.q, record.nodes, cfg.horizon)
    assert state.queue_length_timeseries.tolist() == [list(q) for q in rollout.trajectory]


def test_served_with_unit_horizon_equals_slot_reward():
    # At horizon 1 the slow mind's score is the packets the twin sends in the slot.
    rng = np.random.default_rng(77)
    cfg = make_cfg(lam=0.0, steps=2, horizon=1, pairs=[(0, 1), (2, 3)])
    planned = 0
    for _ in range(100):
        state = reset(cfg)
        obs = step(state, (), tuple(int(v) for v in rng.integers(0, 4, size=5))).next_obs
        record = dmwm_decide(obs, cfg)
        if record.provenance is Provenance.SLOW_MIND:
            planned += 1
            assert record.best_reward == len(step(state, record.nodes, (0,) * 5).served)
    assert planned >= 20


def test_slow_mind_empty_feasible_gives_none():
    assert search(2, (3, 1), (0, 0), (None, None), [(0, 1)], 3) == (0, None, None)
    record = dmwm_decide(_obs((3, 1)), make_cfg(n_nodes=2, max_scheduled=2, pairs=[(0, 1)]))
    assert (record.provenance, record.feasible_count, record.best_reward) == (Provenance.FAST_MIND, 0, None)


def test_slow_mind_prefers_higher_reward():
    assert search(1, (1, 3), (0, 0), (None, None), (), 3) == (2, (1,), 3)


def test_slow_mind_tie_keeps_enumeration_order():
    # both singletons send one packet over a 1-step horizon
    assert search(1, (2, 2), (0, 0), (None, None), (), 1) == (2, (0,), 1)
    # (1, 2), (1, 3) and (2, 3) all send six packets over three steps
    assert search(2, (1, 5, 5, 5), (0,) * 4, (None,) * 4, (), 3) == (6, (1, 2), 6)


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
        feasible = feasible_sets(cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, cfg.conflict_graph.pairs)
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


def _oracle_decide(obs, cfg):
    """dmwm_decide from the oracles: list and roll out every feasible set, else the fast mind."""
    count, schedule, score = first_best(
        cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, cfg.conflict_graph.pairs, cfg.horizon
    )
    if count:
        return DecisionRecord(obs.t, Provenance.SLOW_MIND, schedule, count, score)
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
    assert record == _oracle_decide(everyone, cfg)

    policy = _Recorder(cfg)
    run_episode(cfg, policy, run_index=0)
    assert [_oracle_decide(obs, cfg) for obs in policy.seen] == policy.trace
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
