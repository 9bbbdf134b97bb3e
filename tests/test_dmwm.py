"""Dual-mind scheduler: the slow mind's choice, the fallback, decision records."""

import gc
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from dualmind import dmwm
from dualmind.baselines import lqf_select
from dualmind.core import (
    BUILTIN_SCENARIOS, ConflictGraph, Provenance, ScenarioConfig, builtin_scenario, default_lambda,
)
from dualmind.dmwm import DecisionRecord, DmwmScheduler, fast_mind_select
from dualmind.harness import run_episode
from dualmind.icn import best_feasible, conflict_masks
from dualmind.twin import Observation, reset, step
from helpers import make_cfg, random_state, search
from oracles import drain_rollout, feasible_sets, first_best


def _decide(scheduler, obs):
    """The scheduler's DecisionRecord for obs, from the end of its trace."""
    scheduler.decide(obs, None)
    return scheduler.trace[-1]


def test_rollout_served_hand_check():
    # Without arrivals the twin serves what the slow mind's rollout imagines.
    cfg = make_cfg(n_nodes=2, max_scheduled=1, lam=0.0, steps=4)
    state = reset(cfg)
    obs = step(state, (), (3, 1)).next_obs
    record = _decide(DmwmScheduler(cfg), obs)
    assert (record.nodes, record.feasible_count, record.best_reward) == ((0,), 2, 3)
    outcomes = [step(state, record.nodes, (0, 0)) for _ in range(3)]
    assert sum(len(outcome.served) for outcome in outcomes) == record.best_reward
    rollout = drain_rollout(obs.q, record.nodes, cfg.horizon)
    assert [obs.q] + [outcome.next_obs.q for outcome in outcomes] == list(rollout.trajectory)


def test_served_with_unit_horizon_equals_slot_reward():
    # At horizon 1 the slow mind's score is the packets the twin sends in the slot.
    rng = np.random.default_rng(77)
    cfg = make_cfg(lam=0.0, steps=2, horizon=1, pairs=[(0, 1), (2, 3)])
    scheduler = DmwmScheduler(cfg)
    planned = 0
    for _ in range(100):
        state = reset(cfg)
        obs = step(state, (), tuple(int(v) for v in rng.integers(0, 4, size=5))).next_obs
        record = _decide(scheduler, obs)
        if record.provenance is Provenance.SLOW_MIND:
            planned += 1
            assert record.best_reward == len(step(state, record.nodes, (0,) * 5).served)
    assert planned >= 20


def test_slow_mind_empty_feasible_gives_none():
    assert search(2, (3, 1), (0, 0), (None, None), [(0, 1)], 3) == (0, None, None)
    cfg = make_cfg(n_nodes=2, max_scheduled=2, pairs=[(0, 1)])
    record = _decide(DmwmScheduler(cfg), _obs((3, 1)))
    assert (record.provenance, record.feasible_count, record.best_reward) == (Provenance.FAST_MIND, 0, None)


def test_slow_mind_prefers_higher_reward():
    assert search(1, (1, 3), (0, 0), (None, None), (), 3) == (2, (1,), 3)


def test_slow_mind_tie_keeps_enumeration_order():
    # both singletons send one packet over a 1-step horizon
    assert search(1, (2, 2), (0, 0), (None, None), (), 1) == (2, (0,), 1)
    # (1, 2), (1, 3) and (2, 3) all send six packets over three steps
    assert search(2, (1, 5, 5, 5), (0,) * 4, (None,) * 4, (), 3) == (6, (1, 2), 6)


def _spy_on_weights(monkeypatch):
    """Record the weights the planner hands to best_feasible, one list per search."""
    seen = []

    def spy(k, weights, masks):
        seen.append(list(weights))
        return best_feasible(k, weights, masks)

    monkeypatch.setattr(dmwm, "best_feasible", spy)
    return seen


def _weights(obs, cfg):
    """The planner's weights from their statement: min(q, H) for a backlogged
    node whose head is within its deadline, else 0."""
    return [
        min(q, cfg.horizon) if q and (limit is None or age <= limit) else 0
        for q, age, limit in zip(obs.q, obs.oldest_age, cfg.deadlines)
    ]


def test_planner_weights_are_python_ints(monkeypatch):
    # The search packs each score into one int; a float weight would corrupt it.
    seen = _spy_on_weights(monkeypatch)
    weights = []
    for name in ("default", "deadline", "bursty"):
        cfg = replace(builtin_scenario(name), steps=80)
        policy = _Recorder(cfg)
        seen.clear()  # only decide's searches: construction searches once for plans
        run_episode(cfg, policy, run_index=0)
        # one search per distinct weight vector of the run, in order of first sight
        distinct = list(dict.fromkeys(tuple(_weights(obs, cfg)) for obs in policy.seen))
        assert [tuple(search) for search in seen] == distinct
        weights.extend(w for search in seen for w in search)
    assert all(type(w) is int for w in weights)
    assert 0 in weights and max(weights) == cfg.horizon  # ineligible nodes and the cap both occur


def test_expired_head_scores_zero_even_with_live_packets_behind_it(monkeypatch):
    # The twin purges only the expired head, but the planner drops the whole
    # node (ROADMAP open item 4). Pinned so that fixing it shows as a change.
    cfg = make_cfg(n_nodes=2, max_scheduled=1, lam=0.0, steps=5, deadlines=(2, None))
    state = reset(cfg)
    step(state, (), (1, 0))  # slot 0: node 0's head arrives
    step(state, (), (2, 1))  # slot 1: two packets behind it, one at node 1
    obs = step(state, (), (0, 0)).next_obs
    assert (obs.q, obs.oldest_age) == ((3, 1), (3, 2))  # node 0's head is past its deadline
    scheduler = DmwmScheduler(cfg)
    seen = _spy_on_weights(monkeypatch)
    record = _decide(scheduler, obs)
    assert seen == [[0, 1]]
    assert (record.nodes, record.best_reward) == ((1,), 1)
    assert step(state, (0,), (0, 0)).served == (0,)  # yet the twin would serve node 0


def test_no_search_when_no_conflict_free_k_set_exists(monkeypatch):
    scheduler = DmwmScheduler(builtin_scenario("interference"))
    seen = _spy_on_weights(monkeypatch)  # decide's searches only, not the construction's
    record = _decide(scheduler, _obs((4,) * 5))
    assert seen == [] and record.provenance is Provenance.FAST_MIND


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
    record = _decide(DmwmScheduler(cfg), _obs((2, 2, 2, 2, 2)))
    assert record.provenance is Provenance.SLOW_MIND
    assert record.feasible_count == 10
    assert len(record.nodes) == 3


def test_decide_falls_back_when_too_few_backlogged():
    cfg = make_cfg()
    record = _decide(DmwmScheduler(cfg), _obs((3, 0, 0, 0, 1)))
    assert record.provenance is Provenance.FAST_MIND
    assert record.feasible_count == 0
    assert record.best_reward is None
    assert len(record.nodes) == 3  # plain fallback always fills the budget


def test_slow_mind_actions_never_conflict():
    rng = np.random.default_rng(13)
    cfg = make_cfg(pairs=[(0, 1), (2, 3)])
    scheduler = DmwmScheduler(cfg)
    for _ in range(200):
        q = tuple(int(rng.integers(0, 6)) for _ in range(5))
        record = _decide(scheduler, _obs(q))
        if record.provenance is Provenance.SLOW_MIND:
            members = record.nodes
            for a in members:
                for b in members:
                    if a < b:
                        assert not cfg.conflict_graph.contains(a, b)


def test_provenance_matches_feasibility():
    rng = np.random.default_rng(17)
    cfg = make_cfg(pairs=[(1, 2)], deadlines=(6, None, 6, None, 6))
    scheduler = DmwmScheduler(cfg)
    for _ in range(200):
        q = tuple(int(rng.integers(0, 4)) for _ in range(5))
        ages = tuple(int(rng.integers(0, 9)) if q[i] > 0 else None for i in range(5))
        obs = _obs(q, ages)
        feasible = feasible_sets(cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, cfg.conflict_graph.pairs)
        expected = Provenance.SLOW_MIND if feasible else Provenance.FAST_MIND
        assert _decide(scheduler, obs).provenance is expected


def test_scheduler_trace_grows_per_decision():
    cfg = builtin_scenario("default")
    policy = DmwmScheduler(cfg)
    rng = np.random.default_rng(0)
    for t in range(5):
        schedule = policy.decide(_obs((1, 1, 1, 1, 1), t=t), rng)
        assert schedule == policy.trace[-1].nodes
    assert len(policy.trace) == 5


def _oracle_decide(obs, cfg):
    """The planner's decision from the oracles: list and roll out every feasible set, else the fast mind."""
    count, schedule, score = first_best(
        cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, cfg.conflict_graph.pairs, cfg.horizon
    )
    if count:
        return DecisionRecord(Provenance.SLOW_MIND, schedule, count, score)
    picked = fast_mind_select(
        obs.q, cfg.deadlines, cfg.max_scheduled, cfg.conflict_graph,
        conflict_aware=cfg.fallback_conflict_aware,
    )
    return DecisionRecord(Provenance.FAST_MIND, picked, 0, None)


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
    record = _decide(DmwmScheduler(cfg), everyone)
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


def _memo_free_decide(obs, cfg, masks):
    """The planner's decision with a fresh best_feasible search every slot and no memo.

    No plans gate: where no conflict-free K-set exists every search finds none.
    """
    count, schedule, score = best_feasible(cfg.max_scheduled, _weights(obs, cfg), masks)
    if count:
        return DecisionRecord(Provenance.SLOW_MIND, schedule, count, score)
    picked = fast_mind_select(
        obs.q, cfg.deadlines, cfg.max_scheduled, cfg.conflict_graph,
        conflict_aware=cfg.fallback_conflict_aware,
    )
    return DecisionRecord(Provenance.FAST_MIND, picked, 0, None)


@pytest.mark.parametrize("name", [*BUILTIN_SCENARIOS, "pairwise16"])
def test_memoized_trace_equals_a_search_every_slot(name, monkeypatch):
    cfg = _pairwise_config(16, 4, steps=200) if name == "pairwise16" else builtin_scenario(name)
    masks = conflict_masks(cfg)
    seen = _spy_on_weights(monkeypatch)
    for run_index in range(3):
        policy = _Recorder(cfg)
        seen.clear()  # only decide's searches: construction searches once for plans
        run_episode(cfg, policy, run_index=run_index)
        assert [_memo_free_decide(obs, cfg, masks) for obs in policy.seen] == policy.trace
        # one search and one entry per distinct weight vector, so at most one per slot
        distinct = {tuple(_weights(obs, cfg)) for obs in policy.seen} if policy.plans else set()
        assert len(seen) == len(policy.memo) == len(distinct) <= cfg.steps


def test_memoized_decisions_equal_a_search_every_slot_on_random_states():
    rng = np.random.default_rng(2121)
    hits = 0
    for _ in range(150):
        n = int(rng.integers(1, 8))
        _, _, deadlines, pairs = random_state(rng, n, 0.3, 0.3)  # pairs either way round
        cfg = make_cfg(
            n_nodes=n, max_scheduled=int(rng.integers(1, n + 1)), horizon=int(rng.integers(1, 4)),
            deadlines=deadlines, pairs=pairs,
        )
        scheduler, masks = DmwmScheduler(cfg), conflict_masks(cfg)
        for t in range(30):
            q, ages, _, _ = random_state(rng, n, 0.3, 0.3)
            obs = _obs(q, ages, t)
            assert _decide(scheduler, obs) == _memo_free_decide(obs, cfg, masks)
        assert len(scheduler.memo) <= 30
        hits += 30 - len(scheduler.memo) if scheduler.plans else 0
    assert hits >= 1000  # most decisions above were answered from the memo


def test_queues_that_cap_alike_share_one_search(monkeypatch):
    # At H = 3 raw queues of 4 and 7 both weigh 3: one search, two slots.
    cfg = make_cfg(n_nodes=2, max_scheduled=1, horizon=3)
    scheduler = DmwmScheduler(cfg)
    seen = _spy_on_weights(monkeypatch)
    first = _decide(scheduler, _obs((4, 1), t=5))
    second = _decide(scheduler, _obs((7, 1), t=6))
    assert seen == [[3, 1]]
    assert first is second and scheduler.trace == [first, first]
    assert first.provenance is Provenance.SLOW_MIND
    assert (first.nodes, first.feasible_count, first.best_reward) == ((0,), 2, 3)


def test_each_run_starts_with_an_empty_memo():
    cfg = replace(builtin_scenario("bursty"), steps=60)
    first, second = DmwmScheduler(cfg), DmwmScheduler(cfg)
    assert first.memo == {} and first.memo is not second.memo
    a = run_episode(cfg, first, run_index=4)
    assert 1 <= len(first.memo) <= cfg.steps and second.memo == {}
    b = run_episode(cfg, second, run_index=4)
    assert a.decision_trace == b.decision_trace


def test_equal_fast_mind_picks_of_a_run_share_one_tuple():
    cfg = builtin_scenario("interference")  # no conflict-free 3-set: every slot is the fast mind's
    scheduler = DmwmScheduler(cfg)
    trace = run_episode(cfg, scheduler, run_index=0).decision_trace
    assert {record.provenance for record in trace} == {Provenance.FAST_MIND}
    first = {}
    for record in trace:
        assert first.setdefault(record.nodes, record) is record
    assert 1 < len(first) <= comb(cfg.n_nodes, cfg.max_scheduled)
    assert scheduler.picks == first
    assert all(record.nodes is nodes for nodes, record in scheduler.picks.items())
    # no record crosses runs
    other = DmwmScheduler(cfg)
    run_episode(cfg, other, run_index=0)
    assert other.picks == scheduler.picks
    assert not any(other.picks[key] is record for key, record in scheduler.picks.items())
    assert not {id(record) for record in other.trace} & {id(record) for record in trace}


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_each_distinct_decision_of_a_run_is_one_record(name):
    cfg = builtin_scenario(name)
    scheduler = DmwmScheduler(cfg)
    trace = run_episode(cfg, scheduler, run_index=0).decision_trace
    stored = [record for record in scheduler.memo.values() if record] + list(scheduler.picks.values())
    # every slot holds a record the memo or picks stored, and every stored record was taken
    assert {id(record) for record in trace} == {id(record) for record in stored}
    assert len(stored) == len({id(record) for record in stored}) <= len(trace) == cfg.steps
    if name == "bursty":
        assert len(stored) <= 15


@pytest.mark.parametrize(
    "name, obs", [("bursty", _obs((9,) * 5)), ("interference", _obs((4, 0, 2, 7, 1)))], ids=["bursty", "interference"]
)
def test_repeated_decides_keep_no_new_gc_tracked_object(name, obs):
    # a memo hit on bursty and a repeated fast-mind pick on interference each append a stored record
    scheduler = DmwmScheduler(builtin_scenario(name))
    scheduler.decide(obs, None)
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(50):
            scheduler.decide(obs, None)
        after = gc.get_count()[0]
    finally:
        gc.enable()
    assert after == before
    assert len(scheduler.trace) == 51 and len(set(map(id, scheduler.trace))) == 1


def test_plans_only_when_some_conflict_free_k_set_does():
    assert not DmwmScheduler(builtin_scenario("interference")).plans  # 5-ring, K=3
    assert DmwmScheduler(builtin_scenario("default")).plans
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        cfg = make_cfg(n_nodes=n, max_scheduled=k, pairs=pairs)
        anywhere = feasible_sets(k, (1,) * n, (None,) * n, (None,) * n, cfg.conflict_graph.pairs)
        assert DmwmScheduler(cfg).plans == bool(anywhere)
