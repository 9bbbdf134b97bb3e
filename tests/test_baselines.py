"""Baseline policies: selection rules, round-robin memory, Q-table mechanics."""

import math
from dataclasses import astuple
from itertools import combinations

import numpy as np
import pytest

import oracles
from dualmind import baselines
from dualmind.baselines import (
    DeadlinePriorityPolicy,
    FairRoundRobinPolicy,
    LqfPolicy,
    QLearningPolicy,
    QTable,
    RandomPolicy,
    deadline_priority_select,
    fair_rr_select,
    lqf_select,
    q_select,
    q_state_key,
    q_update,
    random_select,
)
from dualmind.core import (
    BUILTIN_SCENARIOS,
    ConflictGraph,
    ScenarioConfig,
    builtin_scenario,
    default_lambda,
    validate_config,
)
from dualmind.dmwm import DmwmScheduler
from dualmind.harness import run_episode
from dualmind.traffic import make_rng
from dualmind.twin import Observation
from helpers import make_cfg, recorded_episode


def test_random_full_set_when_k_equals_n():
    rng = make_rng(1)
    subsets = list(combinations(range(4), 4))
    for _ in range(20):
        assert random_select(subsets, rng) == (0, 1, 2, 3)


def test_random_uniform_over_subsets():
    rng = make_rng(404)
    n_draws = 100_000
    counts = {}
    subsets = list(combinations(range(5), 3))
    for _ in range(n_draws):
        pick = random_select(subsets, rng)
        counts[pick] = counts.get(pick, 0) + 1
    assert len(counts) == 10
    sigma = math.sqrt(0.1 * 0.9 / n_draws)
    for subset, count in counts.items():
        assert abs(count / n_draws - 0.1) <= 3 * sigma, subset


def test_random_reproducible():
    subsets = list(combinations(range(5), 3))
    a = [random_select(subsets, make_rng(9, i)) for i in range(30)]
    b = [random_select(subsets, make_rng(9, i)) for i in range(30)]
    assert a == b


def test_lqf_examples():
    assert lqf_select((5, 3, 4, 1, 2), 3) == (0, 1, 2)
    assert lqf_select((2, 2, 2, 2, 2), 3) == (0, 1, 2)
    assert lqf_select((0, 0, 7, 0, 0), 3) == (0, 1, 2)  # zeros padded by id order


def test_lqf_orders_by_length_then_id():
    assert lqf_select((1, 9, 2, 9, 3), 2) == (1, 3)
    assert lqf_select((1, 9, 2, 9, 3), 3) == (1, 3, 4)


def test_deadline_priority_weights():
    # slack 0 doubles the weight of node 0: w = (4, 2)
    picked = deadline_priority_select((2, 2), (5, 0), (5, None), 1)
    assert picked == (0,)


def test_deadline_priority_all_idle():
    assert deadline_priority_select((0, 0, 0, 0), (None,) * 4, (None,) * 4, 2) == (0, 1)


def test_deadline_priority_degenerates_to_lqf():
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = tuple(int(rng.integers(0, 9)) for _ in range(5))
        ages = tuple(int(rng.integers(0, 12)) if v > 0 else None for v in q)
        assert deadline_priority_select(q, ages, (None,) * 5, 3) == lqf_select(q, 3)


def test_fair_rr_initial_rotation():
    last = [-1] * 5
    q = (1, 1, 1, 1, 1)
    assert fair_rr_select(q, last, 3, 0) == (0, 1, 2)
    assert fair_rr_select(q, last, 3, 1) == (0, 3, 4)


def test_fair_rr_always_includes_sole_backlogged_node():
    last = [-1] * 5
    for t in range(20):
        picked = fair_rr_select((0, 0, 3, 0, 0), last, 3, t)
        assert 2 in picked


def test_fair_rr_pads_with_idle_nodes():
    last = [-1] * 4
    picked = fair_rr_select((0, 5, 0, 0), last, 3, 0)
    assert picked == (0, 1, 2)
    assert last == [0, 0, 0, -1]


@pytest.mark.parametrize("n,k", [(5, 3), (7, 2), (4, 1)])
def test_fair_rr_starvation_freedom(n, k):
    last = [-1] * n
    q = (1,) * n
    last_seen = [-1] * n
    bound = math.ceil(n / k)
    for t in range(30 * n):
        for i in fair_rr_select(q, last, k, t):
            if last_seen[i] >= 0:
                assert t - last_seen[i] <= bound
            last_seen[i] = t


def test_q_state_key_buckets():
    assert q_state_key((0, 3, 12, 40, 50)) == (0, 1, 2, 3, 3)
    assert q_state_key((0, 0, 0)) == (0, 0, 0)
    assert q_state_key((5, 6)) == (1, 2)


def test_q_select_greedy_argmax():
    table = QTable(n_actions=5, epsilon=0.0)
    table.entries[(1,)] = {2: 2.5}
    assert q_select(table, (1,), make_rng(0)) == 2


def test_q_select_unseen_key_defaults_to_first():
    table = QTable(n_actions=4, epsilon=0.0)
    assert q_select(table, (9, 9), make_rng(0)) == 0
    table.entries[(9, 9)] = {}  # an empty row is all zeros too
    assert q_select(table, (9, 9), make_rng(0)) == 0


def test_q_select_full_exploration_reaches_everything():
    table = QTable(n_actions=10, epsilon=1.0)
    rng = make_rng(2024)
    counts = [0] * 10
    for _ in range(2000):
        counts[q_select(table, (0,), rng)] += 1
    assert all(c > 0 for c in counts)
    assert max(counts) < 2 * min(counts) + 100


def test_q_update_examples():
    table = QTable(n_actions=2)
    table.entries[(0,)] = {}
    q_update(table, (0,), 0, 2.0, (9,))  # unseen next key reads as zeros
    assert table.entries[(0,)] == {0: pytest.approx(0.2)}

    table.entries[(1,)] = {0: 1.0}
    table.entries[(2,)] = {0: 1.0}
    q_update(table, (1,), 0, 0.0, (2,))
    assert table.entries[(1,)] == {0: pytest.approx(0.995)}

    table.entries[(3,)] = {}
    q_update(table, (3,), 1, 0.0, (3,))
    assert table.entries[(3,)] == {1: pytest.approx(0.0)}


def test_q_exploration_gate_draws_first():
    # identical keys, different value tables: the first uniform is the gate,
    # so the consumed draw count must not depend on table contents
    table = QTable(n_actions=3, epsilon=0.0)
    rng_a = make_rng(5)
    rng_b = make_rng(5)
    q_select(table, (0,), rng_a)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def _random_obs(rng, n=5):
    q = tuple(int(rng.integers(0, 30)) for _ in range(n))
    ages = tuple(int(rng.integers(0, 10)) if v > 0 else None for v in q)
    return Observation(q=q, oldest_age=ages, t=int(rng.integers(0, 100)))


@pytest.mark.parametrize(
    "factory",
    [RandomPolicy, LqfPolicy, DeadlinePriorityPolicy, FairRoundRobinPolicy, QLearningPolicy, DmwmScheduler],
)
def test_every_policy_returns_valid_actions(factory):
    cfg = make_cfg(pairs=[(0, 1)], deadlines=(8, None, 8, None, 8))
    policy = factory(cfg)
    rng = make_rng(100)
    state_rng = np.random.default_rng(6)
    for _ in range(150):
        schedule = policy.decide(_random_obs(state_rng), rng)
        assert type(schedule) is tuple
        assert list(schedule) == sorted(set(schedule))  # sorted, no repeated id
        assert len(schedule) <= cfg.max_scheduled
        assert all(0 <= i < cfg.n_nodes for i in schedule)


def _reprs(table):
    """A Q-table's keys in insertion order, each with the repr of every value in its
    row densified to n_actions values, an unstored action as 0.0.

    Rows may be dicts (dualmind.baselines) or lists (the oracles).
    """
    reprs = []
    for key, row in table.entries.items():
        stored = row if isinstance(row, dict) else dict(enumerate(row))
        reprs.append((key, [repr(stored.get(action, 0.0)) for action in range(table.n_actions)]))
    return reprs


def test_rankings_match_their_oracles_on_tied_queues():
    rng = np.random.default_rng(18)
    for trial in range(3000):
        n = int(rng.integers(1, 17))
        k = int(rng.integers(1, n + 2))  # k > n too
        q = tuple(int(v) for v in rng.integers(0, 4, n))  # ties are the rule
        ages = tuple(int(rng.integers(0, 12)) if v > 0 else None for v in q)
        deadlines = tuple(int(rng.integers(0, 10)) if rng.random() < 0.5 else None for _ in range(n))
        last = [int(v) for v in rng.integers(-1, 4, n)]
        assert lqf_select(q, k) == oracles.lqf_select(q, k), trial
        assert deadline_priority_select(q, ages, deadlines, k) == oracles.deadline_priority_select(
            q, ages, deadlines, k
        ), trial
        ours, theirs = list(last), list(last)
        assert fair_rr_select(q, ours, k, 9) == oracles.fair_rr_select(q, theirs, k, 9), trial
        assert ours == theirs, trial


def test_fair_rr_matches_its_oracle_over_a_run():
    rng = np.random.default_rng(19)
    ours, theirs = [-1] * 6, [-1] * 6
    for t in range(500):
        q = tuple(int(v) for v in rng.integers(0, 3, 6))
        assert fair_rr_select(q, ours, 2, t) == oracles.fair_rr_select(q, theirs, 2, t), t
        assert ours == theirs, t


def test_deadline_priority_exact_float_tie_goes_to_the_smaller_id():
    # q = 2 at slack 0 weighs 2 * (1 + 1/1) = 4.0, exactly q = 4 with no deadline
    for q, ages, deadlines, expected in (
        ((2, 4), (5, 3), (5, None), (0,)),
        ((4, 2), (3, 5), (None, 5), (0,)),
        ((1, 4, 2), (0, 3, 7), (None, None, 6), (1,)),
    ):
        assert deadline_priority_select(q, ages, deadlines, 1) == expected
        assert oracles.deadline_priority_select(q, ages, deadlines, 1) == expected


@pytest.mark.parametrize(
    "row",
    [
        [0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0],
        [0.0, 1.5],  # the maximum at the last index
        [1.0, 0.0, 0.0, 0.0],
        [2.5, 1.0, 2.5],  # repeated maximum at the first and last index
        [1.0, 2.5, 0.0, 2.5],
        [0.0, 0.0, 3.0, 3.0],
        [0.5, 1.0, 0.25, 1.0],
        [0.7],  # a single action
        [0.0],
    ],
)
def test_q_select_argmax_matches_its_oracle(row):
    ours, theirs = QTable(n_actions=len(row), epsilon=0.0), QTable(n_actions=len(row), epsilon=0.0)
    ours.entries[(1,)] = dict(enumerate(row))  # every action stored
    theirs.entries[(1,)] = list(row)
    rng_a, rng_b = make_rng(3), make_rng(3)
    assert q_select(ours, (1,), rng_a) == oracles.q_select(theirs, (1,), rng_b)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize(
    "row,n_actions,expected",
    [
        ({0: 0.0}, 3, 0),
        ({1: 0.0}, 3, 0),  # the unstored action 0 ties the stored zero
        ({1: 0.5}, 3, 1),
        ({2: 0.0}, 3, 0),
        ({0: 0.0, 2: 0.0}, 3, 0),
        ({3: 0.5, 2: 1.0}, 5, 2),
        ({4: 0.3}, 5, 4),
        ({3: 2.0, 1: 2.0}, 5, 1),  # stored out of index order
        ({2: 1.0, 0: 0.5, 1: 1.0}, 3, 1),  # full rows: no unstored zero
        ({1: 0.25, 0: 0.0}, 2, 1),
        ({2: 0.0, 1: 0.0, 0: 0.0}, 3, 0),
        ({1: 2.5, 2: 2.5, 0: 1.0}, 3, 1),
        ({0: 3.0}, 1, 0),
    ],
)
def test_first_best_reads_unstored_actions_as_zero(row, n_actions, expected):
    dense = [row.get(action, 0.0) for action in range(n_actions)]
    assert baselines._first_best(row) == expected == dense.index(max(dense))


def test_q_select_matches_its_oracle_on_random_tables():
    rng = np.random.default_rng(20)
    levels = (0.0, 0.5, 1.0)
    for trial in range(2000):
        n_actions = int(rng.integers(1, 7))
        epsilon = float(rng.choice((0.0, 0.2, 1.0)))
        ours, theirs = QTable(n_actions=n_actions, epsilon=epsilon), QTable(n_actions=n_actions, epsilon=epsilon)
        for key in range(3):
            if rng.random() < 0.7:
                # a random subset of the actions is stored; the rest read 0.0
                stored = rng.random(n_actions) < float(rng.choice((0.3, 0.7, 1.0)))
                row = {a: levels[int(i)] for a, i in enumerate(rng.integers(0, len(levels), n_actions)) if stored[a]}
                ours.entries[(key,)] = row
                theirs.entries[(key,)] = [row.get(a, 0.0) for a in range(n_actions)]
        key = (int(rng.integers(0, 4)),)  # (3,) is never seen
        seed = int(rng.integers(0, 2**32))
        rng_a, rng_b = make_rng(seed), make_rng(seed)
        assert q_select(ours, key, rng_a) == oracles.q_select(theirs, key, rng_b), trial
        assert rng_a.random() == rng_b.random(), trial


def test_q_update_matches_its_oracle_on_random_backups():
    rng = np.random.default_rng(21)
    for trial in range(300):
        n_actions = int(rng.integers(1, 5))
        ours, theirs = QTable(n_actions=n_actions), QTable(n_actions=n_actions)
        if rng.random() < 0.5:  # a seen row of stored zeros on some of the actions
            ours.entries[(0,)] = {a: 0.0 for a in range(n_actions) if rng.random() < 0.6}
            theirs.entries[(0,)] = [0.0] * n_actions
        for _ in range(20):
            key, next_key = (int(rng.integers(0, 4)),), (int(rng.integers(0, 4)),)
            action = int(rng.integers(0, n_actions))
            reward = int(rng.integers(0, 4)) if rng.random() < 0.8 else float(rng.choice((0.0, 0.5, 2.5)))
            q_update(ours, key, action, reward, next_key)
            oracles.q_update(theirs, key, action, reward, next_key)
            assert _reprs(ours) == _reprs(theirs), trial


def test_q_update_unseen_key_that_is_also_the_next_key():
    ours, theirs = QTable(n_actions=3), QTable(n_actions=3)
    q_update(ours, (7,), 2, 3, (7,))
    oracles.q_update(theirs, (7,), 2, 3, (7,))
    assert _reprs(ours) == _reprs(theirs) == [((7,), ["0.0", "0.0", "0.30000000000000004"])]


def _planner_scale_config():
    """16 nodes, K=4, conflict pairs (0,1),...,(14,15), a 10-slot deadline on even nodes."""
    return validate_config(
        ScenarioConfig(
            n_nodes=16,
            max_scheduled=4,
            buffer=50,
            steps=200,
            horizon=3,
            lambda_base=default_lambda(16),
            deadlines=tuple(10 if i % 2 == 0 else None for i in range(16)),
            conflict_graph=ConflictGraph.from_pairs((i, i + 1) for i in range(0, 15, 2)),
            base_seed=42,
        )
    )


class _Recorder:
    """Passes decide/update through to a policy and keeps each schedule and the policy stream."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.schedules = []
        self.rng = None
        if hasattr(inner, "update"):
            self.update = inner.update

    def decide(self, obs, rng):
        self.rng = rng
        schedule = self.inner.decide(obs, rng)
        self.schedules.append(schedule)
        return schedule


def _episode(factory, cfg):
    """The recorder and recorded_episode's (record, queue_lengths, schedule) of run 0."""
    recorder = _Recorder(factory(cfg))
    return recorder, recorded_episode(cfg, recorder, 0, "planner_scale")


@pytest.mark.parametrize(
    "factory", [RandomPolicy, LqfPolicy, DeadlinePriorityPolicy, FairRoundRobinPolicy, QLearningPolicy]
)
def test_baselines_match_their_oracles_on_the_16_node_episode(factory, monkeypatch):
    cfg = _planner_scale_config()
    with monkeypatch.context() as m:
        for name in ("lqf_select", "deadline_priority_select", "fair_rr_select", "q_select", "q_update"):
            m.setattr(baselines, name, getattr(oracles, name))
        reference, (reference_record, _, reference_schedule) = _episode(factory, cfg)
    ours, (record, _, schedule) = _episode(factory, cfg)
    assert len(ours.schedules) == cfg.steps
    assert ours.schedules == reference.schedules
    assert np.array_equal(schedule, reference_schedule)
    assert repr(astuple(record.metrics)) == repr(astuple(reference_record.metrics))
    if factory is QLearningPolicy:
        assert len(ours.inner.table.entries) > 1
        assert _reprs(ours.inner.table) == _reprs(reference.inner.table)
        assert ours.rng.random() == reference.rng.random()


def test_qlearn_stores_at_most_one_value_per_backup():
    cfg = _planner_scale_config()
    policy, _ = _episode(QLearningPolicy, cfg)
    table = policy.inner.table
    assert table.n_actions == 1820  # C(16, 4)
    assert sum(len(row) for row in table.entries.values()) <= cfg.steps


def test_qlearn_tables_hold_only_non_negative_values():
    tables = [_episode(QLearningPolicy, _planner_scale_config())[0].inner.table]
    for name in BUILTIN_SCENARIOS:
        cfg = builtin_scenario(name)
        assert cfg.base_seed == 42
        for run in range(5):
            policy = QLearningPolicy(cfg)
            run_episode(cfg, policy, run, scenario=name)
            tables.append(policy.table)
    for table in tables:
        values = [value for row in table.entries.values() for value in row.values()]
        assert values and min(values) >= 0.0
        assert all(math.copysign(1.0, value) == 1.0 for value in values)  # no -0.0


def test_q_update_rejects_a_negative_or_non_finite_reward_before_touching_the_table():
    cfg = builtin_scenario("default")
    policy = QLearningPolicy(cfg)
    run_episode(cfg, policy, 0, scenario="default")
    table = policy.table
    before = {key: dict(row) for key, row in table.entries.items()}
    for key, next_key in ((next(iter(table.entries)), (0,) * 5), ((9,) * 5, (9,) * 5)):
        for reward in (-1, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                q_update(table, key, 0, reward, next_key)
            assert table.entries == before


class _FreshObservations:
    """Hands the policy an equal copy of each observation, never the object update saw."""

    def __init__(self, inner):
        self.inner = inner
        self.update = inner.update

    def decide(self, obs, rng):
        return self.inner.decide(obs._replace(), rng)


def test_qlearn_buckets_each_observation_once(monkeypatch):
    cfg = builtin_scenario("default")  # 200 slots
    calls = []

    def spy(q):
        calls.append(q)
        return q_state_key(q)

    monkeypatch.setattr(baselines, "q_state_key", spy)
    reused = QLearningPolicy(cfg)
    run_episode(cfg, reused, 0)
    assert len(calls) == 1 + cfg.steps  # slot 0's decide, then each update's next observation
    calls.clear()
    rebucketed = QLearningPolicy(cfg)
    run_episode(cfg, _FreshObservations(rebucketed), 0)
    assert len(calls) == 2 * cfg.steps  # no observation arrives twice: decide buckets its own
    assert _reprs(reused.table) == _reprs(rebucketed.table)
