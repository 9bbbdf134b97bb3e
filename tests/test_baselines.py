"""Baseline policies: selection rules, round-robin memory, Q-table mechanics."""

import math
from itertools import combinations

import numpy as np
import pytest

from dualmind.baselines import (
    DeadlinePriorityPolicy,
    FairRoundRobinPolicy,
    LqfPolicy,
    QLearningPolicy,
    QTable,
    RandomPolicy,
    RoundRobinMemory,
    deadline_priority_select,
    fair_rr_select,
    lqf_select,
    q_select,
    q_state_key,
    q_update,
    random_select,
)
from dualmind.dmwm import DmwmScheduler
from dualmind.traffic import make_rng
from dualmind.twin import Observation
from helpers import make_cfg


def test_random_full_set_when_k_equals_n():
    rng = make_rng(1)
    for _ in range(20):
        assert random_select(4, 4, rng) == (0, 1, 2, 3)


def test_random_uniform_over_subsets():
    rng = make_rng(404)
    n_draws = 100_000
    counts = {}
    for _ in range(n_draws):
        pick = random_select(5, 3, rng)
        counts[pick] = counts.get(pick, 0) + 1
    assert len(counts) == 10
    sigma = math.sqrt(0.1 * 0.9 / n_draws)
    for subset, count in counts.items():
        assert abs(count / n_draws - 0.1) <= 3 * sigma, subset


def test_random_reproducible():
    a = [random_select(5, 3, make_rng(9, i)) for i in range(30)]
    b = [random_select(5, 3, make_rng(9, i)) for i in range(30)]
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
    memory = RoundRobinMemory(last_served=[-1] * 5)
    q = (1, 1, 1, 1, 1)
    assert fair_rr_select(q, memory, 3, 0) == (0, 1, 2)
    assert fair_rr_select(q, memory, 3, 1) == (0, 3, 4)


def test_fair_rr_always_includes_sole_backlogged_node():
    memory = RoundRobinMemory(last_served=[-1] * 5)
    for t in range(20):
        picked = fair_rr_select((0, 0, 3, 0, 0), memory, 3, t)
        assert 2 in picked


def test_fair_rr_pads_with_idle_nodes():
    memory = RoundRobinMemory(last_served=[-1] * 4)
    picked = fair_rr_select((0, 5, 0, 0), memory, 3, 0)
    assert picked == (0, 1, 2)
    assert memory.last_served == [0, 0, 0, -1]


@pytest.mark.parametrize("n,k", [(5, 3), (7, 2), (4, 1)])
def test_fair_rr_starvation_freedom(n, k):
    memory = RoundRobinMemory(last_served=[-1] * n)
    q = (1,) * n
    last_seen = [-1] * n
    bound = math.ceil(n / k)
    for t in range(30 * n):
        for i in fair_rr_select(q, memory, k, t):
            if last_seen[i] >= 0:
                assert t - last_seen[i] <= bound
            last_seen[i] = t


def test_q_state_key_buckets():
    assert q_state_key((0, 3, 12, 40, 50)) == (0, 1, 2, 3, 3)
    assert q_state_key((0, 0, 0)) == (0, 0, 0)
    assert q_state_key((5, 6)) == (1, 2)


def test_q_select_greedy_argmax():
    table = QTable(n_actions=5, epsilon=0.0)
    table.entries[(1,)] = [0.0, 0.0, 2.5, 0.0, 0.0]
    assert q_select(table, (1,), make_rng(0)) == 2


def test_q_select_unseen_key_defaults_to_first():
    table = QTable(n_actions=4, epsilon=0.0)
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
    table.entries[(0,)] = [0.0, 0.0]
    q_update(table, (0,), 0, 2.0, (9,))  # unseen next key reads as zeros
    assert table.entries[(0,)][0] == pytest.approx(0.2)

    table.entries[(1,)] = [1.0, 0.0]
    table.entries[(2,)] = [1.0, 0.0]
    q_update(table, (1,), 0, 0.0, (2,))
    assert table.entries[(1,)][0] == pytest.approx(0.995)

    table.entries[(3,)] = [0.0, 0.0]
    q_update(table, (3,), 1, 0.0, (3,))
    assert table.entries[(3,)][1] == pytest.approx(0.0)


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
