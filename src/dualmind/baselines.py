"""The five comparison policies behind the common decide(observation, rng) interface.

decide returns the slot's schedule as a sorted tuple of distinct node ids,
at most max_scheduled of them. A policy instance is owned by one run and
constructed fresh for the next, so the learning baseline starts every run
with an empty table. Policies that learn from outcomes implement
update(schedule, outcome), where outcome.next_obs is the observation of the
next slot; the rest leave it out and the harness skips the call.

Per-slot cost on N nodes with K scheduled, so C(N, K) actions: random is one
integer draw into the k-subsets listed once per run. lqf, deadline and rr
rank the N nodes with one Python loop and a stable C sort, O(N log N).
qlearn buckets each observation's queues once, in O(N): update keeps the
key of the next observation for the decide that receives it. A row stores
only the actions backed up in its state, so decide and update each cost
O(len(row)) on the rows they read (one entry per distinct action taken in
that state), and a new state costs one empty dict. No baseline's decide or
update makes a pass over the action set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import ScenarioConfig

Q_ALPHA = 0.1
Q_GAMMA = 0.95
Q_EPSILON = 0.2


def random_select(
    subsets: Sequence[tuple[int, ...]], rng: np.random.Generator
) -> tuple[int, ...]:
    """A uniformly random member of subsets (a policy's k-subsets), picked with one integer draw."""
    return subsets[int(rng.integers(len(subsets)))]


def lqf_select(q: Sequence[int], k: int) -> tuple[int, ...]:
    """The k longest queues; ties go to the smaller node id."""
    # loops and no closures, for the reason given in icn.best_feasible
    rank = []  # minus each queue length
    for length in q:
        rank.append(-length)
    # sorted() is stable, so equal lengths keep ascending node order
    order = sorted(range(len(q)), key=rank.__getitem__)
    return tuple(sorted(order[:k]))


def deadline_priority_select(
    q: Sequence[int],
    oldest_age: Sequence[int | None],
    deadlines: Sequence[int | None],
    k: int,
) -> tuple[int, ...]:
    """Queue length scaled up as a node's head packet approaches its deadline.

    Weight is q * (1 + 1 / (slack + 1)) for deadline-bearing nodes with a
    backlog, where slack is the remaining head-of-queue lifetime floored at
    zero; plain queue length otherwise. Without deadlines this reduces to
    longest-queue-first.
    """
    rank: list[float] = []  # minus each weight
    for length, age, limit in zip(q, oldest_age, deadlines):
        if limit is not None and length > 0:
            slack = max(limit - age, 0)
            rank.append(-(length * (1.0 + 1.0 / (slack + 1))))
        else:
            rank.append(-float(length))
    order = sorted(range(len(q)), key=rank.__getitem__)
    return tuple(sorted(order[:k]))


def fair_rr_select(q: Sequence[int], last: list[int], k: int, t: int) -> tuple[int, ...]:
    """Least-recently-served backlogged nodes first, padded with idle nodes.

    last holds each node's most recent service slot, -1 for never served.
    Ties break by smaller node id. Sets last[i] = t for the chosen nodes.
    """
    backlogged, idle = [], []
    for i, length in enumerate(q):
        (backlogged if length > 0 else idle).append(i)
    # each list is in ascending id order and sort() is stable, so ties keep it
    backlogged.sort(key=last.__getitem__)
    chosen = backlogged[:k]
    if len(chosen) < k:
        idle.sort(key=last.__getitem__)
        chosen.extend(idle[: k - len(chosen)])
    for i in chosen:
        last[i] = t
    return tuple(sorted(chosen))


def q_state_key(q: Sequence[int]) -> tuple[int, ...]:
    """Coarse queue-occupancy buckets per node: empty, light (1-5), loaded (6-20), heavy."""
    key = []
    for length in q:
        if length == 0:
            key.append(0)
        elif length <= 5:
            key.append(1)
        elif length <= 20:
            key.append(2)
        else:
            key.append(3)
    return tuple(key)


@dataclass
class QTable:
    """State-bucket to action-value table; every value not stored reads 0.0.

    Actions are k-subsets indexed by their lexicographic rank. A state's row
    maps each action backed up in that state to its value; an unseen state
    has no row. q_select and q_update read an unseen state without storing
    a row; q_update stores one for the state it backs up. Rewards are finite
    and >= 0, so every stored value is >= 0.0 and never -0.0.
    """

    n_actions: int
    epsilon: float = Q_EPSILON
    entries: dict[tuple[int, ...], dict[int, float]] = field(default_factory=dict)


def _first_best(row: dict[int, float]) -> int:
    """The first index of a non-empty row's maximum, an unstored action
    counting as 0.0; as no value is negative, a maximum of 0.0 is action 0's."""
    top = max(row.values())
    if top == 0.0:
        return 0
    best = -1
    for action, value in row.items():
        if value == top and (best < 0 or action < best):
            best = action
    return best


def q_select(table: QTable, key: tuple[int, ...], rng: np.random.Generator) -> int:
    """Epsilon-greedy action index; the exploration gate draws first, then ties
    resolve to the smallest index."""
    if rng.random() < table.epsilon:
        return int(rng.integers(table.n_actions))
    row = table.entries.get(key)
    if not row:
        return 0  # the first index of an all-zero row
    return _first_best(row)


def q_update(
    table: QTable, key: tuple[int, ...], action: int, reward: float, next_key: tuple[int, ...]
) -> None:
    """One temporal-difference backup toward reward plus discounted best next
    value. reward must be finite and >= 0: any other raises ValueError before
    the table changes."""
    if not 0 <= reward < math.inf:
        raise ValueError("Q-learning rewards must be finite and >= 0")
    entries = table.entries
    row = entries.get(key)
    if row is None:
        row = entries[key] = {}  # before next_key is read, which may be key
    next_row = entries.get(next_key)
    next_best = max(next_row.values()) if next_row else 0.0  # an unseen or empty row is all zeros
    old = row.get(action, 0.0)
    row[action] = old + Q_ALPHA * (reward + Q_GAMMA * next_best - old)


class RandomPolicy:
    name = "random"

    def __init__(self, cfg: ScenarioConfig):
        self._subsets = list(combinations(range(cfg.n_nodes), cfg.max_scheduled))

    def decide(self, obs, rng: np.random.Generator) -> tuple[int, ...]:
        return random_select(self._subsets, rng)


class LqfPolicy:
    name = "lqf"

    def __init__(self, cfg: ScenarioConfig):
        self._k = cfg.max_scheduled

    def decide(self, obs, rng) -> tuple[int, ...]:
        return lqf_select(obs.q, self._k)


class DeadlinePriorityPolicy:
    name = "deadline"

    def __init__(self, cfg: ScenarioConfig):
        self._k = cfg.max_scheduled
        self._deadlines = cfg.deadlines

    def decide(self, obs, rng) -> tuple[int, ...]:
        return deadline_priority_select(obs.q, obs.oldest_age, self._deadlines, self._k)


class FairRoundRobinPolicy:
    name = "rr"

    def __init__(self, cfg: ScenarioConfig):
        self._k = cfg.max_scheduled
        self.last_served = [-1] * cfg.n_nodes

    def decide(self, obs, rng) -> tuple[int, ...]:
        return fair_rr_select(obs.q, self.last_served, self._k, obs.t)


class QLearningPolicy:
    """Online tabular learner; it explores during the run it is scored on."""

    name = "qlearn"

    def __init__(self, cfg: ScenarioConfig):
        self._subsets = list(combinations(range(cfg.n_nodes), cfg.max_scheduled))
        self.table = QTable(n_actions=len(self._subsets))
        self._pending: tuple[tuple[int, ...], int] | None = None
        # the last update's next observation and its key, which the next
        # decide reuses when the harness hands it that same observation
        self._next_obs = None
        self._next_key: tuple[int, ...] = ()

    def decide(self, obs, rng: np.random.Generator) -> tuple[int, ...]:
        key = self._next_key if obs is self._next_obs else q_state_key(obs.q)
        idx = q_select(self.table, key, rng)
        self._pending = (key, idx)
        return self._subsets[idx]

    def update(self, schedule, outcome) -> None:
        key, idx = self._pending
        self._next_obs = outcome.next_obs
        self._next_key = q_state_key(outcome.next_obs.q)
        q_update(self.table, key, idx, len(outcome.served), self._next_key)
