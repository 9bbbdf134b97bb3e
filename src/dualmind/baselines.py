"""The five comparison policies behind the common decide(observation, rng) interface.

decide returns the slot's schedule as a sorted tuple of distinct node ids,
at most max_scheduled of them. A policy instance is owned by one run and
constructed fresh for the next, so the learning baseline starts every run
with an empty table. Policies that learn from outcomes implement
update(schedule, outcome), where outcome.next_obs is the observation of the
next slot; the rest leave it out and the harness skips the call.
"""

from __future__ import annotations

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
    order = sorted(range(len(q)), key=lambda i: (-q[i], i))
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
    weights: list[float] = []
    for i in range(len(q)):
        limit = deadlines[i]
        if limit is not None and q[i] > 0:
            slack = max(limit - oldest_age[i], 0)
            weights.append(q[i] * (1.0 + 1.0 / (slack + 1)))
        else:
            weights.append(float(q[i]))
    order = sorted(range(len(q)), key=lambda i: (-weights[i], i))
    return tuple(sorted(order[:k]))


def fair_rr_select(q: Sequence[int], last: list[int], k: int, t: int) -> tuple[int, ...]:
    """Least-recently-served backlogged nodes first, padded with idle nodes.

    last holds each node's most recent service slot, -1 for never served.
    Ties break by smaller node id. Sets last[i] = t for the chosen nodes.
    """
    backlogged = sorted((i for i in range(len(q)) if q[i] > 0), key=lambda i: (last[i], i))
    chosen = backlogged[:k]
    if len(chosen) < k:
        idle = sorted((i for i in range(len(q)) if q[i] == 0), key=lambda i: (last[i], i))
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
    """State-bucket to action-value table; unseen states read as all zeros.

    Actions are k-subsets indexed by their lexicographic rank.
    """

    n_actions: int
    epsilon: float = Q_EPSILON
    entries: dict[tuple[int, ...], list[float]] = field(default_factory=dict)

    def values(self, key: tuple[int, ...]) -> list[float]:
        vals = self.entries.get(key)
        return vals if vals is not None else [0.0] * self.n_actions


def q_select(table: QTable, key: tuple[int, ...], rng: np.random.Generator) -> int:
    """Epsilon-greedy action index; the exploration gate draws first, then ties
    resolve to the smallest index."""
    if rng.random() < table.epsilon:
        return int(rng.integers(table.n_actions))
    vals = table.values(key)
    best = 0
    for idx in range(1, table.n_actions):
        if vals[idx] > vals[best]:
            best = idx
    return best


def q_update(
    table: QTable, key: tuple[int, ...], action: int, reward: float, next_key: tuple[int, ...]
) -> None:
    """One temporal-difference backup toward reward plus discounted best next value."""
    vals = table.entries.setdefault(key, [0.0] * table.n_actions)
    next_best = max(table.values(next_key))
    vals[action] += Q_ALPHA * (reward + Q_GAMMA * next_best - vals[action])


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

    def decide(self, obs, rng: np.random.Generator) -> tuple[int, ...]:
        key = q_state_key(obs.q)
        idx = q_select(self.table, key, rng)
        self._pending = (key, idx)
        return self._subsets[idx]

    def update(self, schedule, outcome) -> None:
        key, idx = self._pending
        q_update(self.table, key, idx, len(outcome.served), q_state_key(outcome.next_obs.q))
