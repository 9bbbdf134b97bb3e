"""Test oracles, written from the definitions alone.

feasible_sets states the feasibility rule, drain_rollout the planner's
imagined dynamics, and first_best the slow mind's choice built on the two:
list every feasible set, roll each one out, keep the first best. They are
slow on purpose. The planner's one-pass search, icn.best_feasible, never
lists a set, and the tests check it against these.

The baselines' reference copies follow: rankings by a (-weight, id) tuple
key, and the Q-table's argmax and backup as a loop over a full list row of
n_actions values, with an unseen state read as a fresh all-zero row.
dualmind.baselines ranks by a stable sort and stores in each row only the
actions backed up there; the tests check it against these, schedule for
schedule and float for float.
"""

from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

from dualmind.baselines import Q_ALPHA, Q_GAMMA


def feasible_sets(k, q, oldest_age, deadlines, pairs):
    """Every feasible set of k nodes, in lexicographic order.

    A set is feasible when each member is backlogged, each member's head
    packet is no older than the member's deadline, and no two members form
    a conflict pair. pairs may give a pair either way round.
    """
    eligible = [
        i for i in range(len(q))
        if q[i] > 0 and (deadlines[i] is None or oldest_age[i] <= deadlines[i])
    ]
    conflicting = {(i, j) for i, j in pairs} | {(j, i) for i, j in pairs}
    return [s for s in combinations(eligible, k) if conflicting.isdisjoint(combinations(s, 2))]


class Rollout(NamedTuple):
    trajectory: tuple[tuple[int, ...], ...]  # the queues before each imagined slot, then after the last
    reward: int  # packets sent over the horizon


def drain_rollout(q, schedule, horizon):
    """Apply one schedule for horizon imagined slots with no arrivals.

    In each slot every scheduled node that holds a packet sends one.
    trajectory[1] is the drain-only model's one-step prediction.
    """
    queues = list(q)
    trajectory = [tuple(queues)]
    reward = 0
    for _ in range(horizon):
        for i in schedule:
            if queues[i] > 0:
                queues[i] -= 1
                reward += 1
        trajectory.append(tuple(queues))
    return Rollout(tuple(trajectory), reward)


def first_best(k, q, oldest_age, deadlines, pairs, horizon, score=attrgetter("reward")):
    """(feasible count, schedule, score) as the slow mind's search returns them.

    Each feasible k-set is scored on its drain rollout, by the packets sent
    unless score says otherwise; the schedule is the first set in
    lexicographic order with the highest score. (0, None, None) when no set
    is feasible.
    """
    sets = feasible_sets(k, q, oldest_age, deadlines, pairs)
    best, top = None, None
    for s in sets:
        value = score(drain_rollout(q, s, horizon))
        if top is None or value > top:
            best, top = s, value
    return len(sets), best, top


def lqf_select(q, k):
    """The k longest queues; ties go to the smaller node id."""
    order = sorted(range(len(q)), key=lambda i: (-q[i], i))
    return tuple(sorted(order[:k]))


def deadline_priority_select(q, oldest_age, deadlines, k):
    """Queue length scaled up as a node's head packet approaches its deadline.

    Weight is q * (1 + 1 / (slack + 1)) for deadline-bearing nodes with a
    backlog, where slack is the remaining head-of-queue lifetime floored at
    zero; plain queue length otherwise.
    """
    weights = []
    for i in range(len(q)):
        limit = deadlines[i]
        if limit is not None and q[i] > 0:
            slack = max(limit - oldest_age[i], 0)
            weights.append(q[i] * (1.0 + 1.0 / (slack + 1)))
        else:
            weights.append(float(q[i]))
    order = sorted(range(len(q)), key=lambda i: (-weights[i], i))
    return tuple(sorted(order[:k]))


def fair_rr_select(q, last, k, t):
    """Least-recently-served backlogged nodes first, padded with idle nodes;
    ties break by smaller node id. Sets last[i] = t for the chosen nodes."""
    backlogged = sorted((i for i in range(len(q)) if q[i] > 0), key=lambda i: (last[i], i))
    chosen = backlogged[:k]
    if len(chosen) < k:
        idle = sorted((i for i in range(len(q)) if q[i] == 0), key=lambda i: (last[i], i))
        chosen.extend(idle[: k - len(chosen)])
    for i in chosen:
        last[i] = t
    return tuple(sorted(chosen))


def q_values(table, key):
    """The list row of key in a table of list rows, or a fresh all-zero row for an unseen key."""
    vals = table.entries.get(key)
    return vals if vals is not None else [0.0] * table.n_actions


def q_select(table, key, rng):
    """Epsilon-greedy action index; the exploration gate draws first, then ties
    resolve to the smallest index."""
    if rng.random() < table.epsilon:
        return int(rng.integers(table.n_actions))
    vals = q_values(table, key)
    best = 0
    for idx in range(1, table.n_actions):
        if vals[idx] > vals[best]:
            best = idx
    return best


def q_update(table, key, action, reward, next_key):
    """One temporal-difference backup toward reward plus discounted best next value."""
    vals = table.entries.setdefault(key, [0.0] * table.n_actions)
    next_best = max(q_values(table, next_key))
    vals[action] += Q_ALPHA * (reward + Q_GAMMA * next_best - vals[action])
