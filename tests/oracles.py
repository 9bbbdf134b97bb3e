"""The slow mind's test oracles, written from the definitions alone.

feasible_sets states the feasibility rule, drain_rollout the planner's
imagined dynamics, and first_best the slow mind's choice built on the two:
list every feasible set, roll each one out, keep the first best. They are
slow on purpose. The planner's one-pass search, icn.best_feasible, never
lists a set, and the tests check it against these.
"""

from itertools import combinations
from operator import attrgetter
from typing import NamedTuple


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
    """(feasible count, schedule, score) as icn.best_feasible returns them.

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
