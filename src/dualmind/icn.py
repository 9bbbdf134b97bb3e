"""Feasibility of candidate schedules, and the slow mind's exact search over them.

A schedule passes when every member has a backlog, no member's head packet
has outlived its deadline, and no two members interfere. icn_check states
that predicate for one schedule.

best_feasible is what the planner runs each slot. It makes one pass over the
eligible nodes (backlogged, head within its deadline) in ascending id order
and returns the number of feasible K-sets, the best of them under the slow
mind's score and that score, without listing the sets. Its cost follows the
number of distinct partial states, which for sparse conflict graphs stays
small at N = 32 where the K-sets number tens of thousands. The conflict
graph enters as per-node bitmasks that conflict_masks builds once per config.

enumerate_feasible lists the feasible K-sets in lexicographic order. With
dmwm.slow_mind_select it is the test oracle for best_feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Sequence

from .core import ConflictGraph, ScenarioConfig


def icn_check(
    schedule: Iterable[int],
    q: Sequence[int],
    oldest_age: Sequence[int | None],
    deadlines: Sequence[int | None],
    conflicts: ConflictGraph,
) -> bool:
    """True iff the schedule is feasible in the observed state."""
    members = tuple(schedule)
    for i in members:
        if q[i] == 0:
            return False
        limit = deadlines[i]
        age = oldest_age[i]
        if limit is not None and age is not None and age > limit:
            return False
    for i, j in combinations(members, 2):
        if conflicts.contains(i, j):
            return False
    return True


def enumerate_feasible(
    n_nodes: int,
    k: int,
    q: Sequence[int],
    oldest_age: Sequence[int | None],
    deadlines: Sequence[int | None],
    conflicts: ConflictGraph,
) -> list[tuple[int, ...]]:
    """All feasible schedules of exactly k nodes, in lexicographic order.

    The test oracle for best_feasible. Subsets of the eligible nodes keep
    the lexicographic order of combinations(range(n_nodes), k). Conflict
    pairs are stored as (min, max), as combinations() yields them, so a
    disjointness test is icn_check's pairwise rule.
    """
    eligible = []
    for i in range(n_nodes):
        limit, age = deadlines[i], oldest_age[i]
        if q[i] > 0 and (limit is None or age is None or age <= limit):
            eligible.append(i)
    pairs = conflicts.pairs
    return [c for c in combinations(eligible, k) if pairs.isdisjoint(combinations(c, 2))]


@dataclass(frozen=True)
class ConflictMasks:
    """A config's conflict graph as the bitmasks best_feasible reads.

    later[i] holds bit j for each node j > i that conflicts with node i.
    clique[i] is the bit of node i's clique in a greedy clique cover of the
    graph. k_set_exists is False when no max_scheduled nodes are pairwise
    free of conflicts, whatever the queues: every slot then goes to the
    fast mind.
    """

    later: tuple[int, ...]
    clique: tuple[int, ...]
    k_set_exists: bool


def best_feasible(
    k: int,
    q: Sequence[int],
    oldest_age: Sequence[int | None],
    deadlines: Sequence[int | None],
    masks: ConflictMasks,
    horizon: int,
) -> tuple[int, tuple[int, ...] | None, int | None]:
    """(feasible_count, schedule, score) over the feasible k-sets; (0, None, None) if none.

    The score of a set is the sum of min(q_i, horizon) over its members,
    and the schedule is the first set in lexicographic order with the
    highest score: what slow_mind_select returns on enumerate_feasible's
    list. masks is conflict_masks(cfg) for the config's conflict graph.

    Two bounds end a slot early: the config has no conflict-free k-set at
    all, or the eligible nodes meet fewer than k cliques of the masks'
    clique cover, and a conflict-free set holds at most one node of each.

    Otherwise one pass visits the eligible nodes in ascending order. A
    state is the number c of members taken so far plus the bitmask of later
    eligible nodes that a taken member conflicts with, packed as
    c << n | mask. Each state holds how many prefixes reach it and the best
    of them. Prefixes that reach one state have the same completions, so
    the best prefix, the highest score with the lexicographically first
    members at that score, makes the best set through that state. A node is
    skipped only while enough eligible nodes remain to finish the set, and
    taken only when no taken member blocks it; a set that reaches k
    members adds its ways to the count and competes for the best.

    Each state's value is one integer, ((score << n | members) << n) | ways,
    where node i sets bit n - 1 - i of members. Of two sets of equal size
    the lexicographically first holds the lowest node where they differ,
    so it has the larger members field: the largest value is the best set.
    Taking node i adds its weight and bit in one addition. Ways never
    exceed C(n, c) < 2**n, so merging two states adds their ways without
    a carry and keeps the larger rest.
    """
    if not masks.k_set_exists:
        return 0, None, None
    later, clique = masks.later, masks.clique
    # Plain loops, not comprehensions: on CPython 3.11 each comprehension
    # call allocates a function object, plus a cell for every enclosing
    # local it reads. Both are objects the cyclic garbage collector tracks,
    # and the fewer a decision allocates, the less often a collection pause
    # lands inside it.
    n = len(q)
    eligible = []
    elig = hit = 0
    for i in range(n):
        limit, age = deadlines[i], oldest_age[i]
        if q[i] > 0 and (limit is None or age is None or age <= limit):
            eligible.append(i)
            elig |= 1 << i
            hit |= clique[i]
    if hit.bit_count() < k:
        return 0, None, None
    ways = (1 << n) - 1  # v & ways is the ways field of a state's value v
    one = 1 << n  # one more member in a state key
    full = (k - 1) << n  # states at or above this complete a set on a take
    keep = (k - len(eligible)) << n  # plus one per visit: states below it cannot skip
    n2 = 2 * n
    count = best = 0
    states = {0: 1}
    for i in eligible:
        bit = 1 << i
        keep += one
        w = q[i]
        gain = ((w if w < horizon else horizon) << n2) | (1 << (n2 - 1 - i))
        block = later[i] & elig
        nxt = {}
        for s, v in states.items():
            if s & bit:  # blocked: the state can only skip i, which frees the bit
                if s >= keep:
                    s -= bit
                    old = nxt.get(s, 0)
                    nxt[s] = v + (old & ways) if v > old else old + (v & ways)
                continue
            if s >= keep:
                old = nxt.get(s, 0)
                nxt[s] = v + (old & ways) if v > old else old + (v & ways)
            v += gain
            if s >= full:
                count += v & ways
                if v > best:
                    best = v
            else:
                s = (s | block) + one
                old = nxt.get(s, 0)
                nxt[s] = v + (old & ways) if v > old else old + (v & ways)
        if not nxt:
            break
        states = nxt
    if not count:
        return 0, None, None
    best >>= n
    members = []
    for i in eligible:
        if best >> (n - 1 - i) & 1:
            members.append(i)
    return count, tuple(members), best >> n


def conflict_masks(cfg: ScenarioConfig) -> ConflictMasks:
    """The config's ConflictMasks; the planner builds them once per run.

    The clique cover takes the nodes in ascending order and puts each in
    the first clique whose members all conflict with it, else in a new one.
    """
    n = cfg.n_nodes
    later = [0] * n
    neighbours = [0] * n
    for i, j in cfg.conflict_graph.pairs:  # stored as (min, max)
        later[i] |= 1 << j
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    cliques: list[int] = []
    clique = []
    for i in range(n):
        for c, members in enumerate(cliques):
            if members & neighbours[i] == members:
                cliques[c] |= 1 << i
                clique.append(1 << c)
                break
        else:
            clique.append(1 << len(cliques))
            cliques.append(1 << i)
    masks = ConflictMasks(tuple(later), tuple(clique), k_set_exists=True)
    everyone = best_feasible(cfg.max_scheduled, (1,) * n, (None,) * n, (None,) * n, masks, 1)
    return masks if everyone[0] else replace(masks, k_set_exists=False)
