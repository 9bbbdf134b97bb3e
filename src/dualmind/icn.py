"""Feasibility of candidate schedules, and the slow mind's exact search over them.

The search sees each node only as a non-negative int weight: a schedule is
feasible when every member has positive weight and no two members
interfere, and scores the sum of its members' weights. Eligibility and
weights are the planner's rule, stated in dmwm.

best_feasible, which the planner runs on each weight vector its memo has
not seen yet, makes one pass over the eligible nodes in ascending id order
and returns the number of feasible K-sets, the best of them and its score,
without listing the sets. Its cost follows the number of distinct partial
states, which for sparse conflict graphs stays small at N = 32 where the
K-sets number tens of thousands. The conflict graph enters as per-node
bitmasks that conflict_masks builds once per config. The tests check it
against oracles that list every set.
"""

from __future__ import annotations

from typing import Sequence

from .core import ScenarioConfig


def best_feasible(
    k: int, weights: Sequence[int], later: Sequence[int]
) -> tuple[int, tuple[int, ...] | None, int | None]:
    """(feasible_count, schedule, score) over the feasible k-sets; (0, None, None) if none.

    weights holds one non-negative int per node, 0 for a node that may not
    be scheduled. The score of a set is the sum of its members' weights,
    and the schedule is the first set in lexicographic order with the
    highest score. later[i] holds bit j for each node j > i that conflicts
    with node i, as conflict_masks(cfg) builds it.

    One pass visits the eligible nodes, those of positive weight, in
    ascending order. A state is the number c of members taken so far plus
    the bitmask of later eligible nodes that a taken member conflicts with,
    packed as c << n | mask. Each state holds how many prefixes reach it
    and the best of them. Prefixes that reach one state have the same
    completions, so the best prefix, the highest score with the
    lexicographically first members at that score, makes the best set
    through that state. A node is skipped only while enough eligible nodes
    remain to finish the set, and taken only when no taken member blocks
    it; a set that reaches k members adds its ways to the count and
    competes for the best.

    Each state's value is one integer, ((score << n | members) << n) | ways,
    where node i sets bit n - 1 - i of members. Of two sets of equal size
    the lexicographically first holds the lowest node where they differ,
    so it has the larger members field: the largest value is the best set.
    Taking node i adds its weight and bit in one addition. The score field
    is the top one and unbounded, so any int weight fits; a float does not.
    Ways never exceed C(n, c) < 2**n, so merging two states adds their ways
    without a carry and keeps the larger rest.
    """
    # Plain loops, not comprehensions: on CPython 3.11 each comprehension
    # call allocates a function object, plus a cell for every enclosing
    # local it reads. Both are objects the cyclic garbage collector tracks,
    # and the fewer a decision allocates, the less often a collection pause
    # lands inside it.
    n = len(weights)
    eligible = []
    elig = i = 0
    for w in weights:
        if w:
            eligible.append(i)
            elig |= 1 << i
        i += 1
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
        gain = (weights[i] << n2) | (1 << (n2 - 1 - i))
        block = later[i] & elig
        nxt = {}
        for s in states:  # no items() view: one gc-tracked allocation fewer
            v = states[s]
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


def conflict_masks(cfg: ScenarioConfig) -> tuple[int, ...]:
    """Per node i, the bits of the nodes j > i that conflict with it; the planner builds it once per run."""
    later = [0] * cfg.n_nodes
    for i, j in cfg.conflict_graph.pairs:  # stored as (min, max)
        later[i] |= 1 << j
    return tuple(later)
