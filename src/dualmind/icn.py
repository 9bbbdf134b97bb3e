"""Feasibility filtering for candidate schedules.

A schedule passes when every member has a backlog, no member's head packet
has outlived its deadline, and no two members interfere. icn_check states
that predicate for one schedule. enumerate_feasible filters the eligible
nodes (backlogged, head within its deadline) once per slot and builds only
their k-subsets with no conflicting pair, so its cost follows the eligible
and feasible counts rather than C(n, k).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .core import ConflictGraph


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

    Subsets of the eligible nodes keep the lexicographic order of
    combinations(range(n_nodes), k). Conflict pairs are stored as
    (min, max), as combinations() yields them, so a disjointness test is
    icn_check's pairwise rule. An empty result means no full-size schedule
    is feasible and the caller falls back to the reactive rule.
    """
    # Plain loops, not comprehensions: on CPython 3.11 each comprehension
    # call allocates a function object, plus a cell for every enclosing
    # local it reads. Both are objects the cyclic garbage collector tracks,
    # and the fewer a decision allocates, the less often a collection pause
    # lands inside it.
    eligible = []
    for i in range(n_nodes):
        limit, age = deadlines[i], oldest_age[i]
        if q[i] > 0 and (limit is None or age is None or age <= limit):
            eligible.append(i)
    pairs = conflicts.pairs
    feasible = []
    for c in combinations(eligible, k):
        if pairs.isdisjoint(combinations(c, 2)):
            feasible.append(c)
    return feasible
