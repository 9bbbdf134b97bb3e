"""The dual-mind scheduler.

The slow mind keeps the feasible schedule that a drain-only rollout of the
observed queues scores best over a short horizon H, the first in
lexicographic order among equals. Draining a set for H slots sends
min(q_i, H) packets from each member i: a MaxWeight score. So dmwm_decide
weighs node i min(q_i, H) when it is backlogged and its head packet is
within its deadline, else 0, ineligible; H >= 1, so an eligible node never
weighs 0. icn.best_feasible finds the best conflict-free set under these
weights and counts the feasible ones without listing them; the tests check
it against the rollout in tests/oracles.py. The fast mind is a
queue-times-urgency fallback for slots where no feasible set exists.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import ConflictGraph, Provenance, ScenarioConfig
from .icn import ConflictMasks, best_feasible, conflict_masks
from .twin import Observation

# Bound only for perfbench's tracer, which looks both names up in this module
# (perfbench/tracer.py); the planner calls icn.best_feasible instead. They go
# when the benchmark re-points those hooks (ROADMAP open item 1).
enumerate_feasible = slow_mind_select = None


def fast_mind_select(
    q: Sequence[int],
    deadlines: Sequence[int | None],
    k: int,
    conflicts: ConflictGraph,
    conflict_aware: bool = False,
) -> tuple[int, ...]:
    """Top-k nodes by queue-length urgency, doubled for deadline-bearing nodes.

    The plain variant ranks by urgency alone, breaks ties by smaller node
    id, and always returns k nodes even if some are idle. The conflict-aware
    variant greedily skips nodes that clash with an earlier pick or have
    zero urgency and may return fewer than k.
    """
    # loops and no closures, for the reason given in icn.best_feasible
    rank = []  # minus each node's urgency
    for n, limit in zip(q, deadlines):
        rank.append(-2 * n if limit is not None else -n)
    # sorted() is stable, so equal urgencies keep ascending node order
    order = sorted(range(len(q)), key=rank.__getitem__)
    if not conflict_aware:
        return tuple(sorted(order[:k]))
    chosen: list[int] = []
    for i in order:
        if len(chosen) == k:
            break
        if rank[i] == 0:
            continue
        for j in chosen:
            if conflicts.contains(i, j):
                break
        else:
            chosen.append(i)
    return tuple(sorted(chosen))


class DecisionRecord(NamedTuple):
    """Audit row for one scheduling decision.

    A named tuple, like twin.Observation: dmwm builds one every slot, and a
    tuple is built in about a third of a frozen dataclass's time.
    """

    slot: int
    provenance: Provenance
    nodes: tuple[int, ...]
    feasible_count: int
    best_reward: int | None


def dmwm_decide(obs: Observation, cfg: ScenarioConfig, masks: ConflictMasks) -> DecisionRecord:
    """One slot's decision: slow mind whenever any feasible schedule exists, else fast mind.

    The record's nodes are the schedule to apply, as a sorted tuple. masks
    are icn.conflict_masks(cfg).
    """
    count = 0
    if masks.k_set_exists:  # else no slot can plan
        horizon, ages, deadlines = cfg.horizon, obs.oldest_age, cfg.deadlines
        weights = [0] * len(ages)
        i = 0  # a plain loop, for the reason given in icn.best_feasible
        for q in obs.q:
            if q:
                limit = deadlines[i]
                if limit is None or ages[i] <= limit:
                    weights[i] = q if q < horizon else horizon
            i += 1
        count, schedule, score = best_feasible(cfg.max_scheduled, weights, masks)
    if count:
        return DecisionRecord(obs.t, Provenance.SLOW_MIND, schedule, count, score)
    picked = fast_mind_select(
        obs.q, cfg.deadlines, cfg.max_scheduled, cfg.conflict_graph,
        conflict_aware=cfg.fallback_conflict_aware,
    )
    return DecisionRecord(obs.t, Provenance.FAST_MIND, picked, 0, None)


class DmwmScheduler:
    """Policy wrapper around dmwm_decide keeping a per-run decision trace.

    The config's conflict masks are built once, at construction.
    """

    name = "dmwm"

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.masks = conflict_masks(cfg)
        self.trace: list[DecisionRecord] = []

    def decide(self, obs: Observation, rng) -> tuple[int, ...]:
        record = dmwm_decide(obs, self.cfg, self.masks)
        self.trace.append(record)
        return record.nodes
