"""The dual-mind scheduler.

The slow mind scores every feasible schedule by the packets a drain-only
rollout of the observed queues would send over a short horizon, and keeps
the best-scoring one, the first in lexicographic order among equals. It
finds that schedule and counts the feasible ones in a single pass,
icn.best_feasible, without listing them. Draining a set for H slots sends
min(q_i, H) packets from each member i, so the score is a MaxWeight score
with each weight capped at H; the tests step that rollout in
tests/oracles.py and check the search against it. The fast mind is a
queue-times-urgency fallback for slots where no feasible schedule exists.
Every decision is logged so a run's planning behaviour can be audited.
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
    urgency = []
    for n, limit in zip(q, deadlines):
        urgency.append(2 * n if limit is not None else n)
    # sorted() is stable, so equal urgencies keep ascending node order
    order = sorted(range(len(q)), key=[-u for u in urgency].__getitem__)
    if not conflict_aware:
        return tuple(sorted(order[:k]))
    chosen: list[int] = []
    for i in order:
        if len(chosen) == k:
            break
        if urgency[i] == 0:
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


def dmwm_decide(
    obs: Observation, cfg: ScenarioConfig, masks: ConflictMasks | None = None
) -> DecisionRecord:
    """One slot's decision: slow mind whenever any feasible schedule exists, else fast mind.

    The record's nodes are the schedule to apply, as a sorted tuple. masks
    are icn.conflict_masks(cfg), built here when not given.
    """
    if masks is None:
        masks = conflict_masks(cfg)
    count, schedule, score = best_feasible(
        cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, masks, cfg.horizon
    )
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
