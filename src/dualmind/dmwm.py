"""The dual-mind scheduler.

The slow mind scores every feasible schedule by the packets a drain-only
rollout of the observed queues would send over a short horizon, and keeps
the best-scoring one. The fast mind is a queue-times-urgency fallback for
slots where no feasible schedule exists. Every decision is logged so a
run's planning behaviour can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ConflictGraph, Provenance, ScenarioConfig
from .icn import enumerate_feasible
from .twin import Observation, imagined_next


@dataclass(frozen=True)
class RolloutResult:
    """One imagined trajectory: the schedule, its score, every intermediate state."""

    schedule: tuple[int, ...]
    reward: int
    trajectory: tuple[tuple[int, ...], ...]


def rollout(q: Sequence[int], schedule: Sequence[int], horizon: int) -> RolloutResult:
    """Apply the same schedule for `horizon` imagined steps with no arrivals.

    The reward accumulates on the state before each drain step and counts
    the scheduled nodes that still hold a packet. This is the reference
    that slow_mind_select's closed form must agree with.
    """
    members = tuple(schedule)
    trajectory = [tuple(q)]
    reward = 0
    for _ in range(horizon):
        current = trajectory[-1]
        reward += sum(1 for i in members if current[i] > 0)
        trajectory.append(imagined_next(current, members))
    return RolloutResult(schedule=members, reward=reward, trajectory=tuple(trajectory))


def slow_mind_select(
    feasible: Sequence[tuple[int, ...]], q: Sequence[int], horizon: int
) -> tuple[tuple[int, ...], int] | None:
    """Best feasible schedule and its rollout score; None when there are none.

    Draining schedule S for `horizon` steps sends min(q_i, horizon) packets
    from each member, so the rollout score is the sum of those weights over
    S and no trajectory is needed. Only a strictly higher score replaces the
    best so far, so ties keep the earliest schedule in enumeration order.
    """
    if not feasible:
        return None
    # plain loops for the reason given in icn.enumerate_feasible
    weight = []
    for v in q:
        weight.append(min(v, horizon))
    best, top = feasible[0], -1
    for schedule in feasible:
        score = 0
        for i in schedule:
            score += weight[i]
        if score > top:
            best, top = schedule, score
    return best, top


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
    # loops and no closures, for the reason given in icn.enumerate_feasible
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


@dataclass(frozen=True)
class DecisionRecord:
    """Audit row for one scheduling decision."""

    slot: int
    provenance: Provenance
    nodes: tuple[int, ...]
    feasible_count: int
    best_reward: int | None


def dmwm_decide(obs: Observation, cfg: ScenarioConfig) -> DecisionRecord:
    """One slot's decision: slow mind whenever any feasible schedule exists, else fast mind.

    The record's nodes are the schedule to apply, as a sorted tuple.
    """
    feasible = enumerate_feasible(
        cfg.n_nodes, cfg.max_scheduled, obs.q, obs.oldest_age, cfg.deadlines, cfg.conflict_graph
    )
    if feasible:
        schedule, score = slow_mind_select(feasible, obs.q, cfg.horizon)
        return DecisionRecord(
            slot=obs.t,
            provenance=Provenance.SLOW_MIND,
            nodes=schedule,
            feasible_count=len(feasible),
            best_reward=score,
        )
    picked = fast_mind_select(
        obs.q, cfg.deadlines, cfg.max_scheduled, cfg.conflict_graph,
        conflict_aware=cfg.fallback_conflict_aware,
    )
    return DecisionRecord(
        slot=obs.t,
        provenance=Provenance.FAST_MIND,
        nodes=picked,
        feasible_count=0,
        best_reward=None,
    )


class DmwmScheduler:
    """Policy wrapper around dmwm_decide keeping a per-run decision trace."""

    name = "dmwm"

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.trace: list[DecisionRecord] = []

    def decide(self, obs: Observation, rng) -> tuple[int, ...]:
        record = dmwm_decide(obs, self.cfg)
        self.trace.append(record)
        return record.nodes
