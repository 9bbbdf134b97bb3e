"""The dual-mind scheduler.

DmwmScheduler is one run of the planner. The slow mind keeps the feasible
schedule that a drain-only rollout of the observed queues scores best over
a short horizon H, the first in lexicographic order among equals. Draining
a set for H slots sends min(q_i, H) packets from each member i: a MaxWeight
score. So decide weighs node i min(q_i, H) when it is backlogged and its
head packet is within its deadline, else 0, ineligible; H >= 1, so an
eligible node never weighs 0. icn.best_feasible finds the best
conflict-free set under these weights and counts the feasible ones without
listing them; the tests check it against the rollout in tests/oracles.py.
The fast mind is a queue-times-urgency fallback for slots where no
feasible set exists.

The search's answer depends on the weights alone, and each weight lies in
0..H, so a run whose queues sit at or above H keeps asking it the same
question. The scheduler therefore keeps a memo from the weight vector,
packed into one int as it is built, to best_feasible's answer, and
searches only on a miss. The memo holds at most one entry per slot and at
most (H + 1)^N in all. It lives and dies with the run, like the decision
trace: no cache outlives its scheduler or is shared between runs, so a
run's decisions do not depend on which runs came before it or on how many
workers run them. The fast mind still runs on every fast slot: it ranks
the raw queues, which seldom repeat. But its picks are shared per run:
equal fast-mind schedules of one run hold one tuple, as memo hits share
their record's, since a plain fast mind has at most C(N, K) answers."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import ConflictGraph, Provenance, ScenarioConfig
from .icn import best_feasible, conflict_masks
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
    for i in range(len(q)):  # no zip: a zip object is one more gc-tracked allocation
        rank.append(-2 * q[i] if deadlines[i] is not None else -q[i])
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


class DmwmScheduler:
    """One run of the dual-mind planner: its conflict masks, its memo and its decision trace.

    plans is False when no max_scheduled nodes are pairwise free of
    conflicts, whatever the queues: decide then never searches and every
    slot goes to the fast mind. memo maps each weight vector searched so
    far, packed into one int with shift bits a node, to the record of the
    slot that first searched it, or to 0 when it admits no feasible set. A
    miss keeps no gc-tracked object beyond that slot's record, which the
    trace keeps anyway; see icn.best_feasible for why that count matters.
    picks maps each fast-mind schedule of the run to its first tuple, which
    every later equal pick's record holds instead of its own.
    """

    name = "dmwm"

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.masks = conflict_masks(cfg)
        self.shift = cfg.horizon.bit_length()  # wide enough for a weight of H
        self.memo: dict[int, DecisionRecord | int] = {}
        self.trace: list[DecisionRecord] = []
        self.picks: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.plans = best_feasible(cfg.max_scheduled, (1,) * cfg.n_nodes, self.masks)[0] > 0

    def decide(self, obs: Observation, rng) -> tuple[int, ...]:
        """One slot's schedule: slow mind whenever any feasible schedule exists, else fast mind.

        The schedule is a sorted tuple, and the slot's DecisionRecord goes onto
        the trace. A memo hit copies the first record of these weights under
        this slot, sharing its nodes tuple.
        """
        cfg = self.cfg
        plan = 0  # the slow mind's record, or 0 when it has none
        if self.plans:
            horizon, ages, deadlines, shift = cfg.horizon, obs.oldest_age, cfg.deadlines, self.shift
            weights = [0] * len(ages)
            key = i = 0  # a plain loop, for the reason given in icn.best_feasible
            for q in obs.q:
                key <<= shift
                if q:
                    limit = deadlines[i]
                    if limit is None or ages[i] <= limit:
                        w = weights[i] = q if q < horizon else horizon
                        key |= w
                i += 1
            plan = self.memo.get(key)
            if plan is None:  # a miss: search, and keep this slot's record as the answer
                count, schedule, score = best_feasible(cfg.max_scheduled, weights, self.masks)
                plan = DecisionRecord(obs.t, Provenance.SLOW_MIND, schedule, count, score) if count else 0
                self.memo[key] = plan
            elif plan:  # a hit: the first record's answer, under this slot
                plan = DecisionRecord(obs.t, Provenance.SLOW_MIND, plan.nodes, plan.feasible_count, plan.best_reward)
        if not plan:  # no feasible set, or none searched
            picked = fast_mind_select(
                obs.q, cfg.deadlines, cfg.max_scheduled, cfg.conflict_graph,
                conflict_aware=cfg.fallback_conflict_aware,
            )
            plan = DecisionRecord(obs.t, Provenance.FAST_MIND, self.picks.setdefault(picked, picked), 0, None)
        self.trace.append(plan)
        return plan.nodes
