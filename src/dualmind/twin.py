"""The network digital twin: slotted queue dynamics with full run accounting.

One TwinState owns one run. A step executes purge, service, arrivals and
accounting in that fixed order, so the observation a scheduler acts on is
always the queue state before the current slot's purge and arrivals; a
packet can never be served in the slot it arrives. The arrivals come in
as the slot's per-node counts: draw_arrivals draws every slot's counts of
a run up front, so policies sharing a run's traffic can share the rows.

A step sorts the schedule once and checks it in one pass over the sorted
ids. Each phase after that is one pass: one over the queues that carry a
deadline (listed once by reset) to purge, one over the sorted schedule to
serve, and one over every node to admit arrivals and build the
observation of the next slot, which the step returns as next_obs.

A step does no numpy work and keeps no per-slot record: a run's state is
its queues and its totals, one of which sums every slot's queue lengths
for avg_queue. A caller that wants per-slot history records it from the
outcomes, as dualmind trace does; model_error_matrix derives the
drain-only model's one-step prediction error from such a recording.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import ScenarioConfig
from .traffic import TrafficStreams, generate_arrivals


class SimulationEnded(RuntimeError):
    """step() was called after the configured number of slots."""


class Observation(NamedTuple):
    """Scheduler-facing snapshot: queue lengths, head-of-queue ages, slot index."""

    q: tuple[int, ...]
    oldest_age: tuple[int | None, ...]
    t: int


class StepOutcome(NamedTuple):
    """What one slot produced: the nodes served, losses, and the next observation."""

    served: tuple[int, ...]
    new_violations: int
    new_drops: int
    next_obs: Observation


@dataclass(frozen=True)
class RunMetrics:
    """Per-run summary metrics."""

    throughput: float  # delivered packets per slot
    avg_queue: float  # mean queue length over all (slot, node) samples
    avg_delay: float  # mean slots from arrival to service; 0 if nothing delivered
    violations: int
    drops: int


@dataclass
class TwinState:
    """All mutable state of one run: queues and counters.

    queues[i] holds one arrival slot per packet waiting at node i, oldest
    first. Static per-node facts (rate, deadline, burst membership) stay in
    cfg, and run totals of arrivals and drops are sums of the per-node lists.
    expiring pairs each queue whose node has a deadline with that deadline,
    so the purge visits only those queues.
    """

    cfg: ScenarioConfig
    queues: list[deque[int]]
    t: int
    delivered: int
    total_delay: int
    deadline_violations: int
    arrivals_by_node: list[int]
    drops_by_node: list[int]
    expiring: tuple[tuple[deque[int], int], ...]
    queue_total: int  # every slot's queue lengths after arrivals, summed


def reset(cfg: ScenarioConfig) -> TwinState:
    """Fresh run state: empty queues, zeroed counters."""
    queues = [deque() for _ in range(cfg.n_nodes)]
    return TwinState(
        cfg=cfg,
        queues=queues,
        t=0,
        delivered=0,
        total_delay=0,
        deadline_violations=0,
        arrivals_by_node=[0] * cfg.n_nodes,
        drops_by_node=[0] * cfg.n_nodes,
        expiring=tuple((queue, limit) for queue, limit in zip(queues, cfg.deadlines) if limit is not None),
        queue_total=0,
    )


def observe(state: TwinState) -> Observation:
    """Queue lengths and head ages as the scheduler sees them at the current slot.

    The definition of an observation. step builds the same one for the next
    slot while it records the arrivals and returns it as next_obs, so an
    episode calls observe only at slot 0.
    """
    # Built from lists, so each tuple is allocated at its final size and can
    # reuse a freed one. A tuple built from a generator is allocated afresh
    # at a guessed size, which adds to the cyclic collector's allocation
    # count on every slot and makes its collections run more often.
    q = tuple([len(queue) for queue in state.queues])
    ages = tuple([state.t - queue[0] if queue else None for queue in state.queues])
    return Observation(q=q, oldest_age=ages, t=state.t)


def draw_arrivals(cfg: ScenarioConfig, streams: TrafficStreams) -> list[tuple[int, ...]]:
    """Every slot's per-node arrival counts for one run, slot 0 first."""
    return [generate_arrivals(cfg, t, streams) for t in range(cfg.steps)]


def step(state: TwinState, schedule: Iterable[int], counts: Sequence[int]) -> StepOutcome:
    """Advance one slot: purge expired packets, serve the schedule, inject arrivals, record.

    schedule is an iterable of distinct node ids, each exactly a Python int
    (not a bool or a numpy integer); it is read once. counts holds the slot's
    arrivals per node as non-negative Python ints, as a row of
    draw_arrivals does; it is read by index, counts[0] to counts[n - 1], and
    checked the same way. Service is one packet per scheduled node, in node
    order; a scheduled node with an empty queue wastes its slot. A rejected
    schedule or row raises ValueError and leaves the state untouched. The
    outcome carries the observation of the next slot, equal to
    observe(state) after the step, built while the arrivals are recorded.
    """
    cfg = state.cfg
    t = state.t
    n = cfg.n_nodes
    if t >= cfg.steps:
        raise SimulationEnded(f"run is complete after {cfg.steps} slots")
    try:
        order = sorted(schedule)
    except TypeError:  # not iterable, or ids that do not compare, such as 'a' beside an int
        raise ValueError("schedule is not an iterable of comparable node ids") from None
    if len(order) > cfg.max_scheduled:
        raise ValueError("schedule exceeds the per-slot transmission budget")
    previous = -1
    for i in order:
        if type(i) is not int:
            raise ValueError("schedule names a node by a bool or a non-integer id")
        if i == previous:
            raise ValueError("schedule names a node twice")
        previous = i
    if order and not (0 <= order[0] and order[-1] < n):
        raise ValueError("schedule names an unknown node")
    try:
        if len(counts) != n:
            raise ValueError("need one arrival count per node")
        for i in range(n):  # by index, as the arrivals are read: a mapping's keys are not its counts
            count = counts[i]
            if type(count) is not int:
                raise ValueError("arrival counts must be integers")
            if count < 0:
                raise ValueError("arrival counts cannot be negative")
    except (TypeError, LookupError):  # no length, or no count at some index 0..n-1
        raise ValueError("arrival counts are not a sequence of one count per node") from None
    queues = state.queues

    # 1) deadline purge: expired packets leave the queue and count as violations
    new_violations = 0
    for queue, limit in state.expiring:
        cutoff = t - limit  # a packet that arrived before the cutoff is older than its deadline
        while queue and queue[0] < cutoff:
            queue.popleft()
            new_violations += 1
    state.deadline_violations += new_violations

    # 2) service: each scheduled node with a backlog sends its head packet
    served: list[int] = []
    delay = 0
    for i in order:
        queue = queues[i]
        if queue:
            served.append(i)
            delay += t - queue.popleft()
    state.delivered += len(served)
    state.total_delay += delay

    # 3) arrivals: enqueue up to the buffer bound, count overflow as drops;
    # 4) accounting: add the slot's lengths to the run's total and observe slot t + 1
    buffer = cfg.buffer
    next_t = t + 1
    new_drops = 0
    q: list[int] = []
    ages: list[int | None] = []
    for i in range(n):  # no enumerate: one gc-tracked allocation fewer
        count = counts[i]
        queue = queues[i]
        if count:
            state.arrivals_by_node[i] += count
            admitted = min(count, buffer - len(queue))
            queue.extend(repeat(t, admitted))
            if admitted < count:
                new_drops += count - admitted
                state.drops_by_node[i] += count - admitted
        length = len(queue)
        q.append(length)
        ages.append(next_t - queue[0] if length else None)
    state.queue_total += sum(q)
    state.t = next_t

    return StepOutcome(tuple(served), new_violations, new_drops, Observation(tuple(q), tuple(ages), next_t))


def model_error_matrix(queue_lengths: np.ndarray, schedule: np.ndarray) -> np.ndarray:
    """The drain-only model's one-step prediction error of a run, slot by node.

    The model predicts that each scheduled node holding a packet loses one
    and nothing else changes. Row t is |q - (S_t & (q > 0)) - Q_t|, where
    Q_t and S_t are row t of queue_lengths and schedule and q is the state
    the scheduler saw at slot t: Q_{t-1}, or zeros at slot 0. The error is
    computed in int64 whatever the input's dtype, so unsigned lengths
    cannot wrap.
    """
    lengths = queue_lengths.astype(np.int64)
    prev = np.zeros_like(lengths)
    prev[1:] = lengths[:-1]
    return np.abs(prev - (schedule & (prev > 0)) - lengths)


def metrics(state: TwinState) -> RunMetrics:
    """Per-run metrics; meaningful once the run has consumed all its slots."""
    cfg = state.cfg
    delivered = state.delivered
    return RunMetrics(
        throughput=delivered / cfg.steps,
        # one exact integer sum and one rounding: numpy's float mean while the sum is below 2**53
        avg_queue=state.queue_total / (cfg.steps * cfg.n_nodes),
        avg_delay=state.total_delay / delivered if delivered else 0.0,
        violations=state.deadline_violations,
        drops=sum(state.drops_by_node),
    )


def conservation_gap(state: TwinState) -> int:
    """Arrivals minus every accounted outcome; zero on a consistent run."""
    backlog = sum(len(queue) for queue in state.queues)
    return sum(state.arrivals_by_node) - (
        state.delivered + sum(state.drops_by_node) + state.deadline_violations + backlog
    )
