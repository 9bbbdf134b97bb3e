"""The network digital twin: slotted queue dynamics with full run accounting.

One TwinState owns one run. A step executes purge, service, arrivals and
accounting in that fixed order, so the observation a scheduler acts on is
always the queue state before the current slot's purge and arrivals; a
packet can never be served in the slot it arrives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class StepOutcome:
    """What one slot produced: services, their delays, losses, and the slot reward."""

    served: tuple[int, ...]
    delivered_delays: tuple[int, ...]
    new_violations: int
    new_drops: int
    reward: int


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
    """All mutable state of one run: queues, counters, diagnostic matrices.

    queues[i] holds one arrival slot per packet waiting at node i, oldest
    first. Static per-node facts (rate, deadline, burst membership) stay in
    cfg, and run totals of arrivals and drops are sums of the per-node arrays.
    """

    cfg: ScenarioConfig
    queues: list[deque[int]]
    t: int
    delivered: int
    total_delay: int
    deadline_violations: int
    arrivals_by_node: np.ndarray
    drops_by_node: np.ndarray
    queue_length_timeseries: np.ndarray  # steps x nodes, recorded after arrivals
    schedule_matrix: np.ndarray  # steps x nodes, True where scheduled
    model_error_matrix: np.ndarray  # steps x nodes, |predicted - actual| next lengths


def reset(cfg: ScenarioConfig) -> TwinState:
    """Fresh run state: empty queues, zeroed counters, steps-by-nodes matrices."""
    shape = (cfg.steps, cfg.n_nodes)
    return TwinState(
        cfg=cfg,
        queues=[deque() for _ in range(cfg.n_nodes)],
        t=0,
        delivered=0,
        total_delay=0,
        deadline_violations=0,
        arrivals_by_node=np.zeros(cfg.n_nodes, dtype=np.int64),
        drops_by_node=np.zeros(cfg.n_nodes, dtype=np.int64),
        queue_length_timeseries=np.zeros(shape, dtype=np.int64),
        schedule_matrix=np.zeros(shape, dtype=bool),
        model_error_matrix=np.zeros(shape, dtype=np.int64),
    )


def observe(state: TwinState) -> Observation:
    """Queue lengths and head ages as the scheduler sees them at the current slot."""
    q = tuple(len(queue) for queue in state.queues)
    ages = tuple(state.t - queue[0] if queue else None for queue in state.queues)
    return Observation(q=q, oldest_age=ages, t=state.t)


def step(state: TwinState, schedule: Sequence[int], streams: TrafficStreams) -> StepOutcome:
    """Advance one slot: purge expired packets, serve the schedule, inject arrivals, record.

    schedule holds distinct node ids. Service is one packet per scheduled
    node; a scheduled node with an empty queue wastes its slot and
    contributes no reward.
    """
    cfg = state.cfg
    t = state.t
    if t >= cfg.steps:
        raise SimulationEnded(f"run is complete after {cfg.steps} slots")
    if len(schedule) > cfg.max_scheduled:
        raise ValueError("schedule exceeds the per-slot transmission budget")
    if any(i < 0 or i >= cfg.n_nodes for i in schedule):
        raise ValueError("schedule names an unknown node")
    if len(set(schedule)) != len(schedule):
        raise ValueError("schedule names a node twice")
    queues = state.queues

    # 1) deadline purge: expired packets leave the queue and count as violations
    new_violations = 0
    for queue, limit in zip(queues, cfg.deadlines):
        if limit is None:
            continue
        while queue and t - queue[0] > limit:
            queue.popleft()
            new_violations += 1
    state.deadline_violations += new_violations

    # 2) service: each scheduled node with a backlog sends its head packet
    served: list[int] = []
    delays: list[int] = []
    for i in sorted(schedule):
        queue = queues[i]
        if queue:
            served.append(i)
            delays.append(t - queue.popleft())
    state.delivered += len(served)
    state.total_delay += sum(delays)
    reward = len(served)

    # 3) arrivals: enqueue up to the buffer bound, count overflow as drops
    counts = generate_arrivals(cfg, t, streams)
    new_drops = 0
    for i, count in enumerate(counts):
        state.arrivals_by_node[i] += count
        queue = queues[i]
        admitted = min(count, cfg.buffer - len(queue))
        queue.extend(repeat(t, admitted))
        overflow = count - admitted
        new_drops += overflow
        state.drops_by_node[i] += overflow

    # 4) accounting, then advance the clock
    state.queue_length_timeseries[t] = [len(queue) for queue in queues]
    for i in schedule:
        state.schedule_matrix[t, i] = True
    state.t = t + 1

    return StepOutcome(
        served=tuple(served),
        delivered_delays=tuple(delays),
        new_violations=new_violations,
        new_drops=new_drops,
        reward=reward,
    )


def imagined_next(q: Sequence[int], scheduled) -> tuple[int, ...]:
    """One drain-only prediction step: scheduled nodes lose one packet, floored at zero.

    Arrivals are deliberately absent; this is the planner's internal model.
    """
    predicted = list(q)
    for i in scheduled:
        if predicted[i] > 0:
            predicted[i] -= 1
    return tuple(predicted)


def record_model_error(
    state: TwinState, imagined: Sequence[int], actual_next: Sequence[int]
) -> None:
    """Store elementwise |imagined - actual| for the step that just executed."""
    if state.t == 0:
        raise ValueError("no step has executed yet")
    state.model_error_matrix[state.t - 1] = [
        abs(a - b) for a, b in zip(imagined, actual_next)
    ]


def metrics(state: TwinState) -> RunMetrics:
    """Per-run metrics; meaningful once the run has consumed all its slots."""
    delivered = state.delivered
    return RunMetrics(
        throughput=delivered / state.cfg.steps,
        avg_queue=float(state.queue_length_timeseries.mean()),
        avg_delay=state.total_delay / delivered if delivered else 0.0,
        violations=state.deadline_violations,
        drops=int(state.drops_by_node.sum()),
    )


def conservation_gap(state: TwinState) -> int:
    """Arrivals minus every accounted outcome; zero on a consistent run."""
    backlog = sum(len(queue) for queue in state.queues)
    return int(state.arrivals_by_node.sum()) - (
        state.delivered + int(state.drops_by_node.sum()) + state.deadline_violations + backlog
    )
