"""Digital twin dynamics: step order, purge, overflow, accounting identities."""

import tracemalloc
from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np
import pytest

from dualmind.core import ScenarioConfig, builtin_scenario
from dualmind.twin import (
    Observation,
    RunMetrics,
    SimulationEnded,
    StepOutcome,
    conservation_gap,
    draw_arrivals,
    metrics,
    model_error_matrix,
    observe,
    reset,
    step,
)
from dualmind.traffic import traffic_streams
from dualmind.baselines import LqfPolicy, lqf_select
from helpers import make_cfg, recorded_episode
from oracles import drain_rollout


def _quiet_state(**overrides):
    """A run and an all-zero arrival row, so queue motion is fully hand-controlled."""
    cfg = make_cfg(lam=0.0, **overrides)
    return reset(cfg), (0,) * cfg.n_nodes


def test_reset_empty_and_sized():
    cfg = builtin_scenario("default")
    state = reset(cfg)
    assert state.t == 0
    assert all(len(queue) == 0 for queue in state.queues)
    total = (
        state.delivered + state.total_delay + state.deadline_violations
        + sum(state.drops_by_node) + sum(state.arrivals_by_node)
    )
    assert total == 0 and state.queue_total == 0
    # a run's state holds nothing per slot, so a million-slot run resets as small as a short one
    tracemalloc.start()
    try:
        reset(replace(cfg, steps=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # an int32 length and a flag per node and slot would take 25 MB


def test_observe_empty_queue():
    state, _ = _quiet_state()
    obs = observe(state)
    assert obs.q == (0,) * 5
    assert obs.oldest_age == (None,) * 5


def test_observe_head_age():
    state, _ = _quiet_state()
    state.queues[2].append(3)
    state.t = 9
    obs = observe(state)
    assert obs.q[2] == 1
    assert obs.oldest_age[2] == 6


def test_single_dequeue():
    state, quiet = _quiet_state()
    state.queues[0].append(0)
    outcome = step(state, (0,), quiet)
    assert outcome.served == (0,)
    assert state.total_delay == 0  # the slot's one packet waited 0 slots
    assert len(state.queues[0]) == 0
    assert state.delivered == 1


def test_scheduled_empty_node_contributes_nothing():
    state, quiet = _quiet_state()
    outcome = step(state, (1,), quiet)
    assert outcome.served == ()
    assert state.delivered == 0


def test_packet_cannot_be_served_in_arrival_slot():
    state = reset(make_cfg())
    outcome = step(state, (0,), (3, 0, 0, 0, 0))
    assert outcome.served == ()  # queue was empty at service time
    assert len(state.queues[0]) == 3  # arrivals landed after service
    second = step(state, (0,), (0, 0, 0, 0, 0))
    assert second.served == (0,)
    assert state.total_delay == 1  # the slot's one packet waited 1 slot


def test_overflow_counts_drops():
    state = reset(make_cfg(buffer=5))
    for _ in range(5):
        state.queues[0].append(0)
    step(state, (), (4, 0, 0, 0, 0))
    assert len(state.queues[0]) == 5  # still at capacity
    assert state.arrivals_by_node[0] == 4
    # queue started full, nothing admitted
    assert list(state.drops_by_node) == list(state.arrivals_by_node)
    assert metrics(state).drops == state.arrivals_by_node[0]


def test_purge_counts_violations_and_discards():
    state, quiet = _quiet_state(deadlines=(2, None, None, None, None))
    state.queues[0].append(0)
    for expected_len in (1, 1, 1, 0):
        # ages 0,1,2 survive a 2-slot deadline; age 3 at t=3 is purged
        step(state, (), quiet)
        assert len(state.queues[0]) == expected_len
    assert state.deadline_violations == 1
    assert state.delivered == 0
    outcome = step(state, (0,), quiet)
    assert outcome.served == ()  # the expired packet is gone for good


def test_purge_happens_before_service():
    state, quiet = _quiet_state(deadlines=(1, None, None, None, None))
    state.queues[0].append(0)
    state.queues[0].append(1)
    state.t = 2
    outcome = step(state, (0,), quiet)
    # head (age 2 > 1) purged first, second packet (age 1) served
    assert outcome.new_violations == 1
    assert outcome.served == (0,) and state.total_delay == 1


def test_reward_sum_equals_delivered_and_conservation():
    cfg = builtin_scenario("bursty")
    state = reset(cfg)
    served_total = 0
    for counts in draw_arrivals(cfg, traffic_streams(cfg.base_seed, 1)):
        obs = observe(state)
        served_total += len(step(state, lqf_select(obs.q, cfg.max_scheduled), counts).served)
    assert served_total == state.delivered
    assert conservation_gap(state) == 0


def test_fifo_service_order_per_node():
    cfg = builtin_scenario("bursty")
    state = reset(cfg)
    last_arrival = [-1] * cfg.n_nodes
    for counts in draw_arrivals(cfg, traffic_streams(cfg.base_seed, 2)):
        obs = observe(state)
        t, before = state.t, state.total_delay
        oldest = [min(queue, default=None) for queue in state.queues]  # bursty has no deadlines to purge
        outcome = step(state, lqf_select(obs.q, cfg.max_scheduled), counts)
        # no served packet waited longer than its node's oldest, so an equal
        # total means each node sent its oldest packet
        assert state.total_delay - before == sum(t - oldest[node] for node in outcome.served)
        for node in outcome.served:
            assert oldest[node] >= last_arrival[node]
            last_arrival[node] = oldest[node]


def test_metrics_arithmetic():
    state, quiet = _quiet_state()
    state.queues[0].append(2)
    state.t = 5
    step(state, (0,), quiet)
    report = metrics(state)
    assert report.avg_delay == pytest.approx(3.0)
    assert report.violations == 0 and report.drops == 0
    # definition arithmetic on the throughput ratio
    state.delivered = 300
    assert metrics(state).throughput == pytest.approx(1.5)


def test_metrics_zero_traffic():
    cfg = make_cfg(lam=0.0, steps=20)
    state = reset(cfg)
    for counts in draw_arrivals(cfg, traffic_streams(cfg.base_seed, 0)):
        step(state, (), counts)
    report = metrics(state)
    assert report.throughput == 0.0
    assert report.avg_queue == 0.0
    assert report.avg_delay == 0.0


def test_model_error_matrix_hand_cases():
    state, _ = _quiet_state(n_nodes=2, lambda_base=(0.0, 0.0), deadlines=(None, None), steps=3)
    slots = (
        ((0,), (3, 0)),  # slot 0: the model starts from empty queues
        ((1,), (0, 2)),  # node 1 is scheduled while empty, then gets 2 arrivals
        ((0,), (0, 0)),  # node 0 drains as predicted
    )
    lengths = np.array([step(state, schedule, counts).next_obs.q for schedule, counts in slots], np.intc)
    schedule = np.array([[True, False], [False, True], [True, False]])
    errors = model_error_matrix(lengths, schedule)
    assert errors.dtype == np.int64
    assert errors.tolist() == [[3, 0], [0, 2], [0, 0]]
    assert errors[0].tolist() == lengths[0].tolist()
    # computed in int64, so unsigned input cannot wrap: a node gains a packet
    # unscheduled (error 1), then is served as predicted
    errors = model_error_matrix(np.array([[0], [1], [0]], np.uint8), np.array([[False], [False], [True]]))
    assert errors.dtype == np.int64
    assert errors.tolist() == [[0], [1], [0]]


def test_simulation_ended():
    state, quiet = _quiet_state(steps=1)
    step(state, (), quiet)
    with pytest.raises(SimulationEnded):
        step(state, (), quiet)


def test_schedule_rows_respect_budget():
    cfg = replace(builtin_scenario("default"), steps=50)
    _, _, schedule = recorded_episode(cfg, LqfPolicy(cfg))
    assert int(schedule.sum(axis=1).max()) <= cfg.max_scheduled


def _snapshot(state):
    return (
        state.t,
        [list(queue) for queue in state.queues],
        list(state.arrivals_by_node),
        list(state.drops_by_node),
        state.delivered,
        state.total_delay,
        state.deadline_violations,
        state.queue_total,
    )


def test_oversized_or_alien_schedule_rejected():
    # and any arrival row in another form, from one table: a schedule is
    # exactly an ascending tuple of in-range int ids, at most K of them, as
    # every policy returns it, and a row exactly a tuple of N non-negative
    # int counts, as draw_arrivals returns it. Node 0 holds an
    # expired head packet and node 1 a backlog, so a step that got as far as
    # its purge or its service before failing would show in the snapshot.
    state, quiet = _quiet_state(deadlines=(2, None, None, None, None))
    state.queues[0].extend([0, 2])
    state.queues[1].append(2)
    state.t = 3
    before = _snapshot(state)
    schedules = (
        [0, 1], (i for i in (0, 1)), iter((0, 1)), range(2), {0, 1}, {0: 1}, None, 0, "01",
        (1, 0), (0, 2, 1), (1, 1), (0, 1, 1), (-1,), (-1, 0),
        (True,), (0, True), (np.int64(1),), (0, np.intc(1)), (1.0,), (0, 1.5), (np.float64(1.0),),
        ("a",), (0, "a"), (None,), (0, None), (0, 1, 2, 3), (5,), (0, 9),
    )
    rows = (
        [0, 0, 0, 0, 0], {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}, (c for c in quiet), iter(quiet), range(5),
        np.zeros(5, dtype=int), None, 0, "00000", (0, 0, 0, 0), (0,) * 6,
        (-1, 0, 0, 0, 0), (0, 0, 0, 0, -3), (True, 0, 0, 0, 0), (0, 0, False, 0, 0),
        (1.0, 0, 0, 0, 0), (0, 0, 0, 0, 0.5), (np.int64(1), 0, 0, 0, 0), ("1", 0, 0, 0, 0), (None, 0, 0, 0, 0),
    )
    for schedule, row in [(schedule, quiet) for schedule in schedules] + [((0,), row) for row in rows]:
        with pytest.raises(ValueError):
            step(state, schedule, row)
        assert _snapshot(state) == before, (schedule, row)
    served = step(state, (0, 1), quiet).served  # the same state still steps, purge first
    assert served == (0, 1) and all(type(i) is int for i in served)
    assert state.deadline_violations == 1


def test_negative_arrival_count_rejected():
    # also non-integer counts; node 0 has packets queued, so a half-applied
    # step would serve it before failing on the row
    state = reset(make_cfg())
    step(state, (0,), (2, 1, 0, 0, 0))
    before = _snapshot(state)
    for row in ((-2, 0, 0, 0, 0), (0, 0, 0, 0, -1)):
        with pytest.raises(ValueError, match="negative"):
            step(state, (0,), row)
    for row in ((1.5, 0, 0, 0, 0), (1.0, 0, 0, 0, 0), (0, 0, True, 0, 0)):
        with pytest.raises(ValueError, match="integers"):
            step(state, (0,), row)
    # a row is a tuple: a list or a mapping of the same counts is not read
    for row in ([2, 1, 0, 0, 0], {0: -3, 1: 0, 2: 0, 3: 0, 4: 0}, None):
        with pytest.raises(ValueError, match="tuple"):
            step(state, (0,), row)
    assert _snapshot(state) == before
    assert conservation_gap(state) == 0


# The twin as it was when every slot wrote straight into numpy arrays: the
# oracle for step's outcomes, the run's totals and metrics, and the
# per-slot matrices recorded from the outcomes.
@dataclass
class _OracleState:
    cfg: ScenarioConfig
    queues: list
    t: int
    delivered: int
    total_delay: int
    deadline_violations: int
    arrivals_by_node: np.ndarray
    drops_by_node: np.ndarray
    queue_length_timeseries: np.ndarray
    schedule_matrix: np.ndarray


def _oracle_reset(cfg):
    shape = (cfg.steps, cfg.n_nodes)
    return _OracleState(
        cfg=cfg,
        queues=[deque() for _ in range(cfg.n_nodes)],
        t=0,
        delivered=0,
        total_delay=0,
        deadline_violations=0,
        arrivals_by_node=np.zeros(cfg.n_nodes, dtype=np.int64),
        drops_by_node=np.zeros(cfg.n_nodes, dtype=np.int64),
        queue_length_timeseries=np.zeros(shape, dtype=np.intc),
        schedule_matrix=np.zeros(shape, dtype=bool),
    )


def _oracle_step(state, schedule, counts):
    cfg, t, queues = state.cfg, state.t, state.queues
    new_violations = 0
    for queue, limit in zip(queues, cfg.deadlines):
        if limit is None:
            continue
        while queue and t - queue[0] > limit:
            queue.popleft()
            new_violations += 1
    state.deadline_violations += new_violations
    served, delays = [], []
    for i in sorted(schedule):
        queue = queues[i]
        if queue:
            served.append(i)
            delays.append(t - queue.popleft())
    state.delivered += len(served)
    state.total_delay += sum(delays)
    new_drops = 0
    for i, count in enumerate(counts):
        state.arrivals_by_node[i] += count
        queue = queues[i]
        admitted = min(count, cfg.buffer - len(queue))
        queue.extend(repeat(t, admitted))
        overflow = count - admitted
        new_drops += overflow
        state.drops_by_node[i] += overflow
    state.queue_length_timeseries[t] = [len(queue) for queue in queues]
    for i in schedule:
        state.schedule_matrix[t, i] = True
    state.t = t + 1
    next_obs = Observation(
        tuple(len(queue) for queue in queues),
        tuple(state.t - queue[0] if queue else None for queue in queues),
        state.t,
    )
    return StepOutcome(tuple(served), new_violations, new_drops, next_obs)


def _oracle_metrics(state):
    delivered = state.delivered
    return RunMetrics(
        throughput=delivered / state.cfg.steps,
        avg_queue=float(state.queue_length_timeseries.mean()),
        avg_delay=state.total_delay / delivered if delivered else 0.0,
        violations=state.deadline_violations,
        drops=int(state.drops_by_node.sum()),
    )


def _assert_same_state(state, oracle):
    assert state.t == oracle.t
    assert [list(queue) for queue in state.queues] == [list(queue) for queue in oracle.queues]
    assert state.delivered == oracle.delivered
    assert state.total_delay == oracle.total_delay
    assert state.deadline_violations == oracle.deadline_violations
    assert state.arrivals_by_node == oracle.arrivals_by_node.tolist()
    assert state.drops_by_node == oracle.drops_by_node.tolist()
    assert metrics(state) == _oracle_metrics(oracle)
    assert conservation_gap(state) == 0


def _random_cfg(rng, n_nodes):
    return make_cfg(
        n_nodes=n_nodes,
        max_scheduled=int(rng.integers(1, n_nodes + 1)),
        buffer=int(rng.integers(1, 6)) if rng.random() < 0.6 else 50,  # tight buffers overflow
        steps=int(rng.integers(1, 40)),
        lam=0.0,
        deadlines=tuple(int(rng.integers(0, 6)) if rng.random() < 0.5 else None for _ in range(n_nodes)),
    )


def test_twin_matches_numpy_oracle_on_random_runs():
    rng = np.random.default_rng(20261018)
    seen = dict(drops=0, violations=0, wasted=0)
    for trial in range(240):
        cfg = _random_cfg(rng, n_nodes=1 + trial % 16)
        n = cfg.n_nodes
        state, oracle = reset(cfg), _oracle_reset(cfg)
        _assert_same_state(state, oracle)  # reads before the first slot
        # the run's per-slot matrices, recorded from the outcomes as dualmind trace records them
        lengths = np.zeros((cfg.steps, n), dtype=np.intc)
        scheduled = np.zeros((cfg.steps, n), dtype=bool)
        # the drain-only model's prediction of each slot against the twin
        want_errors = np.zeros((cfg.steps, n), dtype=np.int64)
        rate = float(rng.uniform(0.0, 3.0))
        for t in range(cfg.steps):
            obs = observe(state)
            size = int(rng.integers(0, cfg.max_scheduled + 1))
            schedule = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
            counts = tuple(int(c) for c in rng.poisson(rate, n))
            seen["wasted"] += sum(1 for i in schedule if obs.q[i] == 0)
            outcome = step(state, schedule, counts)
            assert outcome == _oracle_step(oracle, schedule, counts)
            assert outcome.next_obs == observe(state)
            lengths[t] = outcome.next_obs.q
            scheduled[t, list(schedule)] = True
            seen["drops"] += outcome.new_drops
            seen["violations"] += outcome.new_violations
            imagined = drain_rollout(obs.q, schedule, 1).trajectory[1]
            want_errors[t] = [abs(a - b) for a, b in zip(imagined, observe(state).q)]
            _assert_same_state(state, oracle)  # mid-run metrics count the slots ahead as zero rows
        assert np.array_equal(lengths, oracle.queue_length_timeseries)
        assert np.array_equal(scheduled, oracle.schedule_matrix)
        errors = model_error_matrix(lengths, scheduled)
        assert errors.dtype == want_errors.dtype
        assert np.array_equal(errors, want_errors)
    assert all(count > 0 for count in seen.values()), seen
