"""Digital twin dynamics: step order, purge, overflow, accounting identities."""

import numpy as np
import pytest

from dualmind.core import builtin_scenario
from dualmind.twin import (
    SimulationEnded,
    conservation_gap,
    imagined_next,
    metrics,
    observe,
    record_model_error,
    reset,
    step,
)
from dualmind.traffic import traffic_streams
from dualmind.baselines import lqf_select
from helpers import make_cfg


def _quiet_state(**overrides):
    """A run with no arrivals so queue motion is fully hand-controlled."""
    cfg = make_cfg(lam=0.0, **overrides)
    return reset(cfg), traffic_streams(cfg.base_seed, 0)


def test_reset_empty_and_sized():
    cfg = builtin_scenario("default")
    state = reset(cfg)
    assert state.t == 0
    assert all(len(queue) == 0 for queue in state.queues)
    total = (
        state.delivered + state.total_delay + state.deadline_violations
        + state.drops_by_node.sum() + state.arrivals_by_node.sum()
    )
    assert total == 0
    assert state.queue_length_timeseries.shape == (200, 5)
    assert state.schedule_matrix.shape == (200, 5)
    assert state.model_error_matrix.shape == (200, 5)


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
    state, streams = _quiet_state()
    state.queues[0].append(0)
    outcome = step(state, (0,), streams)
    assert outcome.served == (0,)
    assert outcome.reward == 1
    assert outcome.delivered_delays == (0,)
    assert len(state.queues[0]) == 0
    assert state.delivered == 1


def test_scheduled_empty_node_contributes_nothing():
    state, streams = _quiet_state()
    outcome = step(state, (1,), streams)
    assert outcome.served == ()
    assert outcome.reward == 0
    assert state.delivered == 0


def test_packet_cannot_be_served_in_arrival_slot():
    cfg = make_cfg(lambda_base=(10.0, 0.0, 0.0, 0.0, 0.0))
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 0)
    outcome = step(state, (0,), streams)
    assert outcome.served == ()  # queue was empty at service time
    assert len(state.queues[0]) > 0  # arrivals landed after service
    second = step(state, (0,), streams)
    assert second.served == (0,)
    assert second.delivered_delays[0] >= 1


def test_overflow_counts_drops():
    cfg = make_cfg(buffer=5, lambda_base=(3.0, 0.0, 0.0, 0.0, 0.0))
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 0)
    for _ in range(5):
        state.queues[0].append(0)
    step(state, (), streams)
    assert len(state.queues[0]) == 5  # still at capacity
    assert state.arrivals_by_node[0] > 0
    # queue started full, nothing admitted
    assert list(state.drops_by_node) == list(state.arrivals_by_node)
    assert metrics(state).drops == state.arrivals_by_node[0]


def test_purge_counts_violations_and_discards():
    state, streams = _quiet_state(deadlines=(2, None, None, None, None))
    state.queues[0].append(0)
    for expected_len in (1, 1, 1, 0):
        # ages 0,1,2 survive a 2-slot deadline; age 3 at t=3 is purged
        step(state, (), streams)
        assert len(state.queues[0]) == expected_len
    assert state.deadline_violations == 1
    assert state.delivered == 0
    outcome = step(state, (0,), streams)
    assert outcome.served == ()  # the expired packet is gone for good


def test_purge_happens_before_service():
    state, streams = _quiet_state(deadlines=(1, None, None, None, None))
    state.queues[0].append(0)
    state.queues[0].append(1)
    state.t = 2
    outcome = step(state, (0,), streams)
    # head (age 2 > 1) purged first, second packet (age 1) served
    assert outcome.new_violations == 1
    assert outcome.delivered_delays == (1,)


def test_reward_sum_equals_delivered_and_conservation():
    cfg = builtin_scenario("bursty")
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 1)
    reward_total = 0
    for _ in range(cfg.steps):
        obs = observe(state)
        reward_total += step(state, lqf_select(obs.q, cfg.max_scheduled), streams).reward
    assert reward_total == state.delivered
    assert conservation_gap(state) == 0


def test_fifo_service_order_per_node():
    cfg = builtin_scenario("bursty")
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 2)
    last_arrival = [-1] * cfg.n_nodes
    for _ in range(cfg.steps):
        obs = observe(state)
        t = state.t
        outcome = step(state, lqf_select(obs.q, cfg.max_scheduled), streams)
        for node, delay in zip(outcome.served, outcome.delivered_delays):
            arrived = t - delay
            assert arrived >= last_arrival[node]
            last_arrival[node] = arrived


def test_metrics_arithmetic():
    state, streams = _quiet_state()
    state.queues[0].append(2)
    state.t = 5
    step(state, (0,), streams)
    report = metrics(state)
    assert report.avg_delay == pytest.approx(3.0)
    assert report.violations == 0 and report.drops == 0
    # definition arithmetic on the throughput ratio
    state.delivered = 300
    assert metrics(state).throughput == pytest.approx(1.5)


def test_metrics_zero_traffic():
    cfg = make_cfg(lam=0.0, steps=20)
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 0)
    for _ in range(cfg.steps):
        step(state, (), streams)
    report = metrics(state)
    assert report.throughput == 0.0
    assert report.avg_queue == 0.0
    assert report.avg_delay == 0.0


def test_imagined_next_examples():
    assert imagined_next((3, 1, 0), (0, 2)) == (2, 1, 0)
    assert imagined_next((4, 2), ()) == (4, 2)
    assert imagined_next((0, 0), (0, 1)) == (0, 0)


def test_record_model_error_rows():
    state, streams = _quiet_state(n_nodes=2, lambda_base=(0.0, 0.0), deadlines=(None, None))
    step(state, (), streams)
    record_model_error(state, (2, 1), (2, 1))
    assert list(state.model_error_matrix[0]) == [0, 0]
    step(state, (), streams)
    record_model_error(state, (2, 1), (4, 1))
    assert list(state.model_error_matrix[1]) == [2, 0]


def test_record_model_error_needs_a_step():
    state, _ = _quiet_state()
    with pytest.raises(ValueError):
        record_model_error(state, (0,) * 5, (0,) * 5)


def test_simulation_ended():
    cfg = make_cfg(lam=0.0, steps=1)
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 0)
    step(state, (), streams)
    with pytest.raises(SimulationEnded):
        step(state, (), streams)


def test_schedule_rows_respect_budget():
    cfg = builtin_scenario("default")
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, 0)
    for _ in range(50):
        obs = observe(state)
        step(state, lqf_select(obs.q, cfg.max_scheduled), streams)
    assert int(state.schedule_matrix[:50].sum(axis=1).max()) <= cfg.max_scheduled


def test_oversized_or_alien_schedule_rejected():
    state, streams = _quiet_state()
    with pytest.raises(ValueError):
        step(state, (0, 1, 2, 3), streams)
    with pytest.raises(ValueError):
        step(state, (9,), streams)
    with pytest.raises(ValueError):
        step(state, (2, 2), streams)  # a repeated id would be served twice
    assert state.t == 0  # a rejected schedule changes nothing
