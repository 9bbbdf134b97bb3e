"""Digital twin dynamics: step order, purge, overflow, accounting identities."""

import pytest

from dualmind.core import builtin_scenario
from dualmind.twin import (
    SimulationEnded,
    conservation_gap,
    draw_arrivals,
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
    state, quiet = _quiet_state()
    state.queues[0].append(0)
    outcome = step(state, (0,), quiet)
    assert outcome.served == (0,)
    assert outcome.delivered_delays == (0,)
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
    assert second.delivered_delays == (1,)


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
    assert outcome.delivered_delays == (1,)


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
        t = state.t
        outcome = step(state, lqf_select(obs.q, cfg.max_scheduled), counts)
        for node, delay in zip(outcome.served, outcome.delivered_delays):
            arrived = t - delay
            assert arrived >= last_arrival[node]
            last_arrival[node] = arrived


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


def test_imagined_next_examples():
    assert imagined_next((3, 1, 0), (0, 2)) == (2, 1, 0)
    assert imagined_next((4, 2), ()) == (4, 2)
    assert imagined_next((0, 0), (0, 1)) == (0, 0)


def test_record_model_error_rows():
    state, quiet = _quiet_state(n_nodes=2, lambda_base=(0.0, 0.0), deadlines=(None, None))
    step(state, (), quiet)
    record_model_error(state, (2, 1), (2, 1))
    assert list(state.model_error_matrix[0]) == [0, 0]
    step(state, (), quiet)
    record_model_error(state, (2, 1), (4, 1))
    assert list(state.model_error_matrix[1]) == [2, 0]


def test_record_model_error_needs_a_step():
    state, _ = _quiet_state()
    with pytest.raises(ValueError):
        record_model_error(state, (0,) * 5, (0,) * 5)


def test_simulation_ended():
    state, quiet = _quiet_state(steps=1)
    step(state, (), quiet)
    with pytest.raises(SimulationEnded):
        step(state, (), quiet)


def test_schedule_rows_respect_budget():
    cfg = builtin_scenario("default")
    state = reset(cfg)
    for counts in draw_arrivals(cfg, traffic_streams(cfg.base_seed, 0))[:50]:
        obs = observe(state)
        step(state, lqf_select(obs.q, cfg.max_scheduled), counts)
    assert int(state.schedule_matrix[:50].sum(axis=1).max()) <= cfg.max_scheduled


def test_oversized_or_alien_schedule_rejected():
    state, quiet = _quiet_state()
    with pytest.raises(ValueError):
        step(state, (0, 1, 2, 3), quiet)
    with pytest.raises(ValueError):
        step(state, (9,), quiet)
    with pytest.raises(ValueError):
        step(state, (2, 2), quiet)  # a repeated id would be served twice
    with pytest.raises(ValueError):
        step(state, (), (0, 0, 0, 0))  # one arrival count short
    assert state.t == 0  # a rejected schedule changes nothing
