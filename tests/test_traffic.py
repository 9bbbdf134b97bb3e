"""Traffic generation: rate formula, Poisson sampler, stream determinism, mean matching."""

import hashlib
import math

import numpy as np
import pytest

from dualmind.core import BUILTIN_SCENARIOS, builtin_scenario
from dualmind.traffic import (
    arrival_rate,
    generate_arrivals,
    make_rng,
    sample_poisson,
    traffic_streams,
)
from helpers import GOLDEN_SHA256, make_cfg


def test_rate_at_zero_phase():
    cfg = make_cfg(lam=0.5)
    rng = make_rng(0)
    assert arrival_rate(cfg, 0, 0, rng) == pytest.approx(0.5)
    assert arrival_rate(cfg, 0, 25, rng) == pytest.approx(0.5)


def test_rate_mid_cycle_value():
    # evaluate the closed form at t=13 independently of the implementation
    expected = 0.8 * (1.0 + 0.75 * math.sin(2.0 * math.pi * 13 / 50))
    assert expected == pytest.approx(1.398816, abs=1e-6)
    got = arrival_rate(make_cfg(lam=0.8), 0, 13, make_rng(0))
    assert got == pytest.approx(expected)


def test_rate_never_negative_over_full_cycle():
    cfg = make_cfg(lam=0.6)
    rng = make_rng(1)
    cfg_burst = make_cfg(
        lam=0.9, burst_nodes=(0,), burst_probability=1.0, burst_amplitude_range=(0.0, 4.0)
    )
    for t in range(100):
        assert arrival_rate(cfg_burst, 0, t, rng) >= 0.0
        assert arrival_rate(cfg, 0, t, rng) >= 0.0


def test_burst_spike_bounds_when_gate_always_fires():
    cfg = make_cfg(
        lam=0.5, burst_nodes=(0,), burst_probability=1.0, burst_amplitude_range=(2.0, 5.0)
    )
    rng = make_rng(7)
    base = 0.5 * (1.0 + 0.75 * math.sin(0.0))
    rate = arrival_rate(cfg, 0, 0, rng)
    assert base + 2.0 <= rate <= base + 5.0


def test_non_burst_node_consumes_no_draws():
    # node 0 is not a burst node, even though node 1's gate always fires
    cfg = make_cfg(lam=0.5, burst_nodes=(1,), burst_probability=1.0)
    rng_a = make_rng(11)
    rng_b = make_rng(11)
    arrival_rate(cfg, 0, 3, rng_a)
    # identical next draws prove the call above touched nothing
    assert rng_a.random() == rng_b.random()


def test_poisson_zero_rate():
    assert sample_poisson(make_rng(0), 0.0) == 0


def test_poisson_moments_rate_half():
    rng = make_rng(123)
    draws = np.array([sample_poisson(rng, 0.5) for _ in range(100_000)])
    assert 0.485 <= draws.var(ddof=1) <= 0.515
    assert abs(draws.mean() - 0.5) < 0.01


def test_poisson_determinism():
    a = [sample_poisson(make_rng(5, i), 1.3) for i in range(50)]
    b = [sample_poisson(make_rng(5, i), 1.3) for i in range(50)]
    assert a == b


def test_arrivals_zero_rates():
    cfg = make_cfg(lam=0.0)
    counts = generate_arrivals(cfg, 0, traffic_streams(1, 0))
    assert counts == (0,) * 5


def test_arrivals_deterministic_across_fresh_streams():
    cfg = builtin_scenario("bursty")
    runs = []
    for _ in range(2):
        streams = traffic_streams(cfg.base_seed, 3)
        runs.append([generate_arrivals(cfg, t, streams) for t in range(80)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_arrivals_match_golden(name):
    # pins the draw order on both traffic streams: seed 42, run 0, every slot,
    # one line of space-separated per-node counts per slot
    cfg = builtin_scenario(name)
    assert cfg.base_seed == 42
    streams = traffic_streams(cfg.base_seed, 0)
    text = "".join(
        " ".join(str(c) for c in generate_arrivals(cfg, t, streams)) + "\n"
        for t in range(cfg.steps)
    )
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == GOLDEN_SHA256["generate_arrivals seed 42 run 0"][name]


def _empirical_means(cfg, runs):
    totals = np.zeros(cfg.n_nodes)
    for run_index in range(runs):
        streams = traffic_streams(cfg.base_seed, run_index)
        for t in range(cfg.steps):
            totals += generate_arrivals(cfg, t, streams)
    return totals / (runs * cfg.steps)


def test_mean_matches_time_average_of_rate():
    cfg = builtin_scenario("default")
    # independent oracle: average the closed-form rate over every slot
    modulation = np.mean(
        [1.0 + 0.75 * math.sin(2.0 * math.pi * t / 50) for t in range(cfg.steps)]
    )
    expected = np.array(cfg.lambda_base) * modulation
    means = _empirical_means(cfg, runs=30)
    assert np.all(np.abs(means - expected) / expected <= 0.05)


def test_mean_includes_burst_contribution():
    cfg = builtin_scenario("bursty")
    modulation = np.mean(
        [1.0 + 0.75 * math.sin(2.0 * math.pi * t / 50) for t in range(cfg.steps)]
    )
    lo, hi = cfg.burst_amplitude_range
    expected = np.array(cfg.lambda_base) * modulation
    for i in cfg.burst_nodes:
        expected[i] += cfg.burst_probability * (lo + hi) / 2.0
    means = _empirical_means(cfg, runs=30)
    assert np.all(np.abs(means - expected) / expected <= 0.05)
