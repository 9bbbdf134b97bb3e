"""Traffic generation: rate formula, Poisson sampler, stream determinism, mean matching.

The rate and the sampler are read back through generate_arrivals, the only
sampler; _scalar_arrivals restates both as the oracle for its draw order.
"""

import hashlib
import math

import numpy as np
import pytest

from dualmind.core import BUILTIN_SCENARIOS, MAX_RATE, builtin_scenario, validate_config
from dualmind.traffic import (
    ARRIVAL_STREAM,
    BURST_STREAM,
    POLICY_STREAM,
    UNIFORM_BLOCK,
    TrafficStreams,
    generate_arrivals,
    make_rng,
    policy_stream,
    traffic_streams,
)
from dualmind.twin import draw_arrivals
from helpers import GOLDEN_SHA256, make_cfg, no_draw, poisson_counts


def _rate_seen(cfg, t, bursts=lambda: no_draw):
    """Node 0's rate at slot t on a one-node config, read back through generate_arrivals.

    An arrival stream that serves x and then zeros gives one arrival exactly
    when x > exp(-rate), so bisecting on x finds exp(-rate) to the last bit.
    bursts makes the burst draw callable afresh for each slot drawn, so every
    bisection step sees the same spike. A rate of 0 takes no arrival draw.
    """
    taken = []

    def one_arrival(x):
        served = iter([x])

        def draw():
            taken.append(x)
            return next(served, 0.0)

        return generate_arrivals(cfg, t, TrafficStreams(arrivals=draw, bursts=bursts())) == (1,)

    if not one_arrival(1.0):
        assert not taken
        return 0.0
    below, above = 0.0, 1.0  # below <= exp(-rate) < above
    while below < (below + above) / 2 < above:
        mid = (below + above) / 2
        if one_arrival(mid):
            above = mid
        else:
            below = mid
    return -math.log(below)


def test_rate_at_zero_phase():
    cfg = make_cfg(n_nodes=1, lam=0.5)
    assert _rate_seen(cfg, 0) == pytest.approx(0.5)
    assert _rate_seen(cfg, 25) == pytest.approx(0.5)


def test_rate_mid_cycle_value():
    # evaluate the closed form at t=13 independently of the implementation
    expected = 0.8 * (1.0 + 0.75 * math.sin(2.0 * math.pi * 13 / 50))
    assert expected == pytest.approx(1.398816, abs=1e-6)
    got = _rate_seen(make_cfg(n_nodes=1, lam=0.8), 13)
    assert got == pytest.approx(expected)


def test_rate_never_negative_over_full_cycle():
    cfg = make_cfg(n_nodes=1, lam=0.6)
    cfg_burst = make_cfg(
        n_nodes=1, lam=0.9, burst_nodes=(0,), burst_probability=1.0, burst_amplitude_range=(0.0, 4.0)
    )
    for t in range(100):
        assert _rate_seen(cfg_burst, t, lambda: make_rng(1, t).random) >= 0.0
        assert _rate_seen(cfg, t) >= 0.0


def test_burst_spike_bounds_when_gate_always_fires():
    cfg = make_cfg(
        n_nodes=1, lam=0.5, burst_nodes=(0,), burst_probability=1.0, burst_amplitude_range=(2.0, 5.0)
    )
    base = 0.5 * (1.0 + 0.75 * math.sin(0.0))
    rate = _rate_seen(cfg, 0, lambda: make_rng(7).random)
    assert base + 2.0 <= rate <= base + 5.0


def test_non_burst_node_consumes_no_draws():
    # node 0 is not a burst node, even though node 1's gate always fires
    cfg = make_cfg(n_nodes=2, lam=0.5, burst_nodes=(1,), burst_probability=1.0)
    calls = []

    def stream(label, value):
        def draw():
            calls.append(label)
            return value

        return draw

    # every arrival uniform is 0.0, so each node takes exactly one
    generate_arrivals(cfg, 3, TrafficStreams(arrivals=stream("arrival", 0.0), bursts=stream("burst", 0.5)))
    # node 0 draws its arrival with no burst draw; the burst node draws its
    # gate and its amplitude, then its arrival
    assert calls == ["arrival", "burst", "burst", "arrival"]


def test_poisson_zero_rate():
    # a zero rate gives no arrivals and takes no draw
    assert poisson_counts(no_draw, 0.0, 5) == (0,) * 5


def test_poisson_moments_rate_half():
    draws = np.array(poisson_counts(make_rng(123).random, 0.5, 100_000))
    assert 0.485 <= draws.var(ddof=1) <= 0.515
    assert abs(draws.mean() - 0.5) < 0.01


def test_poisson_determinism():
    a = [poisson_counts(make_rng(5, i).random, 1.3, 1)[0] for i in range(50)]
    b = [poisson_counts(make_rng(5, i).random, 1.3, 1)[0] for i in range(50)]
    assert a == b


def test_poisson_exact_up_to_the_rate_cap():
    # exp(-rate) stays a normal double up to MAX_RATE, so the mean follows
    # the rate there; past about 745 exp(-rate) is 0.0 and the mean sticks near 746
    for rate in (400.0, MAX_RATE):
        draws = np.array(poisson_counts(make_rng(11).random, rate, 300))
        assert abs(draws.mean() - rate) < 5 * math.sqrt(rate / 300)


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
    rows = draw_arrivals(cfg, traffic_streams(cfg.base_seed, 0))
    assert len(rows) == cfg.steps
    text = "".join(" ".join(str(c) for c in row) + "\n" for row in rows)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == GOLDEN_SHA256["generate_arrivals seed 42 run 0"][name]


def _scalar_arrivals(cfg, run_index):
    """Oracle: the sampler with one numpy call per uniform (Generator.random,
    and Generator.uniform for a burst amplitude).

    Returns the rows and the number of uniforms taken from each stream. The
    stream keys are written out in full, trailing 0 included.
    """
    arrivals = make_rng(cfg.base_seed, run_index, ARRIVAL_STREAM, 0)
    bursts = make_rng(cfg.base_seed, run_index, BURST_STREAM, 0)
    arrival_draws = burst_draws = 0
    rows = []
    for t in range(cfg.steps):
        row = []
        for i in range(cfg.n_nodes):
            rate = cfg.lambda_base[i] * (1.0 + 0.75 * math.sin(2.0 * math.pi * t / 50.0))
            if i in cfg.burst_nodes and cfg.burst_probability > 0.0:
                burst_draws += 1
                if bursts.random() < cfg.burst_probability:
                    burst_draws += 1
                    rate += float(bursts.uniform(*cfg.burst_amplitude_range))
            count = 0
            if rate > 0.0:
                threshold = math.exp(-rate)
                product = arrivals.random()
                arrival_draws += 1
                while product > threshold:
                    count += 1
                    product *= arrivals.random()
                    arrival_draws += 1
            row.append(count)
        rows.append(tuple(row))
    return rows, arrival_draws, burst_draws


def _random_traffic_cfg(seed):
    """A seeded random valid config: 1-16 nodes, random base rates, random burst nodes.

    The gate probability cycles through 0, 0.3 and 1 with the seed, and
    every fourth seed has an amplitude range with lo == hi.
    """
    rng = np.random.default_rng([20261019, seed])
    n = int(rng.integers(1, 17))
    lo = float(rng.uniform(0.0, 6.0))
    hi = lo if seed % 4 == 3 else lo + float(rng.uniform(0.0, 6.0))
    return validate_config(
        make_cfg(
            n_nodes=n,
            max_scheduled=int(rng.integers(1, n + 1)),
            steps=int(rng.integers(1, 201)),
            lambda_base=[float(rate) for rate in rng.uniform(0.01, 4.0, n)],
            burst_nodes=[int(i) for i in np.flatnonzero(rng.random(n) < 0.5)],
            burst_probability=(0.0, 0.3, 1.0)[seed % 3],
            burst_amplitude_range=(lo, hi),
            base_seed=int(rng.integers(2**63)),
        )
    )


@pytest.mark.parametrize(
    "cfg,runs",
    [pytest.param(builtin_scenario(name), 30, id=name) for name in BUILTIN_SCENARIOS]
    + [pytest.param(_random_traffic_cfg(seed), 3, id=f"random{seed}") for seed in range(12)],
)
def test_block_draws_match_scalar_oracle(cfg, runs):
    for run_index in range(runs):
        expected, _, _ = _scalar_arrivals(cfg, run_index)
        assert draw_arrivals(cfg, traffic_streams(cfg.base_seed, run_index)) == expected


def test_block_draws_match_scalar_oracle_across_block_edges():
    # every node bursts in every slot on top of a high base rate, so both
    # streams use up several blocks within the run
    cfg = make_cfg(
        steps=500,
        lambda_base=(5.5, 6.0, 7.0, 8.0, 9.0),
        burst_nodes=range(5),
        burst_probability=1.0,
        burst_amplitude_range=(2.0, 5.0),
    )
    for run_index in range(3):
        expected, arrival_draws, burst_draws = _scalar_arrivals(cfg, run_index)
        assert arrival_draws > 3 * UNIFORM_BLOCK and burst_draws > UNIFORM_BLOCK
        assert draw_arrivals(cfg, traffic_streams(cfg.base_seed, run_index)) == expected


@pytest.mark.parametrize("seed", [42, 2**40, 2**64 - 1])
@pytest.mark.parametrize("run_index", [0, 2**33])
def test_policy_stream_key(seed, run_index):
    # the key's trailing 0 changes the draws once a word needs more than 32 bits
    expected = make_rng(seed, run_index, POLICY_STREAM, 0).random(8)
    assert np.array_equal(policy_stream(seed, run_index).random(8), expected)


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
