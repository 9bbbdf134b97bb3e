"""Deterministic traffic: seeded streams and modulated Poisson arrivals with burst spikes.

All randomness flows through PCG64 generators keyed by integer tuples via
numpy's SeedSequence, so a given key reproduces the same draw sequence on
any platform. Each purpose (arrival counts, burst spikes, policy choices)
owns a separate stream: adding draws to one purpose never shifts another,
which keeps traffic identical across policies in paired comparisons.

The two traffic streams are zero-argument draw callables. Each serves its
generator's uniforms in blocks of UNIFORM_BLOCK, read from a Python list,
so one draw costs a list step instead of a numpy call; the sequence is the
one per-call Generator.random() would give, and a burst amplitude
lo + (hi - lo) * u is bit for bit Generator.uniform(lo, hi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ScenarioConfig

ARRIVAL_STREAM = 0
BURST_STREAM = 1
POLICY_STREAM = 2

# Base-rate modulation: one sine period every 50 slots, swinging +/- 75%.
MODULATION_PERIOD = 50.0
MODULATION_DEPTH = 0.75

# Uniforms drawn per numpy call on a traffic stream.
UNIFORM_BLOCK = 4096

Draw = Callable[[], float]


def make_rng(*key: int) -> np.random.Generator:
    """A PCG64 generator for an integer key tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _block_uniforms(rng: np.random.Generator) -> Draw:
    """A draw callable returning rng's uniforms in order, UNIFORM_BLOCK per numpy call."""

    def uniforms():
        while True:
            yield from rng.random(UNIFORM_BLOCK).tolist()

    return uniforms().__next__


@dataclass
class TrafficStreams:
    """The two traffic substreams owned by one simulation run, as draw callables."""

    arrivals: Draw
    bursts: Draw


def traffic_streams(base_seed: int, run_index: int, salt: int = 0) -> TrafficStreams:
    """Traffic streams keyed by (seed, run, purpose, salt).

    salt stays 0 for paired comparisons so every policy sees identical
    arrivals; unpaired campaigns pass a per-policy salt instead.
    """
    return TrafficStreams(
        arrivals=_block_uniforms(make_rng(base_seed, run_index, ARRIVAL_STREAM, salt)),
        bursts=_block_uniforms(make_rng(base_seed, run_index, BURST_STREAM, salt)),
    )


def policy_stream(base_seed: int, run_index: int, salt: int = 0) -> np.random.Generator:
    """The stream policies draw from; separate from traffic by construction."""
    return make_rng(base_seed, run_index, POLICY_STREAM, salt)


def arrival_rate(cfg: ScenarioConfig, i: int, t: int, burst_draw: Draw) -> float:
    """Node i's instantaneous arrival rate: modulated base plus an occasional spike.

    The base is cfg.lambda_base[i] under a sinusoidal modulation. Nodes in
    cfg.burst_nodes draw one gate uniform per slot and, when the gate fires
    (probability cfg.burst_probability), an amplitude uniform from
    cfg.burst_amplitude_range. Non-burst nodes consume no randomness.
    The result is clamped to be non-negative.
    """
    rate = cfg.lambda_base[i] * (
        1.0 + MODULATION_DEPTH * math.sin(2.0 * math.pi * t / MODULATION_PERIOD)
    )
    if i in cfg.burst_nodes and cfg.burst_probability > 0.0:
        if burst_draw() < cfg.burst_probability:
            lo, hi = cfg.burst_amplitude_range
            rate += lo + (hi - lo) * burst_draw()
    return max(rate, 0.0)


def sample_poisson(draw: Draw, rate: float) -> int:
    """Poisson draw by the multiplicative uniform-product method.

    Consumes O(rate) uniforms, the right trade for the small per-slot rates
    used here; rate 0 returns 0 without consuming any draws.
    """
    if rate <= 0.0:
        return 0
    threshold = math.exp(-rate)
    count = 0
    product = draw()
    while product > threshold:
        count += 1
        product *= draw()
    return count


def generate_arrivals(cfg: ScenarioConfig, t: int, streams: TrafficStreams) -> tuple[int, ...]:
    """Per-node arrival counts for slot t, drawn in node-id order."""
    # a list first, as in twin.observe: the tuple is allocated at its final size
    return tuple([
        sample_poisson(streams.arrivals, arrival_rate(cfg, i, t, streams.bursts))
        for i in range(cfg.n_nodes)
    ])
