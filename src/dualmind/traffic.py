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

generate_arrivals draws a whole slot in one function: the modulation is
computed once per slot, and each node's burst gate, amplitude and Poisson
loop run inline, without a call per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .core import MODULATION_DEPTH, MODULATION_PERIOD, ScenarioConfig

ARRIVAL_STREAM = 0
BURST_STREAM = 1
POLICY_STREAM = 2

# Uniforms drawn per numpy call on a traffic stream.
UNIFORM_BLOCK = 4096

Draw = Callable[[], float]


def make_rng(*key: int) -> np.random.Generator:
    """A PCG64 generator for an integer key tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _block_uniforms(rng: np.random.Generator) -> Draw:
    """A draw callable returning rng's uniforms in order, UNIFORM_BLOCK per numpy call.

    The callable is the __next__ of a chain over an endless series of blocks
    (the block function never returns the None sentinel), so a draw steps
    the chain in C, without resuming a generator frame.
    """
    blocks = iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


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


def generate_arrivals(cfg: ScenarioConfig, t: int, streams: TrafficStreams) -> tuple[int, ...]:
    """Per-node arrival counts for slot t, drawn in node-id order.

    Node i's rate is cfg.lambda_base[i] under a sinusoidal modulation,
    1 + MODULATION_DEPTH * sin(2 pi t / MODULATION_PERIOD), the same for
    every node of the slot. A node in cfg.burst_nodes draws one gate uniform
    from the burst stream and, when the gate fires (probability
    cfg.burst_probability), an amplitude uniform that adds
    lo + (hi - lo) * u from cfg.burst_amplitude_range to its rate; other
    nodes take no burst draws. The count is Poisson by the multiplicative
    method (Knuth, TAOCP Vol. 2, 3.4.1): arrival uniforms are multiplied
    until the product falls to exp(-rate) or below, so a count of c takes c + 1
    draws and a rate of 0 takes none. It is exact while exp(-rate) is a
    normal double, which validate_config's cap of core.MAX_RATE ensures.
    """
    modulation = 1.0 + MODULATION_DEPTH * math.sin(2.0 * math.pi * t / MODULATION_PERIOD)
    arrival, burst = streams.arrivals, streams.bursts
    probability = cfg.burst_probability
    bursty = cfg.burst_nodes if probability > 0.0 else ()
    lo, hi = cfg.burst_amplitude_range
    span = hi - lo
    exp = math.exp
    # a list first, as in twin.observe: the tuple is allocated at its final size
    counts = []
    append = counts.append
    for i, base in enumerate(cfg.lambda_base):
        rate = base * modulation
        if i in bursty and burst() < probability:
            rate += lo + span * burst()
        count = 0
        if rate > 0.0:
            threshold = exp(-rate)
            product = arrival()
            while product > threshold:
                count += 1
                product *= arrival()
        append(count)
    return tuple(counts)
