"""Shared test helpers."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from dualmind.core import BUILTIN_SCENARIOS, ConflictGraph, ScenarioConfig, builtin_scenario
from dualmind.traffic import TrafficStreams, generate_arrivals

# SHA-256 of the seed-42 CLI outputs; a change here is a change in results.
GOLDEN_SHA256 = json.loads((Path(__file__).parent / "golden" / "sha256.json").read_text())


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def builtin_entries(names=BUILTIN_SCENARIOS, **overrides):
    """(name, config) scenario entries for run_experiment: builtins with fields replaced."""
    return [(name, replace(builtin_scenario(name), **overrides)) for name in names]


def make_cfg(
    n_nodes=5,
    max_scheduled=3,
    buffer=50,
    steps=200,
    horizon=3,
    lam=1.0,
    lambda_base=None,
    deadlines=None,
    pairs=(),
    burst_nodes=(),
    burst_probability=0.05,
    burst_amplitude_range=(2.0, 5.0),
    fallback_conflict_aware=False,
    base_seed=42,
):
    """Hand-rolled config; deliberately not validated so edge cases can be exercised."""
    if lambda_base is None:
        lambda_base = (float(lam),) * n_nodes
    if deadlines is None:
        deadlines = (None,) * n_nodes
    return ScenarioConfig(
        n_nodes=n_nodes,
        max_scheduled=max_scheduled,
        buffer=buffer,
        steps=steps,
        horizon=horizon,
        lambda_base=tuple(lambda_base),
        deadlines=tuple(deadlines),
        conflict_graph=ConflictGraph.from_pairs(pairs),
        burst_nodes=frozenset(burst_nodes),
        burst_probability=burst_probability,
        burst_amplitude_range=tuple(burst_amplitude_range),
        fallback_conflict_aware=fallback_conflict_aware,
        base_seed=base_seed,
    )


def no_draw():
    """A draw callable for a stream that must stay untouched."""
    raise AssertionError("a draw was taken from a stream that should stay untouched")


def poisson_counts(draw, rate, count):
    """count Poisson draws at rate, taken by generate_arrivals from the arrival draw callable.

    The modulation factor is exactly 1 at slot 0, so each node of a
    count-node config whose every base rate is rate samples at rate, in
    node order, one after the other from draw.
    """
    cfg = make_cfg(n_nodes=count, lam=rate)
    return generate_arrivals(cfg, 0, TrafficStreams(arrivals=draw, bursts=no_draw))
