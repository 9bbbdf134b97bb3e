"""Shared test helpers."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from dualmind.core import BUILTIN_SCENARIOS, ConflictGraph, Provenance, ScenarioConfig, builtin_scenario
from dualmind.dmwm import DmwmScheduler
from dualmind.traffic import TrafficStreams, generate_arrivals
from dualmind.twin import Observation

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


def random_state(rng, n, zero_share, density):
    """A random planner input (q, oldest_age, deadlines, pairs) on n nodes.

    A node is idle with probability zero_share, else holds 1-6 packets with
    a head aged 0-11 slots; each node carries a deadline of 1-9 slots with
    probability 1/2; each pair of nodes conflicts with probability density
    and is given either way round.
    """
    q = tuple(0 if rng.random() < zero_share else int(rng.integers(1, 7)) for _ in range(n))
    ages = tuple(int(rng.integers(0, 12)) if v > 0 else None for v in q)
    deadlines = tuple(int(rng.integers(1, 10)) if rng.random() < 0.5 else None for _ in range(n))
    pairs = frozenset(
        (i, j) if rng.random() < 0.5 else (j, i)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    )
    return q, ages, deadlines, pairs


def search(k, q, oldest_age, deadlines, pairs, horizon):
    """The slow mind's (feasible_count, schedule, score) on a hand-made state.

    It asks DmwmScheduler.decide, so the planner's own weights feed
    icn.best_feasible; a fast-mind decision reads as (0, None, None), as
    best_feasible has it.
    """
    cfg = make_cfg(n_nodes=len(q), max_scheduled=k, horizon=horizon, deadlines=deadlines, pairs=pairs)
    scheduler = DmwmScheduler(cfg)
    scheduler.decide(Observation(tuple(q), tuple(oldest_age), 0), None)
    record = scheduler.trace[-1]
    if record.provenance is Provenance.FAST_MIND:
        return 0, None, None
    return record.feasible_count, record.nodes, record.best_reward
