"""Domain types and scenario configuration for the slotted-access scheduling testbed.

Everything downstream (traffic generation, the digital twin, the planners)
shares these types. Scenario configs are immutable once built; the four
builtin scenarios cover the benchmark matrix: default, bursty, deadline,
interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

BUILTIN_SCENARIOS = ("default", "bursty", "deadline", "interference")

# Benchmark defaults shared by all builtin scenarios.
DEFAULT_N_NODES = 5
DEFAULT_MAX_SCHEDULED = 3
DEFAULT_BUFFER = 50
DEFAULT_STEPS = 200
DEFAULT_HORIZON = 3
LAMBDA_BASE_RANGE = (0.5, 1.0)


class InvalidConfig(ValueError):
    """A scenario config violates one of its invariants."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name}: {reason}")
        self.field = field_name
        self.reason = reason


class UnknownScenario(ValueError):
    """Requested scenario is not a builtin name."""


class Provenance(Enum):
    """Which mind produced a schedule: deliberate rollout or a reactive rule."""

    SLOW_MIND = "slow_mind"
    FAST_MIND = "fast_mind"


@dataclass(frozen=True)
class ConflictGraph:
    """Unordered interference pairs; two paired nodes may not transmit together."""

    pairs: frozenset[tuple[int, int]] = frozenset()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> ConflictGraph:
        """Build a graph with each pair stored as (min, max); symmetry is implicit."""
        return cls(frozenset((min(i, j), max(i, j)) for i, j in pairs))

    def contains(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.pairs

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable description of one benchmark scenario.

    lambda_base and deadlines are indexed by node id; deadlines use None
    for unbounded. burst_* fields only affect nodes listed in burst_nodes.
    """

    n_nodes: int
    max_scheduled: int
    buffer: int
    steps: int
    horizon: int
    lambda_base: tuple[float, ...]
    deadlines: tuple[int | None, ...]
    conflict_graph: ConflictGraph = ConflictGraph()
    burst_nodes: frozenset[int] = frozenset()
    burst_probability: float = 0.05
    burst_amplitude_range: tuple[float, float] = (2.0, 5.0)
    fallback_conflict_aware: bool = False
    base_seed: int = 42


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every config invariant and return the config with a normalised conflict graph.

    Raises InvalidConfig naming the offending field.
    """
    if cfg.n_nodes < 1:
        raise InvalidConfig("N", "need at least one node")
    if cfg.max_scheduled < 1:
        raise InvalidConfig("K", "need K >= 1")
    if cfg.max_scheduled > cfg.n_nodes:
        raise InvalidConfig("K", "K>N")
    if cfg.buffer < 1:
        raise InvalidConfig("B", "buffer must be positive")
    if cfg.steps < 1:
        raise InvalidConfig("T", "need at least one slot")
    if cfg.horizon < 1:
        raise InvalidConfig("H", "horizon must be positive")
    if len(cfg.lambda_base) != cfg.n_nodes:
        raise InvalidConfig("lambda_base", "need one rate per node")
    if not all(0.0 < rate < math.inf for rate in cfg.lambda_base):
        raise InvalidConfig("lambda_base", "rates must be positive and finite")
    if len(cfg.deadlines) != cfg.n_nodes:
        raise InvalidConfig("deadlines", "need one entry per node")
    if any(d is not None and d < 1 for d in cfg.deadlines):
        raise InvalidConfig("deadlines", "finite deadlines must be positive")
    for i, j in cfg.conflict_graph.pairs:
        if i == j:
            raise InvalidConfig("conflict_graph", "self pair")
        if not (0 <= i < cfg.n_nodes and 0 <= j < cfg.n_nodes):
            raise InvalidConfig("conflict_graph", f"node id out of range in pair ({i},{j})")
    if any(not 0 <= i < cfg.n_nodes for i in cfg.burst_nodes):
        raise InvalidConfig("burst_nodes", "node id out of range")
    if not 0.0 <= cfg.burst_probability <= 1.0:
        raise InvalidConfig("burst_probability", "must lie in [0,1]")
    if len(cfg.burst_amplitude_range) != 2:
        raise InvalidConfig("burst_amplitude_range", "need exactly [low, high]")
    lo, hi = cfg.burst_amplitude_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidConfig("burst_amplitude_range", "bounds must be finite")
    if lo < 0.0 or hi < lo:
        raise InvalidConfig("burst_amplitude_range", "need 0 <= low <= high")
    if not 0 <= cfg.base_seed < 2**64:
        raise InvalidConfig("base_seed", "must fit in 64 unsigned bits")
    return replace(cfg, conflict_graph=ConflictGraph.from_pairs(cfg.conflict_graph.pairs))


def default_lambda(n_nodes: int) -> tuple[float, ...]:
    """Per-node base rates spread evenly across the benchmark range [0.5, 1.0]."""
    lo, hi = LAMBDA_BASE_RANGE
    if n_nodes == 1:
        return ((lo + hi) / 2.0,)
    return tuple(lo + (hi - lo) * i / (n_nodes - 1) for i in range(n_nodes))


def builtin_scenario(name: str) -> ScenarioConfig:
    """Instantiate one of the four benchmark scenarios over the standard defaults.

    The default scenario's structure lives only here so it stays trivial to
    change: conflict pairs (0,1) and (2,3), a 10-slot deadline on
    even-indexed nodes.
    """
    if name not in BUILTIN_SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; valid names: {', '.join(BUILTIN_SCENARIOS)}"
        )
    n = DEFAULT_N_NODES
    base = dict(
        n_nodes=n,
        max_scheduled=DEFAULT_MAX_SCHEDULED,
        buffer=DEFAULT_BUFFER,
        steps=DEFAULT_STEPS,
        horizon=DEFAULT_HORIZON,
        lambda_base=default_lambda(n),
    )
    if name == "default":
        cfg = ScenarioConfig(
            deadlines=tuple(10 if i % 2 == 0 else None for i in range(n)),
            conflict_graph=ConflictGraph.from_pairs([(0, 1), (2, 3)]),
            **base,
        )
    elif name == "bursty":
        # no conflicts or deadlines; variance comes from strong spikes on two nodes
        cfg = ScenarioConfig(
            deadlines=(None,) * n,
            burst_nodes=frozenset({1, 3}),
            burst_probability=0.15,
            burst_amplitude_range=(3.0, 6.0),
            **base,
        )
    elif name == "deadline":
        cfg = ScenarioConfig(
            deadlines=tuple(5 if i % 2 == 0 else 15 for i in range(n)),
            conflict_graph=ConflictGraph.from_pairs([(0, 1), (2, 3)]),
            **base,
        )
    else:  # interference: a ring of conflicts, no deadlines
        cfg = ScenarioConfig(
            deadlines=(None,) * n,
            conflict_graph=ConflictGraph.from_pairs([(i, (i + 1) % n) for i in range(n)]),
            **base,
        )
    return validate_config(cfg)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready document mirroring the ScenarioConfig field names."""
    return {
        "n_nodes": cfg.n_nodes,
        "max_scheduled": cfg.max_scheduled,
        "buffer": cfg.buffer,
        "steps": cfg.steps,
        "horizon": cfg.horizon,
        "lambda_base": list(cfg.lambda_base),
        "deadlines": list(cfg.deadlines),
        "conflict_graph": [list(pair) for pair in cfg.conflict_graph.sorted_pairs()],
        "burst_nodes": sorted(cfg.burst_nodes),
        "burst_probability": cfg.burst_probability,
        "burst_amplitude_range": list(cfg.burst_amplitude_range),
        "fallback_conflict_aware": cfg.fallback_conflict_aware,
        "base_seed": cfg.base_seed,
    }


_REQUIRED_FIELDS = ("n_nodes", "max_scheduled", "buffer", "steps", "horizon", "lambda_base", "deadlines")
_OPTIONAL_FIELDS = (
    "conflict_graph",
    "burst_nodes",
    "burst_probability",
    "burst_amplitude_range",
    "fallback_conflict_aware",
    "base_seed",
)


def _json_number(field_name: str, value, kind: type):
    """value as kind (int or float); JSON booleans and strings are refused, and
    so are non-integers in int fields."""
    accepted = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, accepted):
        need = "an integer" if kind is int else "a number"
        raise InvalidConfig(field_name, f"need {need}, got {value!r}")
    return kind(value)


def _json_list(field_name: str, value) -> list:
    if not isinstance(value, list):
        raise InvalidConfig(field_name, f"need a list, got {value!r}")
    return value


def _json_numbers(field_name: str, value, kind: type) -> tuple:
    return tuple(_json_number(field_name, v, kind) for v in _json_list(field_name, value))


def _json_pair(value) -> tuple:
    pair = _json_numbers("conflict_graph", value, int)
    if len(pair) != 2:
        raise InvalidConfig("conflict_graph", f"need [i, j] pairs, got {value!r}")
    return pair


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Parse and validate a scenario document produced by scenario_to_dict.

    Every value must already have its field's JSON type; none is coerced.
    """
    known = set(_REQUIRED_FIELDS) | set(_OPTIONAL_FIELDS)
    for key in doc:
        if key not in known:
            raise InvalidConfig(key, "unknown field")
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise InvalidConfig(key, "missing field")
    defaults = ScenarioConfig(
        n_nodes=1, max_scheduled=1, buffer=1, steps=1, horizon=1,
        lambda_base=(1.0,), deadlines=(None,),
    )
    fields = {**scenario_to_dict(defaults), **doc}
    if not isinstance(fields["fallback_conflict_aware"], bool):
        raise InvalidConfig("fallback_conflict_aware", "must be true or false")
    cfg = ScenarioConfig(
        n_nodes=_json_number("n_nodes", fields["n_nodes"], int),
        max_scheduled=_json_number("max_scheduled", fields["max_scheduled"], int),
        buffer=_json_number("buffer", fields["buffer"], int),
        steps=_json_number("steps", fields["steps"], int),
        horizon=_json_number("horizon", fields["horizon"], int),
        lambda_base=_json_numbers("lambda_base", fields["lambda_base"], float),
        deadlines=tuple(
            None if d is None else _json_number("deadlines", d, int)
            for d in _json_list("deadlines", fields["deadlines"])
        ),
        conflict_graph=ConflictGraph.from_pairs(
            _json_pair(pair) for pair in _json_list("conflict_graph", fields["conflict_graph"])
        ),
        burst_nodes=frozenset(_json_numbers("burst_nodes", fields["burst_nodes"], int)),
        burst_probability=_json_number("burst_probability", fields["burst_probability"], float),
        burst_amplitude_range=_json_numbers(
            "burst_amplitude_range", fields["burst_amplitude_range"], float
        ),
        fallback_conflict_aware=fields["fallback_conflict_aware"],
        base_seed=_json_number("base_seed", fields["base_seed"], int),
    )
    return validate_config(cfg)
