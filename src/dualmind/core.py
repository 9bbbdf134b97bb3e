"""Domain types and scenario configuration for the slotted-access scheduling testbed.

Everything downstream (traffic generation, the digital twin, the planners)
shares these types. Scenario configs are immutable once built; the four
builtin scenarios cover the benchmark matrix: default, bursty, deadline,
interference.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from enum import Enum
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

BUILTIN_SCENARIOS = ("default", "bursty", "deadline", "interference")

# Benchmark defaults shared by all builtin scenarios.
DEFAULT_N_NODES = 5
DEFAULT_MAX_SCHEDULED = 3
DEFAULT_BUFFER = 50
DEFAULT_STEPS = 200
DEFAULT_HORIZON = 3
LAMBDA_BASE_RANGE = (0.5, 1.0)

# Base-rate modulation: one sine period every 50 slots, swinging +/- 75%.
MODULATION_PERIOD = 50.0
MODULATION_DEPTH = 0.75

# The largest arrival rate a config may reach. The traffic sampler compares
# a product of uniforms with exp(-rate), which is a normal double only up to
# a rate of about 708 and underflows to 0.0 above about 745, where every
# draw would come out near 746 whatever the rate.
MAX_RATE = 700.0


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
    """Unordered interference pairs; two paired nodes may not transmit together.

    Each pair is stored as (min, max) whichever way round it was given, so
    symmetry is implicit. Pairs that are not a frozenset (from_pairs: any
    iterable) of two-int pairs raise InvalidConfig for conflict_graph.
    """

    pairs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        # from_pairs hands over a tuple: an unhashable pair must reach the check before a frozenset hashes it
        kind = tuple[_PAIR, ...] if isinstance(self.pairs, tuple) else _PAIRS
        normalised = []
        for i, j in _typed("conflict_graph", self.pairs, kind, from_file=False):
            normalised.append((i, j) if i < j else (j, i))
        object.__setattr__(self, "pairs", frozenset(normalised))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> ConflictGraph:
        return cls(tuple(pairs) if isinstance(pairs, Iterable) else pairs)

    def contains(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.pairs

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


_PAIRS = get_type_hints(ConflictGraph)["pairs"]
_PAIR = get_args(_PAIRS)[0]


def is_int(value) -> bool:
    """An int that is not a bool: a bool is an int to isinstance, but never a count or an id."""
    return isinstance(value, int) and not isinstance(value, bool)


_SCALARS = {bool: "a boolean", int: "an integer", float: "a number"}


def _typed(name: str, value, kind, from_file: bool):
    """value checked against kind, a ScenarioConfig annotation, and returned in its Python form.

    A tuple, frozenset or ConflictGraph (its pairs) is a JSON list in a file,
    built only once its items pass, and must already be one from Python.
    Raises InvalidConfig naming the field, or TypeError for an unknown kind.
    """
    if kind in _SCALARS:
        if kind is bool:
            accepted = isinstance(value, bool)
        else:  # a bool is never a number, and an int counts as a float
            accepted = is_int(value) or kind is float and isinstance(value, float)
        if not accepted:
            raise InvalidConfig(name, f"need {_SCALARS[kind]}, got {value!r}")
        try:
            return float(value) if kind is float else value
        except OverflowError:
            raise InvalidConfig(name, "integer too large for a float") from None
    if kind is ConflictGraph:  # a Python-built graph type-checked its pairs when it was built
        if not (from_file or isinstance(value, ConflictGraph)):
            raise InvalidConfig(name, f"need a ConflictGraph, got {value!r}")
        return ConflictGraph(_typed(name, value, _PAIRS, from_file)) if from_file else value
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType and args[1:] == (NoneType,):  # T | None
        return None if value is None else _typed(name, value, args[0], from_file)
    if origin in (tuple, frozenset):
        spelling = list if from_file else origin
        if not isinstance(value, spelling):
            # run_experiment caches each run's traffic under the config as a key
            hint = "" if from_file or isinstance(value, Hashable) else "must be hashable: "
            raise InvalidConfig(name, f"{hint}need a {spelling.__name__}, got {value!r}")
        # tuple[T, T] has its length; tuple[T, ...] and frozenset[T] take any
        kinds = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
        if len(kinds) != len(value):
            raise InvalidConfig(name, f"need {len(kinds)} items, got {value!r}")
        items = [_typed(name, item, item_kind, from_file) for item, item_kind in zip(value, kinds)]
        return origin(items) if from_file else value
    raise TypeError(f"{name}: no type rule for {kind!r}")


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


_KINDS = get_type_hints(ScenarioConfig)  # resolved once: validate_config runs on every config


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every config invariant and return the config unchanged.

    Each field first meets a scenario file's type rule, with a tuple, a
    frozenset or a ConflictGraph where a file has a list; then come the
    ranges. Raises InvalidConfig naming the offending field.
    """
    # before the range checks, which a float such as 2.5 or a bool would pass
    for name, kind in _KINDS.items():
        _typed(name, getattr(cfg, name), kind, from_file=False)
    if cfg.n_nodes < 1:
        raise InvalidConfig("n_nodes", "need at least one node")
    if cfg.max_scheduled < 1:
        raise InvalidConfig("max_scheduled", "need K >= 1")
    if cfg.max_scheduled > cfg.n_nodes:
        raise InvalidConfig("max_scheduled", "K>N")
    # the upper bound lets dualmind trace hold its queue-length matrix as 4-byte C ints (np.intc)
    if not 1 <= cfg.buffer < 2**31:
        raise InvalidConfig("buffer", "buffer must lie in [1, 2**31)")
    if cfg.steps < 1:
        raise InvalidConfig("steps", "need at least one slot")
    if cfg.horizon < 1:
        raise InvalidConfig("horizon", "horizon must be positive")
    if len(cfg.lambda_base) != cfg.n_nodes:
        raise InvalidConfig("lambda_base", "need one rate per node")
    if not all(0.0 < rate < math.inf for rate in cfg.lambda_base):
        raise InvalidConfig("lambda_base", "rates must be positive and finite")
    peak = 1.0 + MODULATION_DEPTH
    if max(cfg.lambda_base) * peak > MAX_RATE:
        raise InvalidConfig("lambda_base", f"a rate's modulated peak (x{peak:g}) must not exceed {MAX_RATE:g}")
    if len(cfg.deadlines) != cfg.n_nodes:
        raise InvalidConfig("deadlines", "need one entry per node")
    # the upper bound keeps the deadline baseline's float division by slack + 1 finite
    if any(d is not None and not 1 <= d < 2**63 for d in cfg.deadlines):
        raise InvalidConfig("deadlines", "finite deadlines must lie in [1, 2**63); null means none")
    for i, j in cfg.conflict_graph.pairs:
        if i == j:
            raise InvalidConfig("conflict_graph", "self pair")
        if not (0 <= i < cfg.n_nodes and 0 <= j < cfg.n_nodes):
            raise InvalidConfig("conflict_graph", f"node id out of range in pair ({i},{j})")
    if any(not 0 <= i < cfg.n_nodes for i in cfg.burst_nodes):
        raise InvalidConfig("burst_nodes", "node id out of range")
    if not 0.0 <= cfg.burst_probability <= 1.0:
        raise InvalidConfig("burst_probability", "must lie in [0,1]")
    lo, hi = cfg.burst_amplitude_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidConfig("burst_amplitude_range", "bounds must be finite")
    if lo < 0.0 or hi < lo:
        raise InvalidConfig("burst_amplitude_range", "need 0 <= low <= high")
    if cfg.burst_probability > 0.0 and any(cfg.lambda_base[i] * peak + hi > MAX_RATE for i in cfg.burst_nodes):
        raise InvalidConfig(
            "burst_amplitude_range", f"a burst node's peak rate plus high must not exceed {MAX_RATE:g}"
        )
    if not 0 <= cfg.base_seed < 2**64:
        raise InvalidConfig("base_seed", "must fit in 64 unsigned bits")
    return cfg


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


def _json_value(value):
    """A field value in its JSON form: tuples as lists, sets and conflict pairs sorted."""
    if isinstance(value, ConflictGraph):
        return [list(pair) for pair in value.sorted_pairs()]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready document mirroring the ScenarioConfig field names."""
    return {f.name: _json_value(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Parse and validate a scenario document produced by scenario_to_dict.

    The document must be a JSON object keyed by ScenarioConfig field names;
    fields without a default are required, and ScenarioConfig supplies the
    defaults of the others. Every value must already have its field's JSON
    type; none is coerced.
    """
    if not isinstance(doc, dict):
        raise InvalidConfig("scenario", f"need a JSON object, got {doc!r}")
    for key in doc:
        if key not in _KINDS:
            raise InvalidConfig(key, "unknown field")
    for f in dataclasses.fields(ScenarioConfig):
        if f.default is dataclasses.MISSING and f.name not in doc:
            raise InvalidConfig(f.name, "missing field")
    parsed = {key: _typed(key, value, _KINDS[key], from_file=True) for key, value in doc.items()}
    return validate_config(ScenarioConfig(**parsed))
