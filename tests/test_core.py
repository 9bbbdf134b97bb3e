"""Config types, validation, builtin scenarios, JSON round-trips."""

import json
import math
import random
from dataclasses import MISSING, fields, replace
from typing import Optional, get_type_hints

import pytest

from dualmind import core
from dualmind.core import (
    BUILTIN_SCENARIOS,
    ConflictGraph,
    MAX_RATE,
    InvalidConfig,
    ScenarioConfig,
    UnknownScenario,
    builtin_scenario,
    is_int,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)
from helpers import make_cfg


def test_benchmark_defaults_validate():
    cfg = builtin_scenario("default")
    assert (cfg.n_nodes, cfg.max_scheduled, cfg.buffer, cfg.steps, cfg.horizon) == (
        5, 3, 50, 200, 3,
    )
    assert validate_config(cfg) == cfg


def test_k_greater_than_n_rejected():
    with pytest.raises(InvalidConfig) as exc:
        validate_config(make_cfg(n_nodes=5, max_scheduled=6))
    assert exc.value.field == "max_scheduled"
    assert "K>N" in exc.value.reason


def test_self_conflict_pair_rejected():
    with pytest.raises(InvalidConfig) as exc:
        validate_config(make_cfg(pairs=[(4, 4)]))
    assert exc.value.field == "conflict_graph"
    assert "self pair" in exc.value.reason


def test_out_of_range_conflict_pair_rejected():
    with pytest.raises(InvalidConfig) as exc:
        validate_config(make_cfg(pairs=[(0, 7)]))
    assert exc.value.field == "conflict_graph"


@pytest.mark.parametrize(
    "field,value",
    [
        ("buffer", 0),
        ("steps", 0),
        ("horizon", 0),
        ("lambda_base", (0.5, 0.5)),
        ("lambda_base", (0.5, -1.0, 0.5, 0.5, 0.5)),
        ("deadlines", (None, 0, None, None, None)),
        ("burst_probability", 1.5),
        ("burst_amplitude_range", (5.0, 2.0)),
        ("base_seed", -1),
        ("lambda_base", (math.nan, 0.5, 0.5, 0.5, 0.5)),
        ("lambda_base", (0.5, 0.5, math.inf, 0.5, 0.5)),
        ("burst_amplitude_range", (math.nan, math.nan)),
        ("burst_amplitude_range", (2.0, math.nan)),
        ("burst_amplitude_range", (2.0, math.inf)),
        ("deadlines", (None, 2**63, None, None, None)),
        ("lambda_base", (0.5, 0.5, 2000.0, 0.5, 0.5)),
        ("lambda_base", (1e6,) * 5),
        ("buffer", 2**31),  # the twin stores queue lengths, at most buffer, as 4-byte C ints
    ],
)
def test_invalid_fields_rejected(field, value):
    with pytest.raises(InvalidConfig) as exc:
        validate_config(replace(make_cfg(), **{field: value}))
    assert exc.value.field == field


def test_peak_rate_capped():
    # the sampler compares against exp(-rate), a normal double only up to a
    # rate of about 708: a rate's modulated peak lambda * 1.75, plus high on a
    # burst node whose gate can fire, may not exceed MAX_RATE
    assert MAX_RATE == 700.0
    validate_config(make_cfg(lambda_base=(0.5, 0.5, 400.0, 0.5, 0.5)))  # peak exactly 700
    with pytest.raises(InvalidConfig) as exc:
        validate_config(make_cfg(lambda_base=(0.5, 0.5, 400.5, 0.5, 0.5)))
    assert exc.value.field == "lambda_base"
    burst = dict(lambda_base=(0.5, 4.0, 0.5, 0.5, 0.5), burst_nodes=(1,), burst_probability=0.3)
    validate_config(make_cfg(burst_amplitude_range=(0.0, 693.0), **burst))  # 4 * 1.75 + 693 = 700
    with pytest.raises(InvalidConfig) as exc:
        validate_config(make_cfg(burst_amplitude_range=(0.0, 694.0), **burst))
    assert exc.value.field == "burst_amplitude_range"
    # a gate that never fires adds nothing, and only burst nodes add high
    validate_config(make_cfg(burst_amplitude_range=(0.0, 694.0), **{**burst, "burst_probability": 0.0}))
    validate_config(make_cfg(burst_amplitude_range=(0.0, 694.0), **{**burst, "burst_nodes": (0,)}))


def test_builtin_default_structure():
    cfg = builtin_scenario("default")
    assert cfg.deadlines == (10, None, 10, None, 10)
    assert cfg.conflict_graph.sorted_pairs() == [(0, 1), (2, 3)]
    assert not cfg.burst_nodes


def test_builtin_deadline_alternation():
    cfg = builtin_scenario("deadline")
    assert cfg.deadlines == (5, 15, 5, 15, 5)
    assert cfg.conflict_graph.sorted_pairs() == [(0, 1), (2, 3)]


def test_builtin_interference_ring():
    cfg = builtin_scenario("interference")
    assert set(cfg.conflict_graph.sorted_pairs()) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    assert cfg.deadlines == (None,) * 5


def test_builtin_bursty_unconstrained():
    cfg = builtin_scenario("bursty")
    assert len(cfg.conflict_graph.pairs) == 0
    assert cfg.deadlines == (None,) * 5
    assert cfg.burst_nodes == frozenset({1, 3})
    assert cfg.burst_probability == pytest.approx(0.15)
    assert cfg.burst_amplitude_range == (3.0, 6.0)


def test_all_builtins_validate_and_rates_in_range():
    for name in BUILTIN_SCENARIOS:
        cfg = builtin_scenario(name)
        assert validate_config(cfg) == cfg
        assert all(0.5 <= rate <= 1.0 for rate in cfg.lambda_base)


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        builtin_scenario("rush_hour")


def test_conflict_graph_symmetry_exhaustive():
    graph = ConflictGraph.from_pairs([(3, 1), (0, 4), (2, 0)])
    n = 5
    for i in range(n):
        assert not graph.contains(i, i)
        for j in range(n):
            assert graph.contains(i, j) == graph.contains(j, i)
    assert graph.contains(1, 3) and graph.contains(4, 0) and graph.contains(0, 2)


def test_conflict_graph_normalises_pairs_on_construction():
    # built directly, not through from_pairs: (3, 1) must still block 1 with 3
    graph = ConflictGraph(frozenset({(3, 1)}))
    assert graph.pairs == frozenset({(1, 3)})
    assert graph.contains(1, 3) and graph.contains(3, 1)
    assert graph == ConflictGraph.from_pairs([(1, 3)])


@pytest.mark.parametrize(
    "pairs,reason",
    [
        ([(0, 1, 2)], "need 2 items, got (0, 1, 2)"),
        ([(0,)], "need 2 items, got (0,)"),
        ([5], "need a tuple, got 5"),  # an int is hashable: no hint
        ([[0, 1]], "must be hashable: need a tuple, got [0, 1]"),
        ([(0, [1])], "need an integer, got [1]"),
        ([(0, "1")], "need an integer, got '1'"),
        ([(True, 2)], "need an integer, got True"),
        ([(0, 1.5)], "need an integer, got 1.5"),
    ],
    ids=["three", "one", "int", "list", "nested_list", "str", "pair-bool", "pair-float"],
)
def test_conflict_graph_rejects_a_malformed_pair(pairs, reason):
    # checked before frozenset, min or max touches the pair, built either way
    with pytest.raises(InvalidConfig) as exc:
        ConflictGraph.from_pairs([(2, 3), *pairs])
    assert (exc.value.field, exc.value.reason) == ("conflict_graph", reason)
    if pairs not in ([(0, [1])], [[0, 1]]):  # the unhashable pairs
        with pytest.raises(InvalidConfig) as exc:
            ConflictGraph(frozenset(pairs))
        assert (exc.value.field, exc.value.reason) == ("conflict_graph", reason)


@pytest.mark.parametrize("pairs", [5, None])
def test_conflict_graph_rejects_pairs_that_are_not_a_collection(pairs):
    for build in (ConflictGraph, ConflictGraph.from_pairs):
        with pytest.raises(InvalidConfig) as exc:
            build(pairs)
        assert (exc.value.field, exc.value.reason) == ("conflict_graph", f"need a frozenset, got {pairs}")


def test_validate_symmetrizes_pair_order():
    cfg = validate_config(make_cfg(pairs=[(3, 1)]))
    assert cfg.conflict_graph.contains(1, 3)
    assert cfg.conflict_graph.sorted_pairs() == [(1, 3)]


# a bool, a str, a list, None and an int too large for a float: wrong for most fields and items
_ODD = (True, False, "1", [1], None, 10**400)


def _odd_value(rng: random.Random, value, hashable: bool = False):
    """A draw for a field's value, or for one of its items: the value itself, another type, or borderline."""
    if isinstance(value, ConflictGraph) and value.pairs and rng.random() < 0.5:
        pairs = value.sorted_pairs()
        i = rng.randrange(len(pairs))
        pairs[i] = (pairs[i][0], rng.choice([True, float(pairs[i][1]), 10**400]))
        return ConflictGraph.from_pairs(pairs)
    if isinstance(value, (tuple, frozenset)) and value and rng.random() < 0.5:
        items = list(value)
        i = rng.randrange(len(items))
        items[i] = _odd_value(rng, items[i], hashable=isinstance(value, frozenset))
        return type(value)(items)
    pool = [value] + [odd for odd in _ODD if not (hashable and isinstance(odd, list))]
    if isinstance(value, bool):
        pool.append(int(value))
    elif is_int(value):
        pool.append(float(value))  # a float where an int belongs
    elif isinstance(value, float):
        pool.append(int(value))  # an int where a float belongs: accepted
    elif isinstance(value, (tuple, frozenset)):
        pool.append(rng.choice([list, tuple, frozenset])(value))  # maybe the wrong container
    elif isinstance(value, ConflictGraph):
        pool.append(value.pairs)
    return rng.choice(pool)


def _random_config(rng: random.Random, odd: int = 0) -> ScenarioConfig:
    """A valid config with odd of its fields, drawn at random, given an odd value; not validated."""
    n = rng.randint(1, 8)
    lo = rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])
    pairs = [(i, j) if rng.random() < 0.5 else (j, i) for i in range(n) for j in range(i + 1, n)]
    values = dict(
        n_nodes=n,
        max_scheduled=rng.randint(1, n),
        buffer=rng.randint(1, 100),
        steps=rng.randint(1, 300),
        horizon=rng.randint(1, 5),
        lambda_base=tuple(rng.choice([1.0, 2.0, rng.uniform(0.1, 3.0)]) for _ in range(n)),
        deadlines=tuple(rng.choice([None, rng.randint(1, 20)]) for _ in range(n)),
        conflict_graph=ConflictGraph.from_pairs(rng.sample(pairs, rng.randint(0, len(pairs)))),
        burst_nodes=frozenset(rng.sample(range(n), rng.randint(0, n))),
        burst_probability=rng.choice([0.0, 1.0, rng.random()]),
        burst_amplitude_range=(lo, lo + rng.choice([0.0, 2.0, rng.uniform(0.0, 5.0)])),
        fallback_conflict_aware=rng.random() < 0.5,
        base_seed=rng.randrange(2**64),
    )
    for name in rng.sample(list(values), odd):
        values[name] = _odd_value(rng, values[name])
    return ScenarioConfig(**values)


def test_json_round_trip_all_builtins():
    configs = [builtin_scenario(name) for name in BUILTIN_SCENARIOS]
    configs.append(replace(configs[0], fallback_conflict_aware=True))
    rng = random.Random(2026)
    configs += [validate_config(_random_config(rng)) for _ in range(50)]
    for cfg in configs:
        doc = scenario_to_dict(cfg)
        assert scenario_from_dict(doc) == cfg
        assert scenario_from_dict(json.loads(json.dumps(doc))) == cfg
    # a config built in Python meets the type rule a file meets: with odd values drawn in,
    # validate_config either rejects it, naming a field, or its JSON form reads back as it
    accepted = rejected = 0
    for _ in range(1000):
        try:  # a malformed conflict pair is rejected already when its graph is built
            cfg = validate_config(_random_config(rng, odd=rng.choice([1, 1, 2])))
        except InvalidConfig as exc:
            assert exc.field in {f.name for f in fields(ScenarioConfig)}
            rejected += 1
            continue
        assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(cfg)))) == cfg
        accepted += 1
    assert accepted >= 100 and rejected >= 500


def test_json_form_of_each_field():
    cfg = replace(
        builtin_scenario("default"),
        conflict_graph=ConflictGraph.from_pairs([(3, 2), (1, 0)]),
        burst_nodes=frozenset({3, 1}),
    )
    assert scenario_to_dict(cfg) == {
        "n_nodes": 5,
        "max_scheduled": 3,
        "buffer": 50,
        "steps": 200,
        "horizon": 3,
        "lambda_base": [0.5, 0.625, 0.75, 0.875, 1.0],
        "deadlines": [10, None, 10, None, 10],
        "conflict_graph": [[0, 1], [2, 3]],
        "burst_nodes": [1, 3],
        "burst_probability": 0.05,
        "burst_amplitude_range": [2.0, 5.0],
        "fallback_conflict_aware": False,
        "base_seed": 42,
    }


def test_json_removed_rollout_reward_mode_rejected():
    doc = scenario_to_dict(builtin_scenario("default"))
    doc["rollout_reward_mode"] = "served"
    with pytest.raises(InvalidConfig) as exc:
        scenario_from_dict(doc)
    assert exc.value.field == "rollout_reward_mode"
    assert exc.value.reason == "unknown field"


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_json_fallback_conflict_aware_needs_a_boolean(value):
    doc = scenario_to_dict(builtin_scenario("default"))
    doc["fallback_conflict_aware"] = value
    with pytest.raises(InvalidConfig) as exc:
        scenario_from_dict(doc)
    assert exc.value.field == "fallback_conflict_aware"


@pytest.mark.parametrize(
    "key,value",
    [
        ("n_nodes", 5.5),
        ("n_nodes", 5.0),
        ("max_scheduled", True),
        ("buffer", "50"),
        ("steps", "200"),
        ("horizon", None),
        ("base_seed", 42.0),
        ("deadlines", [10.7, None, 10, None, 10]),
        ("deadlines", [10, None, True, None, 10]),
        ("conflict_graph", [[0.9, 1], [2, 3]]),
        ("conflict_graph", [[0, 1, 2]]),
        ("conflict_graph", [[0, 1], "23"]),
        ("burst_nodes", [1.0]),
        ("burst_nodes", "13"),
        ("lambda_base", [0.5, "0.6", 0.7, 0.8, 0.9]),
        ("lambda_base", [0.5, False, 0.7, 0.8, 0.9]),
        ("lambda_base", 0.5),
        ("burst_probability", "0.1"),
        ("burst_amplitude_range", [2, None]),
        pytest.param("burst_probability", 10**400, id="burst_probability-huge_int"),
        pytest.param("lambda_base", [0.5, 10**400, 0.7, 0.8, 0.9], id="lambda_base-huge_int"),
        # nested items are checked before any tuple, frozenset or ConflictGraph is built from them
        pytest.param("conflict_graph", [[0, [1]]], id="conflict_graph-nested_list"),
        pytest.param("conflict_graph", [{}], id="conflict_graph-object"),
        pytest.param("burst_nodes", [[0, [1]]], id="burst_nodes-nested_list"),
        pytest.param("burst_nodes", [{}], id="burst_nodes-object"),
        pytest.param("burst_nodes", [[0, 1], [0, 1, 2]], id="burst_nodes-lists"),
    ],
)
def test_json_fields_need_their_json_types(key, value):
    doc = scenario_to_dict(builtin_scenario("default"))
    doc[key] = value
    with pytest.raises(InvalidConfig) as exc:
        scenario_from_dict(doc)
    assert exc.value.field == key


def test_json_integers_accepted_in_float_fields():
    doc = scenario_to_dict(builtin_scenario("bursty"))
    doc["lambda_base"] = [1, 1, 1, 1, 1]
    doc["burst_probability"] = 0
    doc["burst_amplitude_range"] = [3, 6]
    cfg = scenario_from_dict(doc)
    assert cfg.lambda_base == (1.0,) * 5
    assert cfg.burst_probability == 0.0
    assert cfg.burst_amplitude_range == (3.0, 6.0)


def test_json_unknown_field_rejected():
    doc = scenario_to_dict(builtin_scenario("default"))
    doc["jitter"] = 1
    with pytest.raises(InvalidConfig) as exc:
        scenario_from_dict(doc)
    assert exc.value.field == "jitter"


def test_json_missing_field_rejected():
    doc = scenario_to_dict(builtin_scenario("default"))
    del doc["steps"]
    with pytest.raises(InvalidConfig) as exc:
        scenario_from_dict(doc)
    assert exc.value.field == "steps"


@pytest.mark.parametrize("doc", [5, None, [1, 2], "abc"])
def test_json_document_must_be_an_object(doc):
    with pytest.raises(InvalidConfig, match="need a JSON object") as exc:
        scenario_from_dict(doc)
    assert exc.value.field == "scenario"


@pytest.mark.parametrize("field", [f.name for f in fields(ScenarioConfig)])
def test_json_field_required_unless_it_has_a_default(field):
    doc = scenario_to_dict(builtin_scenario("default"))
    del doc[field]
    if getattr(ScenarioConfig, field, MISSING) is MISSING:
        with pytest.raises(InvalidConfig, match="missing field"):
            scenario_from_dict(doc)
    else:
        assert getattr(scenario_from_dict(doc), field) == getattr(ScenarioConfig, field)


def test_type_walk_knows_every_annotation():
    # every ScenarioConfig annotation has a rule, and each builtin's value, or its JSON form, meets it
    kinds = get_type_hints(ScenarioConfig)
    assert set(kinds) == {f.name for f in fields(ScenarioConfig)}
    for name in BUILTIN_SCENARIOS:
        cfg = builtin_scenario(name)
        doc = scenario_to_dict(cfg)
        for field, kind in kinds.items():
            assert core._typed(field, getattr(cfg, field), kind, from_file=False) == getattr(cfg, field)
            assert core._typed(field, doc[field], kind, from_file=True) == getattr(cfg, field)


@pytest.mark.parametrize(
    "kind",
    [str, complex, list[int], dict[str, int], int | str, Optional[int], set[int]],
    ids=["str", "complex", "list", "dict", "int_or_str", "Optional", "set"],
)
def test_type_walk_raises_for_an_unknown_annotation(kind):
    for from_file in (False, True):
        with pytest.raises(TypeError, match="no type rule"):
            core._typed("field", 1, kind, from_file)
