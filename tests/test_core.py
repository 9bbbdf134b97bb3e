"""Config types, validation, builtin scenarios, JSON round-trips."""

import math
from dataclasses import replace

import pytest

from dualmind.core import (
    BUILTIN_SCENARIOS,
    ConflictGraph,
    InvalidConfig,
    UnknownScenario,
    builtin_scenario,
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
    assert exc.value.field == "K"
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
    ],
)
def test_invalid_fields_rejected(field, value):
    with pytest.raises(InvalidConfig):
        validate_config(replace(make_cfg(), **{field: value}))


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
    assert len(cfg.conflict_graph) == 0
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


def test_validate_symmetrizes_pair_order():
    cfg = validate_config(make_cfg(pairs=[(3, 1)]))
    assert cfg.conflict_graph.contains(1, 3)
    assert cfg.conflict_graph.sorted_pairs() == [(1, 3)]


def test_json_round_trip_all_builtins():
    configs = [builtin_scenario(name) for name in BUILTIN_SCENARIOS]
    configs.append(replace(configs[0], fallback_conflict_aware=True))
    for cfg in configs:
        doc = scenario_to_dict(cfg)
        assert scenario_from_dict(doc) == cfg


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
