"""Campaign mechanics: determinism, traffic pairing, aggregation, parallel equality."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dualmind import harness, twin
from dualmind.core import builtin_scenario
from dualmind.harness import (
    POLICY_NAMES,
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    _policy_salt,
    aggregate,
    make_policy,
    run_episode,
    run_experiment,
)
from dualmind.twin import RunMetrics
from helpers import builtin_entries, make_cfg


def _records_equal(a, b):
    return (
        (a.scenario, a.policy, a.run_index) == (b.scenario, b.policy, b.run_index)
        and a.metrics == b.metrics
        and (a.arrivals, a.delivered, a.final_backlog) == (b.arrivals, b.delivered, b.final_backlog)
        and np.array_equal(a.arrivals_by_node, b.arrivals_by_node)
        and np.array_equal(a.drops_by_node, b.drops_by_node)
        and np.array_equal(a.queue_lengths, b.queue_lengths)
        and np.array_equal(a.schedule_matrix, b.schedule_matrix)
        and np.array_equal(a.model_error_matrix, b.model_error_matrix)
        and a.decision_trace == b.decision_trace
    )


@pytest.mark.parametrize("policy_name", ["dmwm", "qlearn", "rr"])
def test_run_episode_repeatable(policy_name):
    cfg = builtin_scenario("default")
    first = run_episode(cfg, make_policy(policy_name, cfg), 4, scenario="default")
    second = run_episode(cfg, make_policy(policy_name, cfg), 4, scenario="default")
    assert _records_equal(first, second)


def test_zero_traffic_zero_metrics():
    cfg = make_cfg(lam=0.0, steps=40)
    record = run_episode(cfg, make_policy("lqf", cfg), 0, scenario="quiet")
    m = record.metrics
    assert (m.throughput, m.avg_queue, m.avg_delay, m.violations, m.drops) == (0, 0, 0, 0, 0)
    assert record.arrivals == 0


def test_conservation_identity_mini_grid():
    records = run_experiment(scenarios=builtin_entries(steps=50, base_seed=11), runs=2)
    assert len(records) == 4 * 6 * 2
    for rec in records:
        m = rec.metrics
        assert rec.arrivals == rec.delivered + m.drops + m.violations + rec.final_backlog


def test_record_ordering():
    # unequal grid sides, so a scenario, policy or run index read from the
    # wrong position shows up as a wrong key
    policies = ("lqf", "random", "dmwm")
    expected = [(s, p, r) for s in ("bursty", "default") for p in policies for r in range(3)]
    for workers in (1, 2):
        records = run_experiment(
            scenarios=builtin_entries(("bursty", "default"), steps=30),
            policies=policies,
            runs=3,
            workers=workers,
        )
        assert [(r.scenario, r.policy, r.run_index) for r in records] == expected, workers


def test_paired_traffic_identical_across_policies():
    records = run_experiment(
        scenarios=builtin_entries(("bursty",), steps=80), policies=("random", "lqf"), runs=3
    )
    by = {(r.policy, r.run_index): r for r in records}
    for run_index in range(3):
        a = by[("random", run_index)]
        b = by[("lqf", run_index)]
        assert a.arrivals == b.arrivals
        assert np.array_equal(a.arrivals_by_node, b.arrivals_by_node)


@pytest.mark.parametrize("paired", [True, False])
def test_experiment_records_equal_single_episodes(paired):
    # run_experiment shares a run's arrivals across policies when paired; each
    # record must still be the episode run_episode plays on its own
    cfg = replace(builtin_scenario("bursty"), steps=60)
    records = run_experiment(scenarios=[("bursty", cfg)], runs=2, paired=paired)
    assert len(records) == len(POLICY_NAMES) * 2
    for rec in records:
        salt = 0 if paired else _policy_salt(rec.policy)
        policy = make_policy(rec.policy, cfg)
        alone = run_episode(cfg, policy, rec.run_index, scenario="bursty", traffic_salt=salt)
        assert _records_equal(rec, alone), (rec.policy, rec.run_index)


@pytest.mark.parametrize("paired", [True, False])
def test_every_episode_runs_through_run_episode(paired, monkeypatch):
    # the benchmark's tracer times episodes and arrival draws by wrapping
    # these two names, so run_experiment must reach every episode through
    # the module-level run_episode and draw through twin.generate_arrivals
    calls = {"run_episode": 0, "generate_arrivals": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(harness, "run_episode")
    counted(twin, "generate_arrivals")
    harness._arrival_rows.cache_clear()
    steps = 20
    records = run_experiment(
        scenarios=builtin_entries(("bursty", "default"), steps=steps),
        policies=("lqf", "random", "dmwm"),
        runs=2,
        paired=paired,
        workers=1,
    )
    assert len(records) == calls["run_episode"] == 12
    # paired: one draw per (scenario, run); unpaired: one per episode
    assert calls["generate_arrivals"] == steps * (4 if paired else 12)


def test_unpaired_traffic_differs():
    records = run_experiment(
        scenarios=builtin_entries(("bursty",), steps=80), policies=("random", "lqf"), runs=3, paired=False
    )
    by = {(r.policy, r.run_index): r for r in records}
    assert any(
        by[("random", i)].arrivals != by[("lqf", i)].arrivals for i in range(3)
    )


def test_aggregate_means_exact():
    records = run_experiment(scenarios=builtin_entries(("default",), steps=60), policies=("lqf",), runs=4)
    agg = aggregate(records)[0]
    values = [r.metrics.throughput for r in records]
    assert agg.runs == 4
    assert agg.throughput_mean == pytest.approx(float(np.mean(values)), abs=0, rel=0)
    assert agg.violations_mean == pytest.approx(
        sum(r.metrics.violations for r in records) / 4
    )
    # aggregate fills PolicyAggregate by position; check every pair by name
    prefix = {
        "throughput": "throughput",
        "avg_queue": "queue",
        "avg_delay": "delay",
        "violations": "violations",
        "drops": "drops",
    }
    assert list(prefix) == [f.name for f in fields(RunMetrics)]
    for name, x in prefix.items():
        column = np.array([getattr(r.metrics, name) for r in records], dtype=float)
        assert getattr(agg, f"{x}_mean") == float(column.mean()), name
        assert getattr(agg, f"{x}_std") == float(column.std(ddof=1)), name


def test_result_columns_are_pinned():
    assert RUN_COLUMNS == (
        "scenario", "policy", "run", "throughput", "avg_queue", "avg_delay", "violations", "drops"
    )
    assert SUMMARY_COLUMNS == (
        "scenario",
        "policy",
        "runs",
        "throughput_mean",
        "throughput_std",
        "queue_mean",
        "queue_std",
        "delay_mean",
        "delay_std",
        "violations_mean",
        "violations_std",
        "drops_mean",
        "drops_std",
    )


def test_aggregate_std_sample_convention():
    records = run_experiment(scenarios=builtin_entries(("default",), steps=60), policies=("random",), runs=5)
    agg = aggregate(records)[0]
    values = np.array([r.metrics.throughput for r in records])
    assert agg.throughput_std == pytest.approx(values.std(ddof=1))


def test_single_run_std_is_zero():
    records = run_experiment(scenarios=builtin_entries(("default",), steps=30), policies=("lqf",), runs=1)
    agg = aggregate(records)[0]
    assert agg.throughput_std == 0.0


def test_only_dmwm_carries_a_decision_trace():
    records = run_experiment(scenarios=builtin_entries(("default",), steps=30), policies=("dmwm", "lqf"), runs=1)
    by = {r.policy: r for r in records}
    assert by["dmwm"].decision_trace is not None
    assert len(by["dmwm"].decision_trace) == 30
    assert by["lqf"].decision_trace is None


def test_parallel_workers_match_sequential():
    entries = builtin_entries(("default", "bursty"), steps=40)
    for paired in (True, False):
        sequential = run_experiment(scenarios=entries, runs=3, paired=paired)
        parallel = run_experiment(scenarios=entries, runs=3, paired=paired, workers=2)
        assert len(sequential) == len(parallel) == 2 * len(POLICY_NAMES) * 3
        for a, b in zip(sequential, parallel):
            assert _records_equal(a, b), (paired, a.scenario, a.policy, a.run_index)


def test_unknown_policy_rejected():
    cfg = builtin_scenario("default")
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("mws", cfg)
    assert POLICY_NAMES == ("dmwm", "random", "lqf", "deadline", "rr", "qlearn")


def test_custom_scenario_entries():
    cfg = make_cfg(lam=0.4, steps=50)
    records = run_experiment(scenarios=[("lowrate", cfg)], policies=("lqf",), runs=2)
    assert all(r.scenario == "lowrate" for r in records)
    assert records[0].queue_lengths.shape == (50, 5)
