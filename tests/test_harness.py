"""Campaign mechanics: determinism, traffic pairing, aggregation, parallel equality, the worker pool."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dualmind import harness, twin
from dualmind.core import InvalidConfig, Provenance, builtin_scenario
from dualmind.dmwm import DecisionRecord
from dualmind.harness import (
    POLICY_NAMES,
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    aggregate,
    make_policy,
    run_episode,
    run_experiment,
    write_decision_trace_csv,
)
from dualmind.twin import RunMetrics
from helpers import builtin_entries, make_cfg, recorded_episode


def _drop_pool():
    pool = harness._pool
    if pool is not None:
        harness._forget_pool()
        pool.shutdown(wait=True, cancel_futures=True)


@pytest.fixture(autouse=True)
def _no_cached_pool():
    """Each test starts without the process's worker pool and leaves none behind,
    so a pool that one test breaks cannot fail the next."""
    _drop_pool()
    yield
    _drop_pool()


def _records_equal(a, b):
    return (
        (a.scenario, a.policy, a.run_index) == (b.scenario, b.policy, b.run_index)
        and a.metrics == b.metrics
        and (a.arrivals, a.delivered, a.final_backlog) == (b.arrivals, b.delivered, b.final_backlog)
        and np.array_equal(a.arrivals_by_node, b.arrivals_by_node)
        and np.array_equal(a.drops_by_node, b.drops_by_node)
        and a.decision_trace == b.decision_trace
    )


@pytest.mark.parametrize("policy_name", ["dmwm", "qlearn", "rr"])
def test_run_episode_repeatable(policy_name):
    cfg = builtin_scenario("default")
    first = run_episode(cfg, make_policy(policy_name, cfg), 4, scenario="default")
    second = run_episode(cfg, make_policy(policy_name, cfg), 4, scenario="default")
    assert _records_equal(first, second)


def test_run_records_hold_nothing_per_slot():
    # a run ten times longer leaves a record of the same pickled size, give or take its counters' widths
    sizes = []
    for steps in (40, 400):
        cfg = make_cfg(lam=0.5, steps=steps)
        record = run_episode(cfg, make_policy("lqf", cfg), 0)
        assert type(record.final_backlog) is int
        sizes.append(len(pickle.dumps(record)))
    assert sizes[1] < sizes[0] + 16, sizes


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


def test_experiment_records_equal_single_episodes():
    # run_experiment shares a run's arrivals across policies; each record
    # must still be the episode run_episode plays on its own
    cfg = replace(builtin_scenario("bursty"), steps=60)
    records = run_experiment(scenarios=[("bursty", cfg)], runs=2)
    assert len(records) == len(POLICY_NAMES) * 2
    for rec in records:
        alone = run_episode(cfg, make_policy(rec.policy, cfg), rec.run_index, scenario="bursty")
        assert _records_equal(rec, alone), (rec.policy, rec.run_index)


def test_every_episode_runs_through_run_episode(monkeypatch):
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
        workers=1,
    )
    assert len(records) == calls["run_episode"] == 12
    # one draw per (scenario, run), shared by its three episodes
    assert calls["generate_arrivals"] == steps * 4


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


def test_decision_trace_columns_are_pinned(tmp_path):
    assert DecisionRecord._fields == ("provenance", "nodes", "feasible_count", "best_reward")
    shared = DecisionRecord(Provenance.SLOW_MIND, (0, 2, 4), 7, 3)
    trace = [
        shared,
        DecisionRecord(Provenance.FAST_MIND, (1,), 0, None),
        shared,
        DecisionRecord(Provenance.FAST_MIND, (), 0, None),
        shared,
    ]
    write_decision_trace_csv(tmp_path / "decisions.csv", trace)
    # the slot column is each record's index in the trace; a repeated record differs only there
    assert (tmp_path / "decisions.csv").read_text().splitlines() == [
        "slot,provenance,nodes,feasible_count,best_reward",
        "0,slow_mind,0 2 4,7,3",
        "1,fast_mind,1,0,",
        "2,slow_mind,0 2 4,7,3",
        "3,fast_mind,,0,",
        "4,slow_mind,0 2 4,7,3",
    ]


def test_aggregate_rows_survive_pickling():
    records = run_experiment(scenarios=builtin_entries(("default",), steps=20), policies=("lqf", "rr"), runs=2)
    rows = aggregate(records)
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_policy_names_come_from_the_policy_classes():
    assert POLICY_NAMES == ("dmwm", "random", "lqf", "deadline", "rr", "qlearn")
    for name, factory in harness._POLICY_FACTORIES.items():
        assert factory.name == name


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


def _assert_parallel_matches(workers, **grid):
    sequential = run_experiment(**grid)
    parallel = run_experiment(**grid, workers=workers)
    assert len(sequential) == len(parallel)
    for a, b in zip(sequential, parallel):
        assert _records_equal(a, b), (a.scenario, a.policy, a.run_index)
    return sequential, parallel


def _distinct_records(record):
    return len({id(decision) for decision in record.decision_trace})


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_parallel_workers_match_sequential():
    sequential, records = _assert_parallel_matches(
        2, scenarios=builtin_entries(("default", "bursty"), steps=40), runs=3
    )
    assert len(records) == 2 * len(POLICY_NAMES) * 3
    # another grid on the now-warm pool: other scenarios, policies, steps and runs
    more_sequential, more = _assert_parallel_matches(
        2,
        scenarios=builtin_entries(("deadline", "interference"), steps=25, base_seed=9),
        policies=("qlearn", "dmwm", "rr"),
        runs=5,
    )
    sequential += more_sequential
    records += more
    # each run's shared decision records survive the worker pipe
    planner = [(a, b) for a, b in zip(sequential, records) if b.policy == "dmwm"]
    assert len(planner) == 2 * 3 + 2 * 5
    for alone, record in planner:
        assert _distinct_records(record) == _distinct_records(alone) < len(record.decision_trace)
    fast = [r for r in records if r.scenario == "interference" and r.policy == "dmwm"]
    assert len(fast) == 5
    for record in fast:
        first = {}
        for decision in record.decision_trace:
            assert decision.provenance is Provenance.FAST_MIND
            assert first.setdefault(decision.nodes, decision) is decision
        assert len(first) < len(record.decision_trace)


def test_parallel_calls_reuse_one_pool():
    grid = dict(scenarios=builtin_entries(("default",), steps=20), policies=("lqf",), runs=4, workers=2)
    run_experiment(**grid)
    first = _worker_pids()
    run_experiment(**grid)
    assert len(first) == 2
    assert _worker_pids() == first


def test_changing_workers_replaces_the_pool(monkeypatch):
    grid = dict(scenarios=builtin_entries(("default",), steps=20), policies=("lqf",), runs=4)
    run_experiment(**grid, workers=2)
    two = _worker_pids()
    # the old pool is shut down and its workers joined before the new one starts
    children_at_start = []

    def recorded(*args, **kwargs):
        children_at_start.append(_worker_pids())
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recorded)
    run_experiment(**grid, workers=3)
    three = _worker_pids()
    assert children_at_start == [set()]
    assert len(two) == 2 and len(three) == 3
    assert not any(_alive(pid) for pid in two)
    run_experiment(**grid, workers=2)
    assert len(_worker_pids()) == 2


def test_no_more_workers_than_jobs(monkeypatch):
    # a forked pool starts all its workers at the first submit, so a worker
    # without a job would be forked for nothing
    started = []

    def recorded(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recorded)
    one_job = dict(scenarios=builtin_entries(("default",), steps=20), policies=("lqf", "dmwm"), runs=1)
    _assert_parallel_matches(3, **one_job)
    assert started == [] and harness._pool is None and _worker_pids() == set()
    _assert_parallel_matches(3, **dict(one_job, runs=2))
    assert started == [2] and harness._pool_workers == 2 and len(_worker_pids()) == 2


class _FailingPolicy:
    """A policy whose every decision raises."""

    name = "boom"

    def __init__(self, cfg):
        pass

    def decide(self, obs, rng):
        raise RuntimeError("boom: this policy always fails")


def test_pool_recovers_after_a_failed_job(monkeypatch):
    # the workers must be forked after the patch to know the failing policy,
    # so the test starts without a pool (see _no_cached_pool)
    assert harness._pool is None
    monkeypatch.setitem(harness._POLICY_FACTORIES, "boom", _FailingPolicy)
    with pytest.raises(RuntimeError, match="this policy always fails"):
        run_experiment(scenarios=builtin_entries(("default",), steps=20), policies=("boom",), runs=4, workers=2)
    assert harness._pool is None  # the failed call dropped its pool
    _assert_parallel_matches(2, scenarios=builtin_entries(("bursty",), steps=30), policies=("lqf", "dmwm"), runs=3)


def test_invalid_scenario_entry_rejected_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the configs were checked")

    monkeypatch.setattr(harness, "run_episode", forbidden)
    monkeypatch.setattr(harness, "_worker_pool", forbidden)
    cfg = builtin_scenario("default")
    short = replace(cfg, lambda_base=cfg.lambda_base[:-1], steps=20)  # one rate short
    for workers in (1, 2):
        with pytest.raises(InvalidConfig, match="lambda_base"):
            run_experiment(scenarios=["bursty", ("short", short)], policies=("lqf",), runs=4, workers=workers)


def test_pool_recovers_after_a_worker_is_killed():
    grid = dict(scenarios=builtin_entries(("default",), steps=30), policies=("lqf", "random"), runs=3)
    run_experiment(**grid, workers=2)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(10)
    # the pool's manager thread also waits on the dead worker; when its waitpid
    # reaps it first, join returns with exitcode None until that thread stores it
    deadline = time.monotonic() + 10
    while victim.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert victim.exitcode == -signal.SIGKILL
    sequential = run_experiment(**grid)
    try:
        parallel = run_experiment(**grid, workers=2)
    except BrokenProcessPool:
        pass
    else:
        assert len(parallel) == len(sequential)
        assert all(_records_equal(a, b) for a, b in zip(sequential, parallel))
    _assert_parallel_matches(2, **grid)


def test_forked_child_does_not_inherit_the_pool():
    run_experiment(scenarios=builtin_entries(("default",), steps=10), policies=("lqf",), runs=2, workers=2)
    assert harness._pool is not None
    pid = os.fork()
    if pid == 0:  # the child: report, never return into pytest
        os._exit(0 if harness._pool is None else 1)
    deadline = time.monotonic() + 10
    while (reaped := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert reaped[0] == pid and os.waitstatus_to_exitcode(reaped[1]) == 0
    assert harness._pool is not None


def test_pool_workers_exit_with_the_interpreter():
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import multiprocessing\n"
        "from dualmind import run_experiment\n"
        "run_experiment(scenarios=['default'], policies=['lqf'], runs=2, workers=2)\n"
        "print(*sorted(p.pid for p in multiprocessing.active_children()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)


_DEFAULT = builtin_scenario("default")


@pytest.mark.parametrize(
    "bad",
    [
        {"runs": True},
        {"runs": 2.0},
        {"runs": "3"},
        {"workers": True},
        {"workers": 2.0},
        {"workers": None},
        {"policies": ("lqf", "mws")},
        {"policies": ("lqf", "lqf")},
        {"policies": ("lqf", "lqf"), "workers": 2},
        {"scenarios": ["default", "default"]},
        {"scenarios": [("x", _DEFAULT), ("x", replace(_DEFAULT, horizon=1))], "workers": 2},
    ],
    ids=[
        "runs-bool", "runs-float", "runs-str", "workers-bool", "workers-float", "workers-none", "policy-name",
        "policy-repeated", "policy-repeated-workers-2", "builtin-repeated", "label-repeated-workers-2",
    ],
)
def test_bad_grid_arguments_rejected_before_any_work(bad, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(harness, "run_episode", forbidden)
    monkeypatch.setattr(harness, "_worker_pool", forbidden)
    grid = {"scenarios": builtin_entries(("default",), steps=10), "policies": ("lqf",), "runs": 2, **bad}
    with pytest.raises(ValueError):
        run_experiment(**grid)


@pytest.mark.parametrize(
    "field,value",
    [("lambda_base", [0.5, 0.6, 0.7, 0.8, 0.9]), ("deadlines", [None, 10, None, 10, None]), ("burst_nodes", {1, 3})],
    ids=["lambda_base-list", "deadlines-list", "burst_nodes-set"],
)
def test_unhashable_config_rejected_before_any_work(field, value, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the configs were checked")

    monkeypatch.setattr(harness, "run_episode", forbidden)
    monkeypatch.setattr(harness, "_worker_pool", forbidden)
    cfg = replace(builtin_scenario("bursty"), steps=20, **{field: value})
    for workers in (1, 2):
        with pytest.raises(InvalidConfig, match=f"^{field}: must be hashable"):
            run_experiment(scenarios=[("listy", cfg)], policies=("lqf",), runs=2, workers=workers)


@pytest.mark.parametrize(
    "field,value",
    [
        ("horizon", 2.5),
        ("buffer", 7.5),
        ("steps", 3.0),
        ("n_nodes", 5.0),
        ("max_scheduled", True),
        ("horizon", True),
        ("base_seed", 7.0),
        ("deadlines", (None, 10.5, None, 10, None)),
    ],
    ids=["horizon-float", "buffer-float", "steps-float", "n_nodes-float", "max_scheduled-bool", "horizon-bool",
         "base_seed-float", "deadline-float"],
)
def test_integer_config_fields_rejected_before_any_work(field, value, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the configs were checked")

    monkeypatch.setattr(harness, "run_episode", forbidden)
    monkeypatch.setattr(harness, "_worker_pool", forbidden)
    cfg = replace(builtin_scenario("deadline"), **{"steps": 20, field: value})
    bad = 10.5 if field == "deadlines" else value
    for workers in (1, 2):
        with pytest.raises(InvalidConfig, match=f"^{field}: need an integer, got {bad!r}$"):
            run_experiment(scenarios=[("typed", cfg)], policies=("lqf",), runs=2, workers=workers)


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("burst_probability", True, "need a number, got True"),
        ("lambda_base", (0.5, True, 0.75, 0.875, 1.0), "need a number, got True"),
        ("fallback_conflict_aware", 1, "need a boolean, got 1"),
        ("burst_nodes", frozenset({True}), "need an integer, got True"),
        ("burst_amplitude_range", (True, 5.0), "need a number, got True"),
        ("burst_nodes", frozenset({1.0}), "need an integer, got 1.0"),
        ("conflict_graph", frozenset({(0, 1)}), "need a ConflictGraph, got frozenset({(0, 1)})"),
        ("burst_probability", "0.1", "need a number, got '0.1'"),
        ("lambda_base", (0.5, 10**400, 0.75, 0.875, 1.0), "integer too large for a float"),
        ("burst_amplitude_range", (2.0, 5.0, 6.0), "need 2 items, got (2.0, 5.0, 6.0)"),
    ],
    ids=["burst_probability-bool", "lambda_base-bool", "fallback-int", "burst_nodes-bool", "amplitude-bool",
         "burst_nodes-float", "conflict_graph-frozenset", "burst_probability-str", "lambda_base-huge_int",
         "amplitude-three"],
)
def test_non_integer_config_fields_rejected_before_any_work(field, value, reason, monkeypatch):
    # each of these once validated, then failed its JSON round trip or a run, or raised another error;
    # a malformed conflict pair is now rejected when its graph is built (tests/test_core.py)
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the configs were checked")

    monkeypatch.setattr(harness, "run_episode", forbidden)
    monkeypatch.setattr(harness, "_worker_pool", forbidden)
    cfg = replace(builtin_scenario("bursty"), **{"steps": 20, field: value})
    for workers in (1, 2):
        with pytest.raises(InvalidConfig) as exc:
            run_experiment(scenarios=[("typed", cfg)], policies=("lqf",), runs=2, workers=workers)
        assert (exc.value.field, exc.value.reason) == (field, reason)


@pytest.mark.parametrize("run_index", [True, 1.5, "1", None])
def test_run_episode_rejects_a_run_index_that_is_not_an_int(run_index):
    cfg = make_cfg(steps=10)
    with pytest.raises(ValueError, match="run_index must be an int"):
        run_episode(cfg, make_policy("lqf", cfg), run_index)


def test_unknown_policy_rejected():
    cfg = builtin_scenario("default")
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("mws", cfg)
    assert POLICY_NAMES == ("dmwm", "random", "lqf", "deadline", "rr", "qlearn")


def test_custom_scenario_entries():
    cfg = make_cfg(lam=0.4, steps=50)
    records = run_experiment(scenarios=[("lowrate", cfg)], policies=("lqf",), runs=2)
    assert all(r.scenario == "lowrate" for r in records)
    record, queue_lengths, _ = recorded_episode(cfg, make_policy("lqf", cfg), 0, "lowrate")
    assert _records_equal(records[0], record)
    assert queue_lengths.shape == (50, 5)
