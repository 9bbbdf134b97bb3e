"""Campaign runner: seeded episodes, paired-traffic experiments, aggregation, file output.

The experiment grid is (scenario x policy x run). Traffic streams are keyed
by (base_seed, run_index) only, never by the policy, so every policy faces
identical arrival sequences run for run (common random numbers). run_experiment
plays every episode through run_episode, which keeps the last run's arrival
rows, so the policies of one (scenario, run), played back to back, share one
draw. The whole campaign is a pure function of its seeds:
rerunning it reproduces every record bit for bit, sequentially or across
worker processes.

Parallel calls share one worker pool, which lives for the whole process.
The first call with workers > 1 starts it, and every later call with the
same worker count reuses it; a call with another count replaces it, and a
call that fails drops it, so the next call starts a fresh one. The workers
are started (forked, on Linux) when the first parallel call starts, so they
do not see a monkeypatch made after that call. A forked child never
inherits its parent's pool, and the pool exits with the interpreter. The
pool is not guarded by a lock: make parallel calls from one thread at a
time.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, make_dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .baselines import (
    DeadlinePriorityPolicy,
    FairRoundRobinPolicy,
    LqfPolicy,
    QLearningPolicy,
    RandomPolicy,
)
from .core import BUILTIN_SCENARIOS, ScenarioConfig, builtin_scenario, is_int, validate_config
from .dmwm import DecisionRecord, DmwmScheduler
from .traffic import policy_stream, traffic_streams
from .twin import RunMetrics, draw_arrivals, metrics, observe, reset, step

# Bound only for perfbench's tracer, which looks both names up in this module
# (perfbench/tracer.py); no episode calls them, as twin.model_error_matrix
# derives the model error. They go when the benchmark re-points those hooks
# (ROADMAP open item 1).
imagined_next = record_model_error = None

_POLICY_FACTORIES = {
    cls.name: cls
    for cls in (DmwmScheduler, RandomPolicy, LqfPolicy, DeadlinePriorityPolicy, FairRoundRobinPolicy, QLearningPolicy)
}

POLICY_NAMES = tuple(_POLICY_FACTORIES)


def _policy_factory(name: str):
    try:
        return _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}"
        ) from None


def make_policy(name: str, cfg: ScenarioConfig):
    """A fresh policy instance for one run."""
    return _policy_factory(name)(cfg)


@dataclass
class RunRecord:
    """Everything one episode produced: metrics, counters and dmwm's decision trace.

    The run's arrival total is read from the per-node arrivals; final_backlog
    is the packets still queued after its last slot.
    """

    scenario: str
    policy: str
    run_index: int
    metrics: RunMetrics
    delivered: int
    final_backlog: int
    arrivals_by_node: np.ndarray
    drops_by_node: np.ndarray
    decision_trace: list[DecisionRecord] | None

    @property
    def arrivals(self) -> int:
        return int(self.arrivals_by_node.sum())


@lru_cache(maxsize=1)
def _arrival_rows(cfg: ScenarioConfig, run_index: int) -> tuple[tuple[int, ...], ...]:
    """One run's arrival rows, kept for the next episode of the same (config, run).

    The policies of one (scenario, run) play back to back, so they share a
    single draw.
    """
    return tuple(draw_arrivals(cfg, traffic_streams(cfg.base_seed, run_index)))


def run_episode(cfg: ScenarioConfig, policy, run_index: int, scenario: str = "") -> RunRecord:
    """One seeded episode; deterministic in (cfg, policy type, run_index).

    The policy sees observe(state) at slot 0 and, after that, each step's
    next_obs, which equals observe(state) after the step. Pass a fresh
    policy per episode: stateful policies carry memory across decide()
    calls. A run_index that is not a non-negative int raises ValueError.
    """
    _check_int("run_index", run_index)
    if run_index < 0:
        raise ValueError(f"run_index must be non-negative, got {run_index}")
    rows = _arrival_rows(cfg, run_index)
    state = reset(cfg)
    rng = policy_stream(cfg.base_seed, run_index)
    update = getattr(policy, "update", None)
    obs = observe(state)
    for counts in rows:
        schedule = policy.decide(obs, rng)
        outcome = step(state, schedule, counts)
        obs = outcome.next_obs
        if update is not None:
            update(schedule, outcome)
    trace = getattr(policy, "trace", None)
    return RunRecord(
        scenario=scenario,
        policy=getattr(policy, "name", type(policy).__name__),
        run_index=run_index,
        metrics=metrics(state),
        delivered=state.delivered,
        final_backlog=sum(obs.q),  # obs is the observation after the last slot
        arrivals_by_node=np.array(state.arrivals_by_node, dtype=np.int64),
        drops_by_node=np.array(state.drops_by_node, dtype=np.int64),
        decision_trace=list(trace) if trace is not None else None,
    )


def _run_job(job: tuple[str, ScenarioConfig, Sequence[str], int]) -> list[RunRecord]:
    """One (scenario, run): every policy's episode, in policy order, on the run's one shared draw."""
    scenario, cfg, policy_names, run_index = job
    return [run_episode(cfg, make_policy(name, cfg), run_index, scenario) for name in policy_names]


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _forget_pool() -> None:
    global _pool, _pool_workers
    _pool, _pool_workers = None, 0


# a forked child must start its own pool, never submit to its parent's
os.register_at_fork(after_in_child=_forget_pool)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool of `workers` workers, started on first use and kept.

    A pool of another size is shut down, its manager thread joined, before
    the new one starts.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        old = _pool
        _forget_pool()
        old.shutdown(wait=True)
    if _pool is None:
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    return _pool


def _check_int(name: str, value) -> None:
    # a bool would be recorded and written as True
    if not is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_count(name: str, value, below_one: str) -> None:
    _check_int(name, value)
    if value < 1:
        raise ValueError(below_one)


def run_experiment(
    scenarios: Sequence[str | tuple[str, ScenarioConfig]] = BUILTIN_SCENARIOS,
    policies: Sequence[str] = POLICY_NAMES,
    runs: int = 30,
    workers: int = 1,
) -> list[RunRecord]:
    """Run the full (scenario x policy x run) grid and return ordered records.

    Records come back ordered by (scenario, policy, run_index) regardless of
    worker count. Scenario entries may be builtin names or (label, config)
    pairs. Every config runs exactly as given: to change its seed, steps or
    horizon, pass dataclasses.replace(cfg, ...) instead. A bad runs or
    workers value, an unknown policy name, or a repeated policy name or
    scenario label raises ValueError, and a config that fails
    validate_config raises InvalidConfig, before any episode runs or any
    worker starts. With workers > 1 the jobs run on the process's shared
    worker pool (see the module docstring).
    """
    _check_count("runs", runs, "need at least one run")
    _check_count("workers", workers, "need at least one worker")
    policies = tuple(policies)
    for name in policies:
        _policy_factory(name)  # an unknown name fails here, before any work starts
    resolved = [(item, builtin_scenario(item)) if isinstance(item, str) else item for item in scenarios]
    # aggregate groups records by (scenario, policy), so a repeat would fold two grid rows into one
    for kind, names in (("policy", policies), ("scenario label", [label for label, _ in resolved])):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ValueError(f"repeated {kind} {repeated[0]!r}")
    for _, cfg in resolved:
        validate_config(cfg)
    jobs = [(name, cfg, policies, run_index) for name, cfg in resolved for run_index in range(runs)]
    if workers > 1:
        pool = _worker_pool(workers)
        try:
            done = list(pool.map(_run_job, jobs, chunksize=max(1, len(jobs) // (workers * 4))))
        except BaseException:
            # a failed job, a dead worker or an interrupt: the next call starts afresh
            _forget_pool()
            pool.shutdown(cancel_futures=True)
            raise
    else:
        done = [_run_job(job) for job in jobs]
    # done holds one list per (scenario, run), in policy order
    return [
        done[s * runs + run_index][p]
        for s in range(len(resolved))
        for p in range(len(policies))
        for run_index in range(runs)
    ]


_METRICS = tuple(f.name for f in fields(RunMetrics))

PolicyAggregate = make_dataclass(
    "PolicyAggregate",
    [("scenario", str), ("policy", str), ("runs", int)]
    + [(f"{name.removeprefix('avg_')}_{stat}", float) for name in _METRICS for stat in ("mean", "std")],
    frozen=True,
)
PolicyAggregate.__doc__ = """Mean and sample standard deviation of each metric for one (scenario, policy):
<metric>_mean and <metric>_std per RunMetrics field, in order, <metric> without any avg_ prefix."""
# make_dataclass takes no module argument before Python 3.12, and pickle finds the class by it
PolicyAggregate.__module__ = __name__


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    # sample convention (n - 1); a single run has no spread to estimate
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def aggregate(records: Sequence[RunRecord]) -> list[PolicyAggregate]:
    """Aggregate run records per (scenario, policy), in first-seen order."""
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.scenario, rec.policy), []).append(rec)
    return [
        PolicyAggregate(
            scenario,
            policy,
            len(recs),
            *(
                stat
                for name in _METRICS
                for stat in _mean_std([getattr(r.metrics, name) for r in recs])
            ),
        )
        for (scenario, policy), recs in groups.items()
    ]


SUMMARY_COLUMNS = tuple(f.name for f in fields(PolicyAggregate))

RUN_COLUMNS = ("scenario", "policy", "run") + _METRICS


def _fmt(value) -> str:
    """One CSV cell: an Enum as its value, a float to 6 digits, a tuple space-joined, None empty."""
    if isinstance(value, Enum):
        value = value.value
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return "" if value is None else str(value)


def _write_csv(path, header: Sequence, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_csv(path, aggregates: Sequence[PolicyAggregate]) -> None:
    rows = ([_fmt(getattr(agg, col)) for col in SUMMARY_COLUMNS] for agg in aggregates)
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_summary_json(path, aggregates: Sequence[PolicyAggregate], metadata: dict | None = None) -> None:
    doc = {
        "metadata": dict(metadata or {}),
        "rows": [
            {col: getattr(agg, col) for col in SUMMARY_COLUMNS} for agg in aggregates
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_runs_csv(path, records: Sequence[RunRecord]) -> None:
    rows = (
        [rec.scenario, rec.policy, rec.run_index] + [_fmt(getattr(rec.metrics, name)) for name in _METRICS]
        for rec in records
    )
    _write_csv(path, RUN_COLUMNS, rows)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Slot-by-node integer matrix with a slot column and node column headers."""
    header = ["slot"] + [f"node{i}" for i in range(matrix.shape[1])]
    _write_csv(path, header, ([t] + row for t, row in enumerate(matrix.tolist())))


def write_decision_trace_csv(path, trace: Sequence[DecisionRecord]) -> None:
    """One row per slot: the record's index in the trace, then the record's fields."""
    rows = ([t] + [_fmt(value) for value in rec] for t, rec in enumerate(trace))
    _write_csv(path, ("slot",) + DecisionRecord._fields, rows)
