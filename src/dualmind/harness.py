"""Campaign runner: seeded episodes, paired-traffic experiments, aggregation, file output.

The experiment grid is (scenario x policy x run). Traffic streams are keyed
by (base_seed, run_index) only, so with paired traffic (the default) every
policy faces identical arrival sequences run for run; an unpaired mode
salts the key with the policy name for fully independent runs. The whole
campaign is a pure function of its seeds: rerunning it reproduces every
record bit for bit, sequentially or across worker processes.
"""

from __future__ import annotations

import csv
import json
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .baselines import (
    DeadlinePriorityPolicy,
    FairRoundRobinPolicy,
    LqfPolicy,
    QLearningPolicy,
    RandomPolicy,
)
from .core import BUILTIN_SCENARIOS, ScenarioConfig, builtin_scenario, validate_config
from .dmwm import DecisionRecord, DmwmScheduler
from .traffic import policy_stream, traffic_streams
from .twin import (
    RunMetrics,
    imagined_next,
    metrics,
    observe,
    record_model_error,
    reset,
    step,
)

POLICY_NAMES = ("dmwm", "random", "lqf", "deadline", "rr", "qlearn")

_POLICY_FACTORIES = {
    "dmwm": DmwmScheduler,
    "random": RandomPolicy,
    "lqf": LqfPolicy,
    "deadline": DeadlinePriorityPolicy,
    "rr": FairRoundRobinPolicy,
    "qlearn": QLearningPolicy,
}


def make_policy(name: str, cfg: ScenarioConfig):
    """A fresh policy instance for one run."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}"
        ) from None
    return factory(cfg)


@dataclass
class RunRecord:
    """Everything one episode produced: metrics, counters, diagnostic matrices."""

    scenario: str
    policy: str
    run_index: int
    metrics: RunMetrics
    arrivals: int
    delivered: int
    final_backlog: int
    arrivals_by_node: np.ndarray
    drops_by_node: np.ndarray
    queue_lengths: np.ndarray
    schedule_matrix: np.ndarray
    model_error_matrix: np.ndarray
    decision_trace: list[DecisionRecord] | None


def run_episode(
    cfg: ScenarioConfig,
    policy,
    run_index: int,
    scenario: str = "",
    traffic_salt: int = 0,
) -> RunRecord:
    """One seeded episode; deterministic in (cfg, policy type, run_index, salt).

    Pass a fresh policy per episode: stateful policies carry memory across
    decide() calls. Each slot also logs the one-step prediction of the
    drain-only model against the realised next queue state.
    """
    state = reset(cfg)
    streams = traffic_streams(cfg.base_seed, run_index, traffic_salt)
    rng = policy_stream(cfg.base_seed, run_index, traffic_salt)
    update = getattr(policy, "update", None)
    obs = observe(state)
    for _ in range(cfg.steps):
        schedule = policy.decide(obs, rng)
        imagined = imagined_next(obs.q, schedule)
        outcome = step(state, schedule, streams)
        obs = observe(state)
        record_model_error(state, imagined, obs.q)
        if update is not None:
            update(schedule, outcome, obs)
    trace = getattr(policy, "trace", None)
    return RunRecord(
        scenario=scenario,
        policy=getattr(policy, "name", type(policy).__name__),
        run_index=run_index,
        metrics=metrics(state),
        arrivals=int(state.arrivals_by_node.sum()),
        delivered=state.delivered,
        final_backlog=sum(len(queue) for queue in state.queues),
        arrivals_by_node=state.arrivals_by_node,
        drops_by_node=state.drops_by_node,
        queue_lengths=state.queue_length_timeseries,
        schedule_matrix=state.schedule_matrix,
        model_error_matrix=state.model_error_matrix,
        decision_trace=list(trace) if trace is not None else None,
    )


def _policy_salt(name: str) -> int:
    # crc32 is stable across platforms and processes, unlike hash()
    return zlib.crc32(name.encode("ascii"))


def _episode_job(job: tuple[str, ScenarioConfig, str, int, int]) -> RunRecord:
    scenario, cfg, policy_name, run_index, salt = job
    policy = make_policy(policy_name, cfg)
    return run_episode(cfg, policy, run_index, scenario=scenario, traffic_salt=salt)


def _resolve_scenarios(
    scenarios: Sequence[str | tuple[str, ScenarioConfig]],
    base_seed: int | None,
    steps: int | None,
    horizon: int | None,
) -> list[tuple[str, ScenarioConfig]]:
    resolved = []
    for item in scenarios:
        if isinstance(item, str):
            name, cfg = item, builtin_scenario(item)
        else:
            name, cfg = item
        overrides = {}
        if base_seed is not None:
            overrides["base_seed"] = base_seed
        if steps is not None:
            overrides["steps"] = steps
        if horizon is not None:
            overrides["horizon"] = horizon
        if overrides:
            cfg = validate_config(replace(cfg, **overrides))
        resolved.append((name, cfg))
    return resolved


def run_experiment(
    scenarios: Sequence[str | tuple[str, ScenarioConfig]] = BUILTIN_SCENARIOS,
    policies: Sequence[str] = POLICY_NAMES,
    runs: int = 30,
    base_seed: int | None = None,
    steps: int | None = None,
    horizon: int | None = None,
    paired: bool = True,
    workers: int = 1,
) -> list[RunRecord]:
    """Run the full (scenario x policy x run) grid and return ordered records.

    Records come back ordered by (scenario, policy, run_index) regardless of
    worker count. Scenario entries may be builtin names or (label, config)
    pairs; seed/steps/horizon overrides apply to every scenario when given.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    resolved = _resolve_scenarios(scenarios, base_seed, steps, horizon)
    jobs = [
        (name, cfg, policy_name, run_index, 0 if paired else _policy_salt(policy_name))
        for name, cfg in resolved
        for policy_name in policies
        for run_index in range(runs)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_episode_job, jobs, chunksize=max(1, len(jobs) // (workers * 4))))
    return [_episode_job(job) for job in jobs]


@dataclass(frozen=True)
class PolicyAggregate:
    """Mean and sample standard deviation of each metric for one (scenario, policy)."""

    scenario: str
    policy: str
    runs: int
    throughput_mean: float
    throughput_std: float
    queue_mean: float
    queue_std: float
    delay_mean: float
    delay_std: float
    violations_mean: float
    violations_std: float
    drops_mean: float
    drops_std: float


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
    out = []
    for (scenario, policy), recs in groups.items():
        thr = _mean_std([r.metrics.throughput for r in recs])
        queue = _mean_std([r.metrics.avg_queue for r in recs])
        delay = _mean_std([r.metrics.avg_delay for r in recs])
        violations = _mean_std([r.metrics.violations for r in recs])
        drops = _mean_std([r.metrics.drops for r in recs])
        out.append(
            PolicyAggregate(
                scenario=scenario,
                policy=policy,
                runs=len(recs),
                throughput_mean=thr[0],
                throughput_std=thr[1],
                queue_mean=queue[0],
                queue_std=queue[1],
                delay_mean=delay[0],
                delay_std=delay[1],
                violations_mean=violations[0],
                violations_std=violations[1],
                drops_mean=drops[0],
                drops_std=drops[1],
            )
        )
    return out


SUMMARY_COLUMNS = (
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

RUN_COLUMNS = ("scenario", "policy", "run", "throughput", "avg_queue", "avg_delay", "violations", "drops")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_summary_csv(path, aggregates: Sequence[PolicyAggregate]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for agg in aggregates:
            writer.writerow([_fmt(getattr(agg, col)) for col in SUMMARY_COLUMNS])


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUN_COLUMNS)
        for rec in records:
            m = rec.metrics
            writer.writerow(
                [
                    rec.scenario,
                    rec.policy,
                    rec.run_index,
                    _fmt(m.throughput),
                    _fmt(m.avg_queue),
                    _fmt(m.avg_delay),
                    m.violations,
                    m.drops,
                ]
            )


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Slot-by-node integer matrix with a slot column and node column headers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slot"] + [f"node{i}" for i in range(matrix.shape[1])])
        for t, row in enumerate(matrix):
            writer.writerow([t] + [int(v) for v in row])


def write_decision_trace_csv(path, trace: Sequence[DecisionRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slot", "provenance", "nodes", "feasible_count", "best_reward"])
        for rec in trace:
            writer.writerow(
                [
                    rec.slot,
                    rec.provenance.value,
                    " ".join(str(i) for i in rec.nodes),
                    rec.feasible_count,
                    "" if rec.best_reward is None else rec.best_reward,
                ]
            )
