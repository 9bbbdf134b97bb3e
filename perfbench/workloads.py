"""Workloads and the correctness gate of the dualmind benchmark.

Every number the benchmark reports is host time: dualmind is a deterministic
simulator, so its simulated statistics are checked here, never scored. The
package is driven only through its public functions.

Workloads (all batch jobs, closed loop, one process unless stated):

- campaign: the builtin grid (4 scenarios x 6 policies x 30 runs x 200
  slots, paired traffic, one worker), then aggregate and the three campaign
  writers. The paper's headline job; twin.step and traffic sampling dominate
  the five baselines, so twin, traffic and arrival-sharing changes show here
  while planner changes are diluted.
- campaign_parallel: the same grid on two worker processes. Exercises the
  process pool's chunking and the records pickled back to the parent.
- planner_scale: dmwm alone on 16 nodes, K=4, conflict pairs (0,1),(2,3),...
  and a 10-slot deadline on even nodes. Each slot enumerates C(16,4)=1820
  candidates, so icn and the slow mind take nearly all the time; it is the
  bypass workload for twin and traffic changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Sequence

from dualmind import (
    BUILTIN_SCENARIOS,
    POLICY_NAMES,
    ConflictGraph,
    RunRecord,
    ScenarioConfig,
    aggregate,
    builtin_scenario,
    make_policy,
    run_episode,
    run_experiment,
    validate_config,
)
from dualmind.core import default_lambda
from dualmind.harness import write_runs_csv, write_summary_csv, write_summary_json

BASELINES = tuple(p for p in POLICY_NAMES if p != "dmwm")
SWEEP_NODES = (5, 8, 12, 16)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the sizes of each of its timed passes.

    The job is the workload proper and sets wall_s. A timing round runs the
    cell pass, one run_experiment call per (scenario, policy) for
    cell_policies, then the decide pass, which times dmwm decisions around
    the policy instance. A dmwm-only job is itself the dmwm cell.
    """

    name: str
    scenario: str  # "builtin" or "pairwise"
    job_policies: tuple[str, ...]
    runs: int
    workers: int
    cell_policies: tuple[str, ...]
    cell_runs: int
    decide_runs: int
    steps: int = 200
    reference: str = ""  # key of the seed-42 digest in reference.json


WORKLOADS = {
    w.name: w
    for w in (
        Workload("campaign", "builtin", POLICY_NAMES, runs=30, workers=1,
                 cell_policies=POLICY_NAMES, cell_runs=3, decide_runs=3, reference="grid"),
        Workload("campaign_parallel", "builtin", POLICY_NAMES, runs=30, workers=2,
                 cell_policies=POLICY_NAMES, cell_runs=8, decide_runs=3, reference="grid"),
        Workload("planner_scale", "pairwise", ("dmwm",), runs=1, workers=1,
                 cell_policies=BASELINES, cell_runs=2, decide_runs=1, reference="planner_scale"),
    )
}


def pairwise_config(n_nodes: int, k: int, seed: int, steps: int = 200) -> ScenarioConfig:
    """Conflict pairs (0,1),(2,3),..., a 10-slot deadline on even nodes, buffer 50, H=3."""
    return validate_config(
        ScenarioConfig(
            n_nodes=n_nodes,
            max_scheduled=k,
            buffer=50,
            steps=steps,
            horizon=3,
            lambda_base=default_lambda(n_nodes),
            deadlines=tuple(10 if i % 2 == 0 else None for i in range(n_nodes)),
            conflict_graph=ConflictGraph.from_pairs((i, i + 1) for i in range(0, n_nodes - 1, 2)),
            base_seed=seed,
        )
    )


def build_scenarios(w: Workload, seed: int) -> list[tuple[str, ScenarioConfig]]:
    """The (label, config) pairs a workload runs, all carrying the workload seed."""
    if w.scenario == "builtin":
        return [
            (name, replace(builtin_scenario(name), base_seed=seed, steps=w.steps))
            for name in BUILTIN_SCENARIOS
        ]
    return [(w.name, pairwise_config(16, 4, seed, w.steps))]


def sweep_config(n_nodes: int, seed: int, steps: int = 200) -> ScenarioConfig:
    """The planner_scale topology at n_nodes; K=3 up to 8 nodes and 4 above."""
    return pairwise_config(n_nodes, 3 if n_nodes <= 8 else 4, seed, steps)


@dataclass
class JobResult:
    records: list[RunRecord]
    call_s: float  # the run_experiment call alone
    aggregate_s: float
    writers_s: float
    wall_s: float


def run_job(
    w: Workload, scenarios: Sequence[tuple[str, ScenarioConfig]], workers: int, out_dir: Path
) -> JobResult:
    """The workload's batch job: one run_experiment call, aggregate, the campaign writers."""
    t0 = perf_counter()
    records = run_experiment(
        scenarios=scenarios, policies=w.job_policies, runs=w.runs, workers=workers
    )
    t1 = perf_counter()
    aggs = aggregate(records)
    t2 = perf_counter()
    write_runs_csv(out_dir / "runs.csv", records)
    write_summary_csv(out_dir / "summary.csv", aggs)
    write_summary_json(
        out_dir / "summary.json",
        aggs,
        metadata={
            "scenarios": [label for label, _ in scenarios],
            "policies": list(w.job_policies),
            "runs": w.runs,
            "base_seed": scenarios[0][1].base_seed,
            "paired_traffic": True,
        },
    )
    t3 = perf_counter()
    return JobResult(records, t1 - t0, t2 - t1, t3 - t2, t3 - t0)


def time_cells(
    scenarios: Sequence[tuple[str, ScenarioConfig]],
    policies: Sequence[str],
    runs: int,
    workers: int,
) -> tuple[dict[str, tuple[int, float]], list[RunRecord]]:
    """Slots simulated and seconds taken per policy, one run_experiment call per cell."""
    totals: dict[str, tuple[int, float]] = {}
    records: list[RunRecord] = []
    for label, cfg in scenarios:
        for policy in policies:
            t0 = perf_counter()
            cell = run_experiment(
                scenarios=[(label, cfg)], policies=[policy], runs=runs, workers=workers
            )
            elapsed = perf_counter() - t0
            slots, seconds = totals.get(policy, (0, 0.0))
            totals[policy] = (slots + runs * cfg.steps, seconds + elapsed)
            records.extend(cell)
    return totals, records


class TimedPolicy:
    """Times decide() around a policy instance; run_episode sees the inner policy's name and trace."""

    def __init__(self, inner, samples: list[float]):
        self.inner = inner
        self.name = inner.name
        self.trace = getattr(inner, "trace", None)
        self.samples = samples

    def decide(self, obs, rng):
        t0 = perf_counter()
        action = self.inner.decide(obs, rng)
        self.samples.append(perf_counter() - t0)
        return action


def decide_latencies(
    scenarios: Sequence[tuple[str, ScenarioConfig]], runs: int, samples: list[float]
) -> list[RunRecord]:
    """Run dmwm episodes and append each decide() latency in seconds to samples."""
    records = []
    for label, cfg in scenarios:
        for run_index in range(runs):
            policy = TimedPolicy(make_policy("dmwm", cfg), samples)
            records.append(run_episode(cfg, policy, run_index, scenario=label))
    return records


def digest(records: Sequence[RunRecord]) -> str:
    """SHA-256 over the (scenario, policy, run, throughput, avg_queue, avg_delay,
    violations, drops) tuple of each record, one repr per line, in record order."""
    text = "".join(
        repr((
            r.scenario,
            r.policy,
            int(r.run_index),
            float(r.metrics.throughput),
            float(r.metrics.avg_queue),
            float(r.metrics.avg_delay),
            int(r.metrics.violations),
            int(r.metrics.drops),
        )) + "\n"
        for r in records
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conserves(r: RunRecord) -> bool:
    """arrivals == delivered + drops + violations + final backlog."""
    return r.arrivals == r.delivered + r.metrics.drops + r.metrics.violations + r.final_backlog


def count_failed(records: Sequence[RunRecord], expected_digest: str | None = None) -> int:
    """Episodes failing the gate: every non-conserving one, or all of them on a digest mismatch."""
    failed = sum(1 for r in records if not conserves(r))
    if expected_digest is not None and digest(records) != expected_digest:
        return len(records)
    return failed
