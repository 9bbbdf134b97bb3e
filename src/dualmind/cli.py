"""Command line entry point: single runs, full campaigns, traces, scenario management."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    BUILTIN_SCENARIOS,
    InvalidConfig,
    Provenance,
    ScenarioConfig,
    UnknownScenario,
    builtin_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)
from .dmwm import DmwmScheduler
from .harness import (
    POLICY_NAMES,
    aggregate,
    run_episode,
    run_experiment,
    write_decision_trace_csv,
    write_matrix_csv,
    write_runs_csv,
    write_summary_csv,
    write_summary_json,
)
from .twin import StepOutcome, model_error_matrix

OUT_DIR_ENV = "DUALMIND_OUT"


def _default_out() -> str:
    return os.environ.get(OUT_DIR_ENV, "out")


def _resolve_scenario(name_or_path: str) -> tuple[str, ScenarioConfig]:
    """A builtin scenario name, or a path to a scenario JSON file."""
    if name_or_path in BUILTIN_SCENARIOS:
        return name_or_path, builtin_scenario(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise InvalidConfig("scenario", "JSON nested too deeply") from None
        return path.stem, scenario_from_dict(doc)
    raise UnknownScenario(
        f"unknown scenario {name_or_path!r}; builtin names: {', '.join(BUILTIN_SCENARIOS)}"
        " (or pass a scenario JSON file path)"
    )


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    """cfg with the command's --seed and any --steps/--horizon it has, validated."""
    overrides = {"base_seed": args.seed}
    if getattr(args, "steps", None) is not None:
        overrides["steps"] = args.steps
    if getattr(args, "horizon", None) is not None:
        overrides["horizon"] = args.horizon
    return validate_config(replace(cfg, **overrides))


def _warn_if_never_planned(name: str, scheduler: DmwmScheduler) -> None:
    """One stderr line when no K nodes are pairwise free of conflicts: dmwm never plans.

    The commands print it once their run has succeeded; it changes no output file.
    """
    if not scheduler.plans:
        print(
            f"warning: scenario {name} has no {scheduler.cfg.max_scheduled} pairwise conflict-free nodes, "
            "so dmwm's slow mind never plans and every slot goes to the fast mind",
            file=sys.stderr,
        )


def _ensure_out(args: argparse.Namespace) -> Path:
    """Create --out; callers run first, so a rejected run leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_and_write(
    args: argparse.Namespace,
    scenarios: Sequence[tuple[str, ScenarioConfig]],
    policies: Sequence[str],
    metadata: dict,
):
    """Run the grid, then write runs.csv, summary.csv and summary.json into --out."""
    records = run_experiment(
        scenarios=scenarios,
        policies=policies,
        runs=args.runs,
        workers=args.workers,
    )
    if "dmwm" in policies:
        for name, cfg in scenarios:
            _warn_if_never_planned(name, DmwmScheduler(cfg))
    aggs = aggregate(records)
    out = _ensure_out(args)
    write_runs_csv(out / "runs.csv", records)
    write_summary_csv(out / "summary.csv", aggs)
    write_summary_json(
        out / "summary.json",
        aggs,
        metadata={**metadata, "runs": args.runs, "base_seed": args.seed, "paired_traffic": True},
    )
    return out, records, aggs


def cmd_run(args: argparse.Namespace) -> int:
    name, cfg = _resolve_scenario(args.scenario)
    cfg = _apply_overrides(cfg, args)
    out, _, aggs = _run_and_write(
        args,
        [(name, cfg)],
        [args.policy],
        {"scenario": name, "policy": args.policy, "steps": cfg.steps},
    )
    agg = aggs[0]
    print(
        f"{args.policy} on {name}: throughput {agg.throughput_mean:.4f} pkt/slot, "
        f"avg queue {agg.queue_mean:.3f}, avg delay {agg.delay_mean:.3f}, "
        f"violations {agg.violations_mean:.2f}, drops {agg.drops_mean:.2f} "
        f"(mean over {args.runs} runs)"
    )
    print(f"wrote {out / 'runs.csv'}, {out / 'summary.csv'}, {out / 'summary.json'}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    scenarios = [(name, _apply_overrides(builtin_scenario(name), args)) for name in BUILTIN_SCENARIOS]
    out, records, aggs = _run_and_write(
        args,
        scenarios,
        POLICY_NAMES,
        {"scenarios": list(BUILTIN_SCENARIOS), "policies": list(POLICY_NAMES)},
    )
    print(
        f"campaign complete: {len(records)} runs, {len(aggs)} (scenario, policy) rows; "
        f"wrote {out / 'summary.csv'} and {out / 'summary.json'}"
    )
    return 0


class _TracedScheduler(DmwmScheduler):
    """dmwm that also keeps each slot's queue lengths after arrivals.

    run_episode hands every slot's outcome to update, and its next_obs.q is that row.
    """

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)
        self.queue_rows: list[tuple[int, ...]] = []

    def update(self, schedule: tuple[int, ...], outcome: StepOutcome) -> None:
        self.queue_rows.append(outcome.next_obs.q)


def cmd_trace(args: argparse.Namespace) -> int:
    name, cfg = _resolve_scenario(args.scenario)
    cfg = _apply_overrides(cfg, args)
    policy = _TracedScheduler(cfg)
    record = run_episode(cfg, policy, args.run_index, scenario=name)
    _warn_if_never_planned(name, policy)
    # a decision's index in the trace is its slot; buffer < 2**31 fits each length in a C int
    schedule = np.array([[i in rec.nodes for i in range(cfg.n_nodes)] for rec in record.decision_trace])
    queue_lengths = np.array(policy.queue_rows, dtype=np.intc)
    out = _ensure_out(args)
    write_matrix_csv(out / "schedule.csv", schedule.astype(int))
    write_matrix_csv(out / "model_error.csv", model_error_matrix(queue_lengths, schedule))
    write_matrix_csv(out / "queue_lengths.csv", queue_lengths)
    write_decision_trace_csv(out / "decisions.csv", record.decision_trace)
    slow = sum(1 for rec in record.decision_trace if rec.provenance is Provenance.SLOW_MIND)
    print(
        f"traced dmwm on {name} (seed {args.seed}, run {args.run_index}): "
        f"{slow}/{cfg.steps} slots planned, throughput {record.metrics.throughput:.4f} pkt/slot"
    )
    print(f"wrote schedule.csv, model_error.csv, queue_lengths.csv, decisions.csv in {out}")
    return 0


def cmd_scenario_show(args: argparse.Namespace) -> int:
    name, cfg = _resolve_scenario(args.name)
    _warn_if_never_planned(name, DmwmScheduler(cfg))
    print(json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmind",
        description="Slotted-access scheduling testbed: rollout planner, baselines, digital twin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by subcommands, each declared once
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42)
    seeded.add_argument("--out", default=_default_out(), help=f"output dir (or ${OUT_DIR_ENV})")
    grid = argparse.ArgumentParser(add_help=False, parents=[seeded])
    grid.add_argument("--runs", type=int, default=30)
    grid.add_argument("--steps", type=int, default=None, help="override slots per run")
    grid.add_argument("--workers", type=int, default=1)

    run_p = sub.add_parser("run", parents=[grid], help="run one policy on one scenario")
    run_p.add_argument("--scenario", default="default", help="builtin name or scenario JSON file")
    run_p.add_argument("--policy", default="dmwm", choices=POLICY_NAMES)
    run_p.add_argument("--horizon", type=int, default=None, help="override planning horizon")
    run_p.set_defaults(func=cmd_run)

    camp_p = sub.add_parser(
        "campaign", parents=[grid], help="run every builtin scenario against every policy"
    )
    camp_p.set_defaults(func=cmd_campaign)

    trace_p = sub.add_parser(
        "trace", parents=[seeded], help="export one dmwm run's schedule and model-error data"
    )
    trace_p.add_argument("--scenario", default="default")
    trace_p.add_argument("--run-index", type=int, default=0)
    trace_p.set_defaults(func=cmd_trace)

    scen_p = sub.add_parser("scenario", help="scenario management")
    scen_sub = scen_p.add_subparsers(dest="action", required=True)
    show_p = scen_sub.add_parser("show", help="print the resolved scenario config as JSON")
    show_p.add_argument("name")
    show_p.set_defaults(func=cmd_scenario_show)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # InvalidConfig, UnknownScenario and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
