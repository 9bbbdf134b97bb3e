"""dualmind benchmark: one workload per invocation, result as the last line of stdout.

    python3 perfbench/run.py --workload campaign --seed 42 --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the workload's job and its timing rounds alternate for about
--seconds and the end-to-end metrics summarise all their samples. With
--trace 1 the job runs once untraced and once traced at one worker, then the
N-scaling sweep runs; the per-layer metrics come from that. Metric names and
units are those listed in BENCHMARK.json. Every episode passes the
correctness gate (conservation, and at seed 42 the reference digest) or the
command exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9


def setup_seconds(w, seed: int) -> list[float]:
    """Fresh interpreters that import dualmind and build the workload's configs."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads; "
        f"workloads.build_scenarios(workloads.WORKLOADS[{w.name!r}], {seed})"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first start warms the file cache and is dropped
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times[1:]


def measure(w, seed: int, seconds: float, out_dir: Path, reference: str | None):
    """End-to-end metrics from about seconds of interleaved jobs and timing rounds.

    Jobs and rounds (the cell pass plus the decide pass) alternate, jobs taking
    two thirds of the time. wall_s is the mean job time and slots_per_s all
    cells' slots over their summed seconds: on a shared host that flips between
    a fast and a slow state these move with the share of time spent in each,
    where a median of a few samples jumps between the two. setup_s is the
    median start and the latency percentiles pool every decision of the run.
    """
    import workloads as wl

    setup = setup_seconds(w, seed)
    scenarios = wl.build_scenarios(w, seed)
    walls, decide = [], []
    cell_totals = {"dmwm": [0, 0.0], "baselines": [0, 0.0]}  # slots, seconds
    attempted = failed = 0
    peak_mb = None
    rounds = 0
    spent = {"job": 0.0, "round": 0.0}
    last = {"job": 0.0, "round": 0.0}
    start = perf_counter()
    while True:
        kind = "job" if spent["job"] <= 2 * spent["round"] else "round"
        if walls and decide and perf_counter() - start + last[kind] > seconds:
            break
        gc.collect()  # each unit starts from the same heap, not from the last one's garbage
        t0 = perf_counter()
        if kind == "job":
            job = wl.run_job(w, scenarios, w.workers, out_dir)
            if peak_mb is None:  # the job's own peak, before the timing rounds add theirs
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls.append(job.wall_s)
            if w.job_policies == ("dmwm",):  # a single-policy job is that policy's cell
                cell_totals["dmwm"][0] += len(job.records) * w.steps
                cell_totals["dmwm"][1] += job.call_s
            records, expected = job.records, reference
        else:
            cells, records = wl.time_cells(scenarios, w.cell_policies, w.cell_runs, w.workers)
            records += wl.decide_latencies(scenarios, w.decide_runs, decide)
            rounds += 1
            for policy, (slots, secs) in cells.items():
                total = cell_totals["dmwm" if policy == "dmwm" else "baselines"]
                total[0] += slots
                total[1] += secs
            expected = None
        attempted += len(records)
        failed += wl.count_failed(records, expected)
        job = cells = records = None  # nothing from this unit outlives it
        last[kind] = perf_counter() - t0
        spent[kind] += last[kind]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(walls),
        "slots_per_s.dmwm": cell_totals["dmwm"][0] / cell_totals["dmwm"][1],
        "slots_per_s.baselines": cell_totals["baselines"][0] / cell_totals["baselines"][1],
        "decide_ms.p50": statistics.median(decide) * 1e3,
        "decide_ms.p99": statistics.quantiles(decide, n=100)[98] * 1e3,
        "peak_rss_mb": peak_mb,
    }
    print(
        f"{w.name}: {len(walls)} jobs, {rounds} timing rounds, "
        f"{len(decide)} decide samples, {len(setup)} setup starts; "
        f"job seconds {' '.join(f'{x:.3f}' for x in walls)}",
        file=sys.stderr,
    )
    return metrics, attempted, failed


def scale_sweep(seed: int, steps: int):
    """ms per slot of dmwm and lqf, and the feasible share of candidates, over N."""
    import workloads as wl
    from dualmind import run_experiment

    metrics, records = {}, []
    for n in wl.SWEEP_NODES:
        cfg = wl.sweep_config(n, seed, steps)
        for policy in ("dmwm", "lqf"):
            t0 = perf_counter()
            recs = run_experiment(scenarios=[(f"n{n}", cfg)], policies=[policy], runs=1)
            metrics[f"scale.{policy}.ms_per_slot.n{n}"] = (perf_counter() - t0) * 1e3 / steps
            records.extend(recs)
            if policy == "dmwm":
                feasible = sum(d.feasible_count for d in recs[0].decision_trace)
                candidates = steps * comb(n, cfg.max_scheduled)
                metrics[f"scale.icn.feasible_ratio.n{n}"] = feasible / candidates
    return metrics, records


def trace(w, seed: int, out_dir: Path, reference: str | None):
    """Per-layer metrics from a traced run of the job at one worker."""
    import workloads as wl
    from tracer import Tracer, layer_metrics

    scenarios = wl.build_scenarios(w, seed)
    gc.collect()
    plain = wl.run_job(w, scenarios, 1, out_dir)
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        traced = wl.run_job(w, scenarios, 1, out_dir)
        # policies the job leaves out still get their layer measured on its configs
        extra = [p for p in wl.POLICY_NAMES if p not in w.job_policies]
        _, extra_records = wl.time_cells(scenarios, extra, w.cell_runs, 1)
    tracer.write(out_dir.parent / f"spans-{w.name}.npz")
    metrics = layer_metrics(tracer)
    metrics["harness.aggregate_s"] = traced.aggregate_s
    metrics["harness.writers_s"] = traced.writers_s
    metrics["harness.records_bytes"] = len(pickle.dumps(traced.records))
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s

    expected = wl.digest(plain.records)
    failed = wl.count_failed(plain.records, reference) + wl.count_failed(traced.records, expected)
    failed += wl.count_failed(extra_records)
    attempted = len(plain.records) + len(traced.records) + len(extra_records)
    plain = traced = extra_records = tracer = None  # keep the sweep's timings free of their heap
    gc.collect()
    sweep, sweep_records = scale_sweep(seed, w.steps)
    metrics.update(sweep)
    return metrics, attempted + len(sweep_records), failed + wl.count_failed(sweep_records)


def result_line(section: list[dict], metrics: dict, attempted: int, failed: int) -> str:
    """The result object; raises KeyError if a listed metric was not measured."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                for spec in section
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualmind" / "__init__.py").is_file():
        print("run from the repository root: src/dualmind is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = None
    if args.seed == 42:
        reference = json.loads((HERE / "reference.json").read_text())[w.reference]

    out_dir = ROOT / ".bench_out" / f"{w.name}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed = trace(w, args.seed, out_dir, reference)
        else:
            metrics, attempted, failed = measure(w, args.seed, args.seconds, out_dir, reference)
    finally:
        shutil.rmtree(out_dir)
    section = specs["per_layer"] if args.trace else specs["end_to_end"]
    print(result_line(section, metrics, attempted, failed))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
