"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads campaign,planner_scale --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record "before: <commit>"
    python3 perfbench/spread.py --seeds 42 --trace

Run from the repository root. The spread of an end-to-end metric is the
distance between the first and third quartiles of its per-seed values, as a
share of their median; it is steady when its spread is below a third of its
bound in BENCHMARK.json. --record appends the medians and every per-seed
value to perfbench/baseline.json, writing its machine header first if absent.
--trace adds one traced run per workload and its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def machine_info() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload traced once, at the first seed")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    section = spec["end_to_end"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    entry = {"label": args.record, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in section}
        elapsed = []
        for seed in seeds:
            result, seconds = run_once(workload, seed, spec["run_seconds"])
            elapsed.append(seconds)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(seeds)} runs, {min(elapsed):.1f}-{max(elapsed):.1f} s each")
        rows = {}
        for m in section:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            ok = share < m["bound"] / 3
            steady &= ok or m["name"] == "setup_s"
            flag = "ok" if ok else "WIDE"
            print(f"  {m['name']:<24} median {med:<12.6g} {m['unit']:<8} spread {share:7.2%}  "
                  f"bound {m['bound']:<5} {flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "values": vals}
        entry["workloads"][workload] = rows
        if args.trace:
            result, _ = run_once(workload, seeds[0], spec["run_seconds"], trace=1)
            layers = {name: got["value"] for name, got in result["metrics"].items()}
            for m in spec["per_layer"]:
                print(f"  {m['name']:<32} {layers[m['name']]:<14.6g} {m['unit']}")
            entry.setdefault("per_layer", {})[workload] = layers
    if args.record:
        doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        doc.setdefault("machine", machine_info())
        doc.setdefault("entries", []).append(entry)
        BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
