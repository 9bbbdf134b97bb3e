"""Regenerate the golden outputs in tests/golden and print the entries that changed.

    PYTHONPATH=src python tests/rewrite_goldens.py          # report only
    PYTHONPATH=src python tests/rewrite_goldens.py --write  # also rewrite the golden files

Every entry of tests/golden/sha256.json, and the seed-42 campaign's
summary.csv copy in tests/golden/campaign_seed42_summary.csv, is made afresh
in a temporary directory the way the tests make it: the commands through
dualmind.cli.main, the arrival counts through helpers.arrival_rows_text. One
line is printed per entry whose content changed. Files are written only with
--write. The test suite never runs this tool; a change that uses it should
name every changed entry and its reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

from dualmind import cli
from dualmind.core import BUILTIN_SCENARIOS, builtin_scenario
from dualmind.traffic import traffic_streams
from dualmind.twin import draw_arrivals
from helpers import GOLDEN_DIR, GOLDEN_SHA256, arrival_rows_text, sha256_of

SUMMARY_COPY = GOLDEN_DIR / "campaign_seed42_summary.csv"
CAMPAIGN = ("campaign", "--seed", "42")
RUN_COMMANDS = (
    "run --scenario deadline --policy dmwm --runs 30 --seed 42",
    "run --scenario bursty --policy qlearn --runs 5 --steps 80 --horizon 2 --seed 7",
)
ARRIVALS = "generate_arrivals seed 42 run 0"


def entries() -> dict[tuple[str, str], tuple[tuple[str, ...], str]]:
    """Every golden digest, as (key, name) in sha256.json -> (command, file).

    command is the CLI arguments, without --out, of the run that writes the
    file into its output directory, or ("arrivals", scenario) for a
    scenario's seed-42 arrival counts, written as arrivals.txt.
    """
    table = {}
    for command in (" ".join(CAMPAIGN), *RUN_COMMANDS):
        for file in ("runs.csv", "summary.csv", "summary.json"):
            table[command, file] = (tuple(command.split()), file)
    for scenario in BUILTIN_SCENARIOS:
        for file in ("decisions.csv", "schedule.csv", "model_error.csv", "queue_lengths.csv"):
            table[f"trace --seed 42 {file}", scenario] = (("trace", "--scenario", scenario, "--seed", "42"), file)
        table[ARRIVALS, scenario] = (("arrivals", scenario), "arrivals.txt")
    return table


def make(command: tuple[str, ...], out: Path) -> None:
    """Write command's files into the new directory out."""
    out.mkdir()
    if command[0] == "arrivals":
        cfg = builtin_scenario(command[1])
        rows = draw_arrivals(cfg, traffic_streams(cfg.base_seed, 0))
        (out / "arrivals.txt").write_bytes(arrival_rows_text(rows).encode("ascii"))
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        status = cli.main([*command, "--out", str(out)])
    if status != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {status}: {err.getvalue().strip()}")


def regenerate(tmp: Path) -> tuple[dict[tuple[str, str], str], bytes]:
    """Fresh digests by (key, name) as in sha256.json, and the fresh campaign summary.csv."""
    outs: dict[tuple[str, ...], Path] = {}
    digests = {}
    for entry, (command, file) in entries().items():
        if command not in outs:
            outs[command] = tmp / str(len(outs))
            make(command, outs[command])
        digests[entry] = sha256_of(outs[command] / file)
    return digests, (outs[CAMPAIGN] / "summary.csv").read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files that changed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        new, summary = regenerate(Path(tmp))
    old = {(key, name): digest for key, names in GOLDEN_SHA256.items() for name, digest in names.items()}
    every = {**old, **new}  # the committed order first
    changed = [
        f"{key} | {name}: {old.get((key, name), 'absent')} -> {new.get((key, name), 'absent')}"
        for key, name in every
        if old.get((key, name)) != new.get((key, name))
    ]
    committed, fresh = SUMMARY_COPY.read_text().splitlines(), summary.decode().splitlines()
    changed += [f"{SUMMARY_COPY.name} line {i}: {a} -> {b}" for i, (a, b) in enumerate(zip(committed, fresh), 1) if a != b]
    if len(committed) != len(fresh):
        changed.append(f"{SUMMARY_COPY.name}: {len(committed)} -> {len(fresh)} lines")
    print("\n".join(changed) if changed else "no golden entry changed")
    if changed and args.write:
        doc: dict[str, dict[str, str]] = {}
        for key, name in every:
            if (key, name) in new:
                doc.setdefault(key, {})[name] = new[key, name]
        (GOLDEN_DIR / "sha256.json").write_text(json.dumps(doc, indent=2) + "\n")
        SUMMARY_COPY.write_bytes(summary)
        print(f"wrote {GOLDEN_DIR / 'sha256.json'} and {SUMMARY_COPY}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
