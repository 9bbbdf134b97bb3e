"""The README's Python examples run as written, and its flags and dotted names exist."""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import dualmind
from dualmind import BUILTIN_SCENARIOS, DmwmScheduler, builtin_scenario, reset, run_episode
from dualmind.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # the library example and the stepping loop
    monkeypatch.chdir(tmp_path)  # an example that writes files writes them here
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {number}", "exec"), {"__name__": "readme"})


def _option_strings(parser):
    """Every option string of parser and of its subparsers, at any depth."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def test_readme_flags_are_cli_options():
    lines = [line for line in README.read_text().splitlines() if "pip install" not in line]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(lines)))
    assert "--seed" in flags  # the pattern finds the README's flags
    assert flags <= _option_strings(build_parser())


def test_readme_dotted_names_resolve():
    # backticked names outside code blocks, such as `twin.step` or `DmwmScheduler.plans`
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    names = {name for span in spans for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.\w+)+", span)}
    modules = {info.name for info in pkgutil.iter_modules(dualmind.__path__)}
    cfg = builtin_scenario("default")
    instances = {"DmwmScheduler": DmwmScheduler(cfg), "TwinState": reset(cfg)}  # some attributes are per instance
    checked = set()
    for name in sorted(names):
        head, *attributes = name.split(".")
        if head in modules:
            target = importlib.import_module(f"dualmind.{head}")
        elif isinstance(getattr(dualmind, head, None), type):
            target = instances.get(head, getattr(dualmind, head))
        else:
            continue  # a file name or another library's name
        for attribute in attributes:
            assert hasattr(target, attribute), name
            target = getattr(target, attribute)
        checked.add(name)
    assert {"twin.step", "core.MAX_RATE", "DmwmScheduler.plans", "TwinState.expiring"} <= checked


def test_readme_memo_hit_rates_match_the_seed_42_runs():
    # a planning scheduler consults its memo once a slot and adds one entry per miss
    prose = " ".join(README.read_text().split())
    claim = re.search(
        r"answers (\d+)% of bursty's searches from the memo, (\d+)% of default's and (\d+)% of deadline's", prose
    )
    assert claim is not None
    stated = dict(zip(("bursty", "default", "deadline"), map(int, claim.groups())))
    measured = {}
    for name in BUILTIN_SCENARIOS:
        cfg = builtin_scenario(name)
        consulted = missed = 0
        for run_index in range(30):
            scheduler = DmwmScheduler(cfg)
            run_episode(cfg, scheduler, run_index, scenario=name)
            consulted += cfg.steps if scheduler.plans else 0
            missed += len(scheduler.memo)
        if name == "interference":  # the 5-ring never plans, so it never consults the memo
            assert consulted == missed == 0
        else:
            measured[name] = round(100 * (consulted - missed) / consulted)
    assert measured == stated
