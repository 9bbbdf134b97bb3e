"""The README's Python examples run as written, and its flags exist."""

import argparse
import re
from pathlib import Path

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
