"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2  # the library example and the stepping loop
    monkeypatch.chdir(tmp_path)  # an example that writes files writes them here
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {number}", "exec"), {"__name__": "readme"})
