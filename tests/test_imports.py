"""Every import in the package and the tests is used, and every private helper in the package is
read: AST scans, as no linter is installed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dualmind").glob("*.py"))
# the package's __init__ imports only to re-export
FILES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import in source binds that nothing in source reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "from dataclasses import dataclass, replace\nimport os.path\n\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["replace (line 1)", "os (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport os as system\nsystem.sep\n") == []


def _bound(stmt) -> set[str]:
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {node.id for target in targets if target for node in ast.walk(target) if isinstance(node, ast.Name)}


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level names with one leading underscore that no statement of sources reads, bar their own."""
    private, read = [], set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = _bound(stmt)
            private += sorted(name for name in own if name.startswith("_") and not name.endswith("__"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):  # module._helper
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):  # from .module import _helper
                    read.update(alias.name for alias in node.names)
    return [name for name in private if name not in read]


def test_every_private_module_name_in_the_package_is_read():
    assert unread_private_names([path.read_text() for path in PACKAGE]) == []


def test_the_scan_sees_an_unread_private_name():
    core = "_LIMIT = 3\n_a, b = 1, 2\n__version__ = '1'\n\n\ndef _walk(x):\n    return _walk(x - 1) if x else _LIMIT\n"
    assert unread_private_names([core]) == ["_a", "_walk"]  # a call to itself is no read
    assert unread_private_names([core, "from .core import _walk\n"]) == ["_a"]
    assert unread_private_names([core, "from . import core\n\ncore._a + core._walk(2)\n"]) == []
