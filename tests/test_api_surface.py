"""The public surface is what the program uses: every name ``iterlog`` exports
is referenced by a module of the package or by the benchmark harness, not by
tests alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iterlog"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return [alias.asname or alias.name for node in imports for alias in node.names]


def _users() -> list[Path]:
    """Package modules other than ``__init__`` and the harness's own modules (not its tests)."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return modules + sorted((ROOT / "perfbench").glob("*.py"))


def test_exports_are_found():
    assert len(_exported()) > 30


@pytest.mark.parametrize("name", _exported())
def test_export_is_used_outside_tests(name):
    use = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
    lines = [line for path in _users() for line in path.read_text(encoding="utf-8").splitlines()]
    assert any(use.search(line) and not definition.match(line) for line in lines), (
        f"{name} is exported but only its definition or tests use it"
    )
