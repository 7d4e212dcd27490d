"""The public surface is what the program uses.  A module exports its
module-level ``def``, ``class`` and assignment names without a leading ``_``,
and the package itself re-exports nothing.  Every export of every ``iterlog``
module is referenced by a line of the package or of the benchmark harness
outside its own definition, not by tests alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iterlog"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _bound(node: ast.stmt) -> list[str]:
    """Names a module-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def exports(path: Path) -> list[tuple[str, range]]:
    """(name, lines of its definition) of each public module-level binding of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(name, range(node.lineno, node.end_lineno + 1))
            for node in tree.body for name in _bound(node) if not name.startswith("_")]


EXPORTS = [(path, name, lines) for path in sorted(PACKAGE.glob("*.py")) for name, lines in exports(path)]


def test_exports_are_found():
    names = [name for _, name, _ in EXPORTS]
    assert len(names) > 60
    assert len(set(names)) == len(names)  # so a bare name identifies its test case
    assert {path.stem for path, _, _ in EXPORTS} == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def test_package_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [name for node in tree.body for name in _bound(node)] == ["__version__"]


@pytest.mark.parametrize("path, name, lines", EXPORTS, ids=[name for _, name, _ in EXPORTS])
def test_export_is_used_outside_tests(path, name, lines):
    use = re.compile(rf"\b{name}\b")
    uses = [
        (user, number)
        for user in USERS
        for number, text in enumerate(user.read_text(encoding="utf-8").splitlines(), 1)
        if use.search(text) and not (user == path and number in lines)
    ]
    assert uses, f"{path.stem}.{name} is exported but only its definition or tests use it"
