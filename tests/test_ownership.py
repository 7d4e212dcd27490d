"""Each ensemble decision has one owner: only ``dist`` opens substreams (in
``map_blocks``), and no module of ``iterlog`` reaches into another's
``_``-prefixed names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iterlog"
MODULES = sorted(PACKAGE.glob("*.py"))


def _name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def substream_openings(tree: ast.AST) -> list[int]:
    """Lines of ``RngStream(...)`` calls with a third argument, and of any ``substream=``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ((_name(node.func) == "RngStream" and len(node.args) >= 3)
             or any(kw.arg == "substream" for kw in node.keywords))
    )


def private_reaches(tree: ast.AST) -> list[str]:
    """``_``-prefixed names of other iterlog modules that a module imports or uses."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("iterlog")):
            for alias in node.names:
                if node.module is None or node.module == "iterlog":
                    modules.add(alias.asname or alias.name)  # from . import cmj
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dist.py"], ids=lambda p: p.name)
def test_only_dist_opens_substreams(path):
    assert substream_openings(_tree(path)) == [], f"{path.name} opens a substream; use dist.map_blocks"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_reaches(_tree(path)) == []


def test_detectors_catch_both_patterns():
    bad = ast.parse(
        "from . import cmj, renewal\n"
        "from .gauss import _weights\n"
        "rng = RngStream(seed, index, b).generator()\n"
        "other = dist.RngStream(seed, 0, substream=2)\n"
        "renewal._check_guard(1, 2)\n"
        "fn = cmj._path_rows\n"
    )
    assert substream_openings(bad) == [3, 4]
    assert sorted(private_reaches(bad)) == ["cmj._path_rows", "gauss._weights", "renewal._check_guard"]
