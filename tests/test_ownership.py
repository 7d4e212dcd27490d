"""Each ensemble decision has one owner: only ``dist`` opens substreams (in
``map_blocks``), no module of ``iterlog`` reaches into another's
``_``-prefixed names, and names kept only for the benchmark harness (the
single-replica samplers and the two-call perturbed table chain) have no
caller in the package."""

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


#: Names kept only for ``perfbench/``, and the module that defines each.
PERFBENCH_ONLY = {
    "grow_yule": "rrt.py",
    "grow_discrete": "rrt.py",
    "sample_bm": "gauss.py",
    "b2k": "gauss.py",
    "renewal_sequence": "renewal.py",
    "perturbed_table": "renewal.py",
    "convolve_levels": "renewal.py",
}


def perfbench_only_uses(tree: ast.AST, module: str) -> list[str]:
    """``PERFBENCH_ONLY`` names that a module imports, reads or calls outside
    the module defining them; ``__init__`` may import them to export them."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and module == "__init__.py":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            found.append(_name(node))
    return [name for name in found if PERFBENCH_ONLY.get(name, module) != module]


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


def test_no_module_uses_a_name_kept_only_for_perfbench():
    """``iterlog rrt`` draws its trees through ``rrt.sample_profiles``, check
    c8b its sum through ``gauss.b2k_ensemble``, and ``iterlog renewal --eta``
    and check c3 their perturbed tables through ``renewal_table(law, K, N, eta)``,
    so nothing in the package uses the single-replica samplers or the
    ``renewal_sequence`` -> ``perturbed_table`` -> ``convolve_levels`` chain.
    They are still defined and exported only because the benchmark harness
    (``perfbench/`` and its tests) calls them; ROADMAP items 2 and 6 delete them
    once item 1 moves the harness off them."""
    uses = {p.name: perfbench_only_uses(_tree(p), p.name) for p in MODULES}
    assert {name: found for name, found in uses.items() if found} == {}
    bad = ast.parse("from .rrt import grow_yule\npath = gauss.sample_bm(1.0, 0.1, s)\nb2k(path, fk, 1.0)\n")
    assert perfbench_only_uses(bad, "cli.py") == ["grow_yule", "sample_bm", "b2k"]
    assert perfbench_only_uses(bad, "__init__.py") == ["sample_bm", "b2k"]
    assert perfbench_only_uses(bad, "gauss.py") == ["grow_yule"]
    chain = ast.parse("t = renewal.convolve_levels(perturbed_table(renewal_sequence(law, n), d, eta, n, mu), 2)\n")
    assert sorted(perfbench_only_uses(chain, "verify.py")) == ["convolve_levels", "perturbed_table", "renewal_sequence"]
    assert perfbench_only_uses(chain, "renewal.py") == []
