"""Each ensemble decision has one owner: only ``dist`` opens substreams (in
``map_blocks``), only the ``cmj`` and ``gauss`` ensembles dispatch blocks
through it, only ``dist.draw_rows`` splits a sampler's rows into chunks, only
``dist.geometric_lattice`` records a law's geometric parameter (so a
``lattice:`` law never takes the simulator's binomial last generation), no
module of ``iterlog`` reaches into another's ``_``-prefixed names, and names
kept only for the benchmark harness (the single-replica samplers and the
two-call perturbed table chain) have no caller in the package."""

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


def calls(tree: ast.AST, name: str) -> list[int]:
    """Lines of ``name(...)`` calls, by bare or dotted name."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and _name(node.func) == name)


def chunk_steps(tree: ast.AST) -> list[int]:
    """Lines that divide ``BLOCK_DRAWS`` by a row's cells, ``BLOCK_DRAWS // cells``: the step of a chunk loop."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and _name(node.left) == "BLOCK_DRAWS"
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


def recorded_p_setters(tree: ast.AST) -> list[str]:
    """Enclosing functions (``<module>`` at top level) of each statement or call that
    sets ``geometric_p``: an assignment to ``x.geometric_p``, a ``setattr`` or
    ``__setattr__`` naming it, or a ``geometric_p=`` keyword."""

    def sets(node: ast.AST) -> bool:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return any(isinstance(t, ast.Attribute) and t.attr == "geometric_p" for t in targets)
        if isinstance(node, ast.Call):
            named = _name(node.func) in ("setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value == "geometric_p" for a in node.args
            )
            return named or any(kw.arg == "geometric_p" for kw in node.keywords)
        return False

    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if sets(child):
                found.append(where)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, "<module>")
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
    "bernoulli_level1_sample": "rrt.py",
}


def perfbench_only_uses(tree: ast.AST, module: str) -> list[str]:
    """``PERFBENCH_ONLY`` names that a module imports, reads or calls outside
    the module defining them."""
    found = []
    for node in ast.walk(tree):
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


def test_only_the_ensembles_dispatch_blocks():
    """Checks and commands draw through ``cmj``'s and ``gauss``'s ensembles or
    ``rrt.sample_profiles``; none of them hands blocks to ``map_blocks`` itself."""
    assert [p.name for p in MODULES if calls(_tree(p), "map_blocks")] == ["cmj.py", "gauss.py"]
    bad = ast.parse("rows = map_blocks(fn, s, 10, 5)\nx = 1\nrows = dist.map_blocks(fn, s, 10, 5)\n")
    assert calls(bad, "map_blocks") == [1, 3]


def test_only_dist_chunks_rows():
    """The tree and Gaussian samplers chunk their rows through ``dist.draw_rows``,
    and no other module sizes a chunk of rows from ``BLOCK_DRAWS // cells``.
    ``renewal.subadditivity_sweep`` also steps by ``BLOCK_DRAWS // cells``, but
    through the lags of a table it already holds: it draws nothing, and each
    block needs its first lag, which ``draw_rows`` does not hand its ``fn``."""
    assert [p.name for p in MODULES if calls(_tree(p), "draw_rows")] == ["gauss.py", "rrt.py"]
    assert [p.name for p in MODULES if chunk_steps(_tree(p))] == ["dist.py", "renewal.py"]
    bad = ast.parse(
        "step = max(1, dist.BLOCK_DRAWS // n)\n"
        "rows = draw_rows(fn, rng, 10, n)\n"
        "sizes = [min(step, rows - s) for s in range(0, rows, BLOCK_DRAWS // cells)]\n"
        "out = dist.draw_rows(fn, rng, 10, n)\n"
        "block = int(BLOCK_DRAWS / births)\n"
    )
    assert calls(bad, "draw_rows") == [2, 4]
    assert chunk_steps(bad) == [1, 3]


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
    Check c7b draws its one sample through ``rrt.sample_profiles`` too, and
    tests it against the exact law of ``rrt.enumerate_profiles``:
    ``bernoulli_level1_sample`` is level 1 of that sampler, draw for draw.
    They are still defined only because the benchmark harness
    (``perfbench/`` and its tests) calls them; ROADMAP items 2 and 6 delete them
    once item 1 moves the harness off them."""
    uses = {p.name: perfbench_only_uses(_tree(p), p.name) for p in MODULES}
    assert {name: found for name, found in uses.items() if found} == {}
    bad = ast.parse("from .rrt import grow_yule\npath = gauss.sample_bm(1.0, 0.1, s)\nb2k(path, fk, 1.0)\n")
    assert perfbench_only_uses(bad, "cli.py") == ["grow_yule", "sample_bm", "b2k"]
    assert perfbench_only_uses(bad, "__init__.py") == ["grow_yule", "sample_bm", "b2k"]
    assert perfbench_only_uses(bad, "gauss.py") == ["grow_yule"]
    chain = ast.parse("t = renewal.convolve_levels(perturbed_table(renewal_sequence(law, n), d, eta, n, mu), 2)\n")
    assert sorted(perfbench_only_uses(chain, "verify.py")) == ["convolve_levels", "perturbed_table", "renewal_sequence"]
    assert perfbench_only_uses(chain, "renewal.py") == []
    level1 = ast.parse("bern = rrt.bernoulli_level1_sample(50, s, 100)\n")
    assert perfbench_only_uses(level1, "verify.py") == ["bernoulli_level1_sample"]
    assert perfbench_only_uses(level1, "rrt.py") == []


def test_only_geometric_lattice_records_p():
    """``cmj`` draws a walk's last generation as one binomial only for a law whose
    ``geometric_p`` is set, and only ``dist.geometric_lattice`` sets it: a
    ``lattice:`` law with a geometric-looking pmf is walked to the end."""
    found = {p.name: recorded_p_setters(_tree(p)) for p in MODULES}
    assert {name: where for name, where in found.items() if where} == {"dist.py": ["geometric_lattice"]}
    bad = ast.parse(
        "def parse(law, p):\n"
        "    law.geometric_p = p\n"
        "    object.__setattr__(law, 'geometric_p', p)\n"
        "    return law\n"
        "law = dataclasses.replace(law, geometric_p=0.5)\n"
        "setattr(law, 'geometric_p', 0.5)\n"
        "p = law.geometric_p\n"
    )
    assert recorded_p_setters(bad) == ["parse", "parse", "<module>", "<module>"]
