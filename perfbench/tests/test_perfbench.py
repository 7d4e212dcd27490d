"""Tests of the benchmark itself: metric coverage, oracles, bare-directory refusal.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from iterlog import cmj, dist, gauss, renewal, rrt, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metric names that later changes refer to, with their units.
REQUIRED_END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "error_rate": "fraction",
    "peak_rss_mb": "MiB",
    "cells_per_s": "1/s",
    "births_per_s": "1/s",
}
REQUIRED_PER_LAYER = (
    ["dist.stream_setup_us"]
    + [f"dist.draw_ns.{law}.{b}" for law in ("exp", "lattice") for b in ("b64", "b65536")]
    + ["renewal.table_s", "renewal.perturbed_s", "renewal.sweep_s", "renewal.csv_s", "renewal.cells"]
    + [f"renewal.ns_per_cell.n{n}" for n in (1000, 4000, 16000)]
    + ["renewal.oracle_max_rel_err"]
    + [f"cmj.replica_us.{e}" for e in ("exp", "geom", "geom_eta")]
    + [f"cmj.ensemble_s.{e}" for e in ("exp", "geom", "geom_eta")]
    + ["cmj.parallel_efficiency", "cmj.pool_overhead_s", "cmj.births", "cmj.replicas"]
    + ["cmj.span_probe_mismatches", "rrt.grow_yule_us", "rrt.profile_vertices_per_s"]
    + ["gauss.normals_per_s", "gauss.ensemble_s", "gauss.normals"]
    + [f"verify.check_s.{c}" for c in ("c1", "c2", "c3", "c4", "c6", "c7", "c8")]
    + ["verify.self_s", "cli.import_s", "trace.overhead_s"]
)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


# ---------------------------------------------------------------------------
# metric coverage
# ---------------------------------------------------------------------------


def test_every_required_metric_is_in_benchmark_json_with_its_unit():
    listed = {**_units("end_to_end"), **_units("per_layer")}
    for name, unit in REQUIRED_END_TO_END.items():
        assert listed.get(name) == unit, name
    for name in REQUIRED_PER_LAYER:
        assert name in listed, name
    assert "setup_s" in _units("end_to_end")
    assert [w["name"] for w in SPEC["workloads"]] == ["tables", "branching", "verify_fast"]


def test_end_to_end_line_has_every_metric_with_its_unit():
    passes = [{"a": 1.0, "b": 5.0}, {"a": 3.0, "b": 4.0}, {"a": 2.0, "b": 9.0}]
    values = {"wall_s": metrics.wall_s(passes), "setup_s": 0.6, "peak_rss_mb": 120.0}
    line = metrics.result_line(SPEC["end_to_end"], values, failed=0, attempted=3)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")
    assert line["metrics"]["wall_s"]["value"] == 2.0 + 5.0
    with pytest.raises(KeyError):
        metrics.result_line(SPEC["end_to_end"], {"wall_s": 1.0}, failed=0, attempted=1)


def _traced_calls(tracer):
    """A few real calls into every layer, inside bench.<job> spans."""
    three = dist.parse_law("lattice:d=1;p=0.25,0.5,0.25")
    geom = dist.parse_law("geom:p=0.5")
    tracer.call("bench.pmf3_n1000", renewal.renewal_table, three, 3, 1000)
    u = renewal.renewal_sequence(geom, 50)
    renewal.convolve_levels(renewal.perturbed_table(u, 1.0, geom, 50, 2.0), 2)
    config = cmj.SimConfig(geom, 2, 10.0, seed=1, replicas=4)
    tracer.call("bench.geom", cmj.monte_carlo, config, workers=1)
    for r in range(3):
        rrt.grow_yule(6, 6, dist.RngStream(1, r))
    gauss.b1k_ensemble(2, 1.0, 0.01, 8, dist.RngStream(1, 9))
    verify.CHECKS["c1"][0](1)


#: Per-layer values that ``metrics.per_layer`` adds next to spans and probes.
RUN_ADDED = {"renewal.oracle_max_rel_err", "cli.import_s", "trace.overhead_s", "error_rate"}


def _probe_names():
    return set(_units("per_layer")) - set(metrics.from_spans([])) - RUN_ADDED


def test_traced_run_emits_every_per_layer_metric_with_its_unit():
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        _traced_calls(tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(renewal.renewal_table, "__wrapped__")
    values = metrics.per_layer(
        tracer.spans,
        {name: 1.0 for name in _probe_names()},
        {},
        {"span_probe_mismatches": 95, "span_probe_horizons": 199},
        import_s=1.0,
        overhead_s=0.1,
        failed=0,
        attempted=5,
    )
    line = metrics.result_line(SPEC["per_layer"], values, failed=0, attempted=5)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("per_layer")
    got = {k: v["value"] for k, v in line["metrics"].items()}
    assert got["renewal.ns_per_cell.n1000"] > 0
    assert got["renewal.cells"] == 3 * 1001 + 2 * 51 + 4 * 61  # the last from c1
    assert got["cmj.ensemble_s.geom"] > 0 and got["cmj.replicas"] == 4 and got["births_per_s"] > 0
    assert got["rrt.grow_yule_us"] > 0 and got["gauss.normals"] == 8 * 100
    assert got["verify.check_s.c1"] >= got["verify.self_s"] > 0
    assert got["error_rate"] == pytest.approx(95 / 204)


def test_probes_emit_the_remaining_per_layer_metrics(monkeypatch):
    import probes

    for name, value in (("REPEATS", 1), ("STREAMS_PER_REPEAT", 10), ("REPLICA_PROBE", 2),
                        ("EFFICIENCY_REPLICAS", 64), ("EFFICIENCY_REPEATS", 1)):
        monkeypatch.setattr(probes, name, value)
    monkeypatch.setattr(probes, "DRAW_BATCHES", {64: 2, 65536: 1})
    values = probes.run(1, 2)
    assert set(values) == _probe_names()
    assert all(math.isfinite(v) for v in values.values())


# ---------------------------------------------------------------------------
# oracles reject corrupted results
# ---------------------------------------------------------------------------

THREE = [0.25, 0.5, 0.25]


@pytest.fixture(scope="module")
def three_table():
    law = dist.LatticeLaw(1.0, np.array(THREE))
    return renewal.renewal_table(law, 3, 300).values


def _perturbed(values, k, n, rel=1e-6):
    out = values.copy()
    out[k, n] *= 1.0 + rel
    return out


def test_recurrence_oracle(three_table):
    assert oracles.check_recurrence("t", three_table, THREE).ok
    assert not oracles.check_recurrence("t", _perturbed(three_table, 2, 250), THREE).ok


def test_fraction_oracle(three_table):
    from fractions import Fraction

    exact = oracles.fraction_table([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], 3, 120)
    outcome = oracles.check_fraction("t", three_table, exact)
    assert outcome.ok and outcome.value < 1e-14
    assert not oracles.check_fraction("t", _perturbed(three_table, 1, 100), exact).ok


def test_binomial_oracle():
    values = renewal.renewal_table(dist.LatticeLaw(1.0, np.array([1.0])), 3, 200).values
    assert oracles.check_binomial("u", values).ok
    assert not oracles.check_binomial("u", _perturbed(values, 2, 150)).ok


def test_ratio_and_residual_gates():
    geom = dist.geometric_lattice(0.5)
    table = renewal.renewal_table(geom, 3, 1500).values
    assert oracles.check_ratio("g", table, 2.0).ok
    assert not oracles.check_ratio("g", _perturbed(table, 2, 1500, rel=0.05), 2.0).ok
    u = renewal.renewal_sequence(geom, 400)
    chain = renewal.perturbed_table(u, 1.0, geom, 400, 2.0).values
    assert oracles.check_residual("p", chain, 2.0).ok
    assert not oracles.check_residual("p", _perturbed(chain, 0, 300), 2.0).ok
    assert oracles.check_recurrence("p", chain, geom.pmf, geom.pmf).ok


def test_sweep_oracle():
    assert oracles.check_sweep("s", (0, 0.25)).ok
    assert not oracles.check_sweep("s", (1, 0.25)).ok


def test_csv_oracle(tmp_path, three_table):
    law = dist.LatticeLaw(1.0, np.array(THREE))
    table = renewal.renewal_table(law, 3, 300)
    path = tmp_path / "t.csv"
    renewal.write_table_csv(table, str(path))
    text = path.read_text()
    assert oracles.check_csv("c", text, table.values, 1.0).ok
    row = text.split("\n")[200].split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-6))
    lines = text.split("\n")
    lines[200] = ",".join(row)
    assert not oracles.check_csv("c", "\n".join(lines), table.values, 1.0).ok


def test_clt_and_mean_gates():
    rng = np.random.default_rng(0)
    clt = rng.standard_normal((8000, 3))
    assert all(o.ok for o in oracles.check_clt("e", clt))
    assert not all(o.ok for o in oracles.check_clt("e", clt + 0.1))
    counts = rng.poisson([30.0, 450.0, 4500.0], size=(2000, 3))
    exact = np.array([30.0, 450.0, 4500.0])
    assert all(o.ok for o in oracles.check_mean("g", counts, exact))
    assert not all(o.ok for o in oracles.check_mean("g", counts, exact * 1.05))


def test_count_oracles_catch_one_count_off_by_one():
    counts = np.arange(30).reshape(10, 3)
    other = counts.copy()
    assert oracles.check_same_counts("w", counts, other).ok
    other[4, 1] += 1
    assert not oracles.check_same_counts("w", counts, other).ok
    assert not workloads.same(counts, other)
    exact = np.arange(6, dtype=np.float64)
    assert oracles.span_mismatches([1, 2, 3, 4, 5], exact) == 0
    assert oracles.span_mismatches([1, 2, 4, 4, 5], exact) == 1


def test_report_oracle():
    text = "".join(f"PASS {c}_x: computed=0 target=0 tol=0 [p]\n" for c in oracles.VERIFY_CHECKS)
    text += "INFO c3_constant_k2_as_stated: computed=0 target=0 tol=0 [p]\nPASS suite=fast seed=1\n"
    assert all(o.ok for o in oracles.check_report("v", 0, text))
    assert not all(o.ok for o in oracles.check_report("v", 1, text))
    assert not all(o.ok for o in oracles.check_report("v", 0, text.replace("PASS c7_x", "FAIL c7_x")))
    assert not all(o.ok for o in oracles.check_report("v", 0, text.replace("PASS c8_x", "INFO c8_x")))


def test_max_rel_err_requires_exact_zeros():
    assert oracles.max_rel_err(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
    assert math.isinf(oracles.max_rel_err(np.array([1e-300, 1.0]), np.array([0.0, 1.0])))


# ---------------------------------------------------------------------------
# the command refuses to run without the program
# ---------------------------------------------------------------------------


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
