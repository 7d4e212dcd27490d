"""Per-layer metrics from the spans of one traced pass.

Span-derived metrics are 0 on a workload that never calls the function they
time or count (for example ``renewal.csv_s`` outside ``tables``).  Probe
metrics (``probes.py``) have a value on every workload.
"""

from __future__ import annotations

import math
import statistics
import sys

from oracles import VERIFY_CHECKS
from spans import duration, layer
from workloads import REPLICAS, TABLE_SIZES

_TABLE_BUILDERS = ("renewal.renewal_table", "renewal.perturbed_table", "renewal.convolve_levels")
_CHAIN = ("renewal.renewal_sequence", "renewal.perturbed_table", "renewal.convolve_levels")
_GROWERS = ("rrt.grow_yule", "rrt.grow_discrete", "rrt.sample_profiles")
_GAUSS_ENSEMBLES = ("gauss.b1k_ensemble", "gauss.b2k_ensemble")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def outer(self, names) -> list[list]:
        """Spans of ``names`` not nested inside another span of the same layer."""
        names = set(names)
        out = []
        for s in self.spans:
            if s[2] not in names:
                continue
            parent = self.by_id.get(s[1])
            if parent is None or layer(parent[2]) != layer(s[2]):
                out.append(s)
        return out

    def total(self, names) -> float:
        return sum(duration(s) for s in self.outer(names))

    def count(self, names, key: str) -> int:
        return sum((s[5] or {}).get(key, 0) for s in self.outer(names))

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[2] == name]

    def in_job(self, job: str, name: str) -> list[list]:
        jobs = self.named(f"bench.{job}")
        return [c for j in jobs for c in self.children.get(j[0], []) if c[2] == name]

    def self_time(self, span: list) -> float:
        return duration(span) - sum(duration(c) for c in self.children.get(span[0], []))


def from_spans(spans: list[list]) -> dict[str, float]:
    idx = SpanIndex(spans)
    out: dict[str, float] = {}

    out["renewal.table_s"] = idx.total(["renewal.renewal_table"])
    out["renewal.perturbed_s"] = idx.total(_CHAIN)
    out["renewal.sweep_s"] = idx.total(["renewal.subadditivity_sweep"])
    out["renewal.csv_s"] = idx.total(["renewal.write_table_csv"])
    out["renewal.cells"] = idx.count(_TABLE_BUILDERS, "cells")
    out["cells_per_s"] = _ratio(out["renewal.cells"], out["renewal.table_s"] + out["renewal.perturbed_s"])
    for n in TABLE_SIZES:
        built = idx.in_job(f"pmf3_n{n}", "renewal.renewal_table")
        cells = sum(s[5]["cells"] for s in built)
        out[f"renewal.ns_per_cell.n{n}"] = _ratio(sum(duration(s) for s in built), cells) * 1e9

    for name in REPLICAS:
        out[f"cmj.ensemble_s.{name}"] = sum(duration(s) for s in idx.in_job(name, "cmj.monte_carlo"))
    out["cmj.births"] = idx.count(["cmj.monte_carlo"], "births")
    out["cmj.replicas"] = idx.count(["cmj.monte_carlo", "cmj.decomposition_ensemble"], "replicas")
    out["births_per_s"] = _ratio(out["cmj.births"], idx.total(["cmj.monte_carlo"]))

    yule = idx.named("rrt.grow_yule")
    out["rrt.grow_yule_us"] = statistics.median(duration(s) for s in yule) * 1e6 if yule else 0.0
    out["rrt.profile_vertices_per_s"] = _ratio(idx.count(_GROWERS, "vertices"), idx.total(_GROWERS))

    drawers = _GAUSS_ENSEMBLES + ("gauss.sample_bm",)
    out["gauss.ensemble_s"] = idx.total(_GAUSS_ENSEMBLES)
    out["gauss.normals"] = idx.count(drawers, "normals")
    out["gauss.normals_per_s"] = _ratio(out["gauss.normals"], idx.total(drawers))

    checks = []
    for c in VERIFY_CHECKS:
        spans_c = idx.named(f"verify.{c}")
        checks += spans_c
        out[f"verify.check_s.{c}"] = sum(duration(s) for s in spans_c)
    out["verify.self_s"] = sum(idx.self_time(s) for s in checks)
    return out


def per_layer(
    spans: list[list],
    probes: dict,
    outcomes: dict,
    extra: dict,
    *,
    import_s: float,
    overhead_s: float,
    failed: int,
    attempted: int,
) -> dict[str, float]:
    """Every per-layer value of a traced run.

    ``error_rate`` counts the lattice-span probe's mismatching horizons as
    failed operations (``extra`` holds them on ``branching``).
    """
    out = from_spans(spans)
    out.update(probes)
    fraction = [o.value for group in outcomes.values() for o in group if o.name.endswith(".fraction")]
    out["renewal.oracle_max_rel_err"] = max(fraction, default=0.0)
    out["cli.import_s"] = import_s
    out["trace.overhead_s"] = overhead_s
    mismatches = extra.get("span_probe_mismatches", 0)
    out["error_rate"] = (failed + mismatches) / (attempted + extra.get("span_probe_horizons", 0))
    return out


def wall_s(passes: list[dict]) -> float:
    """Sum over jobs of each job's median time across passes."""
    return sum(statistics.median(p[job] for p in passes) for job in passes[0])


def result_line(wanted: list[dict], values: dict, failed: int, attempted: int) -> dict:
    """The result-line object; raises KeyError naming unmeasured metrics."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(missing)

    def finite(v: float) -> float:
        # a broken result can make an error ratio infinite; keep the line valid JSON
        return v if math.isfinite(v) else sys.float_info.max

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": finite(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
