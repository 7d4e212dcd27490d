"""Acceptance suite: each numbered criterion at its stated tolerance.

Every test prints one `ACCEPTANCE ...` line (visible with pytest -s or in
failure output) and asserts both the gate and its runtime budget.

Criterion 3's k=2 gate as literally stated (target +0.25) is kept and marked
strict-xfail: the exact perturbed tables force -0.25 (the recursion behind
the lattice constant telescopes with a minus sign; see the unit-step law,
whose binomial tables give -1/2 where the stated form predicts +1/2).  The
machinery is instead gated against the table-validated constant.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from iterlog import cmj, renewal, verify
from iterlog.dist import geometric_lattice
from iterlog.renewal import convolve_levels, perturbed_table, renewal_sequence

SEED = 7


def _run(name: str, criterion: str):
    start = time.perf_counter()
    results = verify.run_check(name, SEED)
    elapsed = time.perf_counter() - start
    budget = verify.CHECKS[name][1]
    ok = all(r.passed for r in results if r.gated)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, [r.name for r in results if r.gated and not r.passed]
    assert elapsed < budget
    return results


def test_criterion_01_exact_convolution_vs_binomials():
    _run("c1", "criterion 1 (V_k = binomial for unit steps)")


def test_criterion_02_leading_ratio():
    _run("c2", "criterion 2 (V_k(N) k! mu^k / N^k -> 1)")


def test_criterion_03_lattice_constant():
    results = _run("c3", "criterion 3 (perturbed-chain second order)")
    by_name = {r.name: r for r in results}
    assert by_name["c3_constant_k1"].computed <= 1e-9
    k2 = by_name["c3_constant_k2"]
    assert abs(k2.computed / k2.target - 1.0) <= 0.02


@pytest.mark.xfail(
    strict=True,
    reason="stated target +0.25 contradicts the exact convolution table (-0.25); "
    "kept as stated for the record -- see the gated table-validated check",
)
def test_criterion_03_k2_as_stated():
    law = geometric_lattice(0.5)
    mu = law.moments().mean
    n = 4000
    table = convolve_levels(
        perturbed_table(renewal_sequence(law, n), law.span, law, n, mu), 2
    )
    normalized = (table.level(2)[n] - n**2 / (2.0 * mu**2)) * mu / n
    print(f"ACCEPTANCE criterion 3 (k=2 as stated): computed {normalized:.6f} vs +0.25")
    assert abs(normalized / 0.25 - 1.0) <= 0.02


def test_criterion_04_subadditivity_sweep():
    _run("c4", "criterion 4 (increment bound, full grid)")


def test_criterion_05_renewal_clt():
    results = _run("c5", "criterion 5 (statistic variance/mean, R=2e4)")
    for r in results:
        if "variance" in r.name:
            assert 0.9 <= r.computed <= 1.1
        else:
            assert abs(r.computed) <= 0.05


def test_criterion_06_decomposition():
    results = _run("c6", "criterion 6 (I+J identity, subtree-noise trend)")
    by_name = {r.name: r for r in results}
    assert by_name["c6_identity"].computed <= 1e-9
    medians = by_name["c6_subtree_trend"].computed
    assert medians[0] > medians[1] > medians[2]


def test_criterion_07_rrt_gates():
    results = _run("c7", "criterion 7 (profile TV, level-1 law, mean)")
    by_name = {r.name: r for r in results}
    assert by_name["c7_profile_tv"].computed < 0.02
    assert by_name["c7_level1_chi2"].computed > 0.01
    assert by_name["c7_level1_mean"].computed <= 4.0


def test_criterion_08_gaussian_variances():
    results = _run("c8", "criterion 8 (weighted-sum variance identities)")
    by_name = {r.name: r for r in results}
    assert abs(by_name["c8_b1_variance"].computed / (1000.0 / 3.0) - 1.0) <= 0.03
    assert by_name["c8_b2_exponential_zero"].computed == 0.0
    lattice = by_name["c8_b2_lattice_variance"]
    assert abs(lattice.computed / lattice.target - 1.0) <= 0.05


#: The standing findings: a gated result that fails by chance at one seed, with what it computes there.
STANDING_FINDINGS = [
    ("c6", 15, "c6_subtree_trend", [0.06981999874545257, 0.02847095220845597, 0.028624026864408732]),
    ("c7", 37, "c7_level1_chi2", 0.0014809580392406035),
    ("c8", 38, "c8_b1_variance", 343.8840583614222),
]


@pytest.mark.parametrize("name, seed, failing, computed", STANDING_FINDINGS, ids=[f[0] for f in STANDING_FINDINGS])
def test_standing_findings(name, seed, failing, computed):
    # exactly the recorded gate fails, every other gated result of the run passes, and the failing value
    # is the recorded one: a change of draws shows here as a changed finding, not as a moved gate
    results = verify.run_check(name, seed)
    gated = {r.name: r for r in results if r.gated}
    assert len(gated) > 1 and [n for n, r in gated.items() if not r.passed] == [failing]
    assert gated[failing].computed == computed


#: sha256 of the seed-7 fast and full reports' ``to_json()``
FAST_SEED7_SHA256 = "be1f15d98a0f0951e76f978f2cf87478aacd1d8c201fc46909d43b70d0863381"
FULL_SEED7_SHA256 = "d72db9379fcde13f84e0186db1dbee6bd9e4acde7efabbf99f035199bfc74c39"


def test_criterion_09_determinism(monkeypatch):
    start = time.perf_counter()
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    first = verify.run_suite("fast", SEED).to_json()
    second = verify.run_suite("fast", SEED).to_json()
    monkeypatch.setenv("ITERLOG_THREADS", "8")
    third = verify.run_suite("fast", SEED).to_json()
    elapsed = time.perf_counter() - start
    ok = first == second == third
    print(f"ACCEPTANCE criterion 9 (byte-identical reports): {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert first == second
    assert first == third
    # a change of draws or of a report's format re-pins this and says so
    assert hashlib.sha256(first.encode()).hexdigest() == FAST_SEED7_SHA256


def test_criterion_10_limit_claims_are_report_only(tmp_path):
    # the almost-sure limit band is out of reach at any feasible horizon:
    # the iterated logarithm is still only ~2.2 at t = 1e4
    assert math.log(math.log(1e4)) < 2.3
    for name in ("r_lil", "r_rrt"):
        results = verify.run_check(name, SEED)
        for r in results:
            assert not r.gated
            assert np.isfinite(list(r.computed.values())).all()
    # the report plot carries the +-1 reference lines
    from iterlog.plot import Series, emit_plot

    grid, stats = verify.lil_extrema_series(SEED, replicas=20)
    path = tmp_path / "extrema.svg"
    emit_plot(
        [Series(grid, stats.max(axis=0)), Series(grid, stats.min(axis=0))],
        str(path),
        ref_lines=(-1.0, 1.0),
        log_x=True,
    )
    assert path.read_text().count('class="reference"') == 2
    print("ACCEPTANCE criterion 10 (report-only limit claims): PASS")


def test_acceptance_gate_composition():
    # the gated fast+c5 set is exactly the executable criteria 1-8
    report = verify.run_suite("full", SEED)
    gated = {c.name for c in report.checks if c.gated}
    assert gated == {
        "c1_exact_convolution",
        "c2_elementary_ratio",
        "c3_constant_k1",
        "c3_constant_k2",
        "c4_subadditivity_geometric",
        "c4_subadditivity_two_point",
        "c5_clt_variance_k1",
        "c5_clt_mean_k1",
        "c5_clt_variance_k2",
        "c5_clt_mean_k2",
        "c5_clt_variance_k3",
        "c5_clt_mean_k3",
        "c6_identity",
        "c6_subtree_trend",
        "c7_profile_tv",
        "c7_level1_chi2",
        "c7_level1_mean",
        "c8_b1_variance",
        "c8_b2_exponential_zero",
        "c8_b2_lattice_variance",
    }
    assert report.passed
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == FULL_SEED7_SHA256


def _nan_at(index, field=None):
    """Writes a NaN at ``index`` of a result (of its ``field``, if named); each
    call returns a fresh result, so no other caller sees it."""

    def poison(result):
        (getattr(result, field) if field else result)[index] = math.nan
        return result

    return poison


#: check, its gated result, and the module function whose result gets one NaN
NAN_INJECTIONS = [
    ("c1", "c1_exact_convolution", renewal, "renewal_table", _nan_at((1, 5), "values")),  # V_2(5)
    ("c2", "c2_elementary_ratio", renewal, "renewal_table", _nan_at((2, 4000), "values")),  # V_3(4000)
    ("c6", "c6_identity", cmj, "decomposition_ensemble", _nan_at((3, 1))),  # J_2 of one replica
]


@pytest.mark.parametrize("check, name, module, attr, poison", NAN_INJECTIONS, ids=[n[0] for n in NAN_INJECTIONS])
def test_nan_fails_the_gate(monkeypatch, check, name, module, attr, poison):
    # a NaN deviation is no deviation to Python's max, so a gate folded that way passed it
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args, **kwargs: poison(original(*args, **kwargs)))
    (result,) = [r for r in verify.run_check(check, SEED) if r.name == name]
    assert not result.passed
