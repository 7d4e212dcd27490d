"""Exact tables vs independent oracles: direct summation, brute convolution
powers, hand values, and the closed-form constants."""

import importlib.machinery
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iterlog
from iterlog import renewal
from iterlog.dist import LatticeLaw, SmoothLaw, geometric_lattice
from iterlog.renewal import (
    MAX_TABLE_ENTRIES,
    ExponentialRenewal,
    RenewalTable,
    _convolve_stieltjes,
    convolve_levels,
    expansion_constants,
    leading_term,
    lil_constant,
    perturbed_table,
    renewal_sequence,
    renewal_table,
    subadditivity_sweep,
    write_table_csv,
)

GEOM = geometric_lattice(0.5)
UNIT = LatticeLaw(1.0, np.array([1.0]))


def _hit_probability_oracle(pmf: np.ndarray, n_max: int) -> np.ndarray:
    """u_n = sum_j P{S_j = n} via brute-force convolution powers of the pmf."""
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    dist = np.zeros(n_max + 1)
    dist[1 : min(pmf.size, n_max) + 1] = pmf[: min(pmf.size, n_max)]
    power = dist.copy()
    for _ in range(n_max):
        u[1:] += power[1:]
        power = np.convolve(power, dist)[: n_max + 1]
    return u


def test_renewal_sequence_unit_law():
    u = renewal_sequence(UNIT, 10)
    assert np.array_equal(u, np.ones(11))


def test_renewal_sequence_geometric_vs_oracle():
    u = renewal_sequence(GEOM, 40)
    oracle = _hit_probability_oracle(GEOM.pmf, 40)
    assert np.max(np.abs(u - oracle)) < 1e-12
    assert np.max(np.abs(u[1:] - 0.5)) < 1e-12


def test_renewal_sequence_two_point_hand_values():
    u = renewal_sequence(LatticeLaw(1.0, np.array([0.5, 0.5])), 3)
    assert u[0] == 1.0
    assert u[1] == 0.5
    assert u[2] == 0.75
    assert u[3] == 0.625


def test_renewal_sequence_bounds():
    for law in (GEOM, LatticeLaw(1.0, np.array([0.2, 0.5, 0.3]))):
        u = renewal_sequence(law, 500)
        assert np.all(u >= 0.0)
        assert np.all(u <= 1.0 + 1e-12)


def test_unit_law_binomial_identity():
    table = renewal_table(UNIT, 4, 60)
    for k in range(1, 5):
        oracle = np.array([math.comb(n, k) for n in range(61)], dtype=float)
        assert np.max(np.abs(table.level(k) - oracle)) <= 1e-9


def test_level_one_passthrough():
    table = renewal_table(GEOM, 1, 50)
    extended = convolve_levels(table, 3)
    assert np.array_equal(extended.level(1), table.level(1))


def test_convolution_symmetry_both_orders():
    table = renewal_table(GEOM, 3, 2000)
    v1 = table.level(1)
    du1 = np.concatenate(([0.0], np.diff(v1)))
    for k in (2, 3):
        dk = np.concatenate(([0.0], np.diff(table.level(k - 1))))
        reversed_order = _convolve_stieltjes(dk, v1)
        forward = table.level(k)
        scale = np.maximum(np.abs(forward), 1.0)
        assert np.max(np.abs(forward - reversed_order) / scale) < 1e-9
    # convolve_levels builds level 2 by _convolve_stieltjes from a one-level table
    built = convolve_levels(renewal_table(GEOM, 1, 2000), 2).level(2)
    assert np.array_equal(_convolve_stieltjes(du1, v1), built)


def _perturbed_oracle(xi: LatticeLaw, eta: LatticeLaw, n_max: int) -> np.ndarray:
    """V*(n) = sum_j P{S_{j-1} + eta_j <= n} by brute-force convolutions."""
    out = np.zeros(n_max + 1)
    step = np.zeros(n_max + 1)
    step[1 : min(xi.pmf.size, n_max) + 1] = xi.pmf[: min(xi.pmf.size, n_max)]
    eta_pmf = np.zeros(n_max + 1)
    eta_pmf[1 : min(eta.pmf.size, n_max) + 1] = eta.pmf[: min(eta.pmf.size, n_max)]
    s_dist = np.zeros(n_max + 1)
    s_dist[0] = 1.0  # S_0 = 0
    for _ in range(1, n_max + 2):
        t_dist = np.convolve(s_dist, eta_pmf)[: n_max + 1]
        out += np.cumsum(t_dist)
        s_dist = np.convolve(s_dist, step)[: n_max + 1]
    return out


def test_perturbed_table_vs_direct_summation():
    u = renewal_sequence(GEOM, 25)
    table = perturbed_table(u, GEOM.span, GEOM, 25, GEOM.moments().mean)
    oracle = _perturbed_oracle(GEOM, GEOM, 25)
    assert np.max(np.abs(table.level(1) - oracle)) < 1e-10


def test_perturbed_equals_standard_for_matching_laws():
    # independent eta with the step law's distribution leaves the chain alone
    mu = GEOM.moments().mean
    u = renewal_sequence(GEOM, 2000)
    table = perturbed_table(u, GEOM.span, GEOM, 2000, mu)
    grid = np.arange(2001.0)
    assert np.max(np.abs(table.level(1) - grid / mu)) < 1e-9


def test_perturbed_point_mass_shift():
    # eta = d shifts by one site: V*(nd) = U((n-1)d)
    mu = GEOM.moments().mean
    u = renewal_sequence(GEOM, 100)
    big_u = np.concatenate(([1.0], 1.0 + np.cumsum(u[1:])))
    table = perturbed_table(u, 1.0, UNIT, 100, mu)
    assert np.max(np.abs(table.level(1)[1:] - big_u[:-1])) < 1e-12
    assert table.level(1)[4] == pytest.approx(2.5, abs=1e-12)


def test_perturbed_mismatched_spans():
    u = renewal_sequence(GEOM, 10)
    half = LatticeLaw(0.5, np.array([1.0]))
    for build in (lambda: perturbed_table(u, 1.0, half, 10, 2.0), lambda: renewal_table(GEOM, 3, 10, half)):
        with pytest.raises(ValueError, match="incommensurable"):
            build()


def test_perturbed_table_bad_input():
    u = renewal_sequence(GEOM, 10)
    smooth = SmoothLaw("exp", {"rate": 1.0})
    for build in (lambda: perturbed_table(u, 1.0, smooth, 10, 2.0), lambda: renewal_table(GEOM, 3, 10, smooth)):
        with pytest.raises(ValueError, match="must be lattice"):
            build()
    for build in (lambda: perturbed_table(u, 1.0, GEOM, -1, 2.0), lambda: renewal_table(GEOM, 3, -1, GEOM)):
        with pytest.raises(ValueError, match="nonnegative"):
            build()


def test_memory_guard():
    with pytest.raises(ValueError, match="horizon too large"):
        renewal_table(GEOM, 5, 50_000_000)
    # one entry over the cap is refused before anything is allocated
    u = renewal_sequence(GEOM, 10)
    tracemalloc.start()
    try:
        for build in (
            lambda: renewal_table(GEOM, 1, MAX_TABLE_ENTRIES),
            lambda: renewal_sequence(GEOM, MAX_TABLE_ENTRIES),
            lambda: perturbed_table(u, 1.0, GEOM, MAX_TABLE_ENTRIES, 2.0),
            lambda: renewal_table(GEOM, 1, MAX_TABLE_ENTRIES, GEOM),
        ):
            with pytest.raises(ValueError, match="horizon too large"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_leading_term_arrays():
    t = np.array([0.0, 0.5, 3.0, 1e4])
    for k in (1, 2, 5):
        got = leading_term(k, 1.5, t)
        assert got.tobytes() == np.array([leading_term(k, 1.5, x) for x in t.tolist()]).tobytes()
    with pytest.raises(ValueError, match="t >= 0"):
        leading_term(2, 1.0, np.array([1.0, -1e-300, 2.0]))
    with pytest.raises(ValueError, match="t >= 0"):
        leading_term(2, 1.0, -1.0)


def test_leading_term_values():
    assert leading_term(2, 1.0, 10.0) == 50.0
    assert leading_term(1, 2.0, 8.0) == 4.0
    # Poisson case identity: the level expectation is exactly the leading term
    exp_eval = ExponentialRenewal(1.0)
    assert exp_eval.at(2, 10.0) == leading_term(2, 1.0, 10.0)
    # at rate 2 the mean step is 1/2: (2 t)^k / k!
    assert ExponentialRenewal(2.0).at(3, 1.5) == pytest.approx(27.0 / 6.0, rel=1e-15)


def test_increment_against_exact_table():
    table = renewal_table(GEOM, 2, 2001)
    n = 2000
    increment = table.level(2)[n + 1] - table.level(2)[n]
    assert abs(increment / (0.25 * n) - 1.0) < 0.01


def test_second_order_exponential_vanishes():
    assert expansion_constants(3, SmoothLaw("exp", {"rate": 1.0}).moments())["b"] == 0.0


def test_lattice_constants_against_exact_tables():
    # eta = xi: second-order residual of the level tables, on three laws
    cases = [
        (GEOM, 4000),
        (UNIT, 2000),
        (LatticeLaw(1.0, np.array([0.5, 0.5])), 4000),
    ]
    for law, n in cases:
        m = law.moments()
        mu = m.mean
        u = renewal_sequence(law, n)
        table = convolve_levels(perturbed_table(u, law.span, law, n, mu), 3)
        for k in (1, 2, 3):
            c_k = expansion_constants(k, m, law.span, mu)["c_k"]
            residual = table.level(k)[n] - leading_term(k, mu, float(n))
            normalized = residual * mu ** (k - 1) * math.factorial(k - 1) / n ** (k - 1)
            if abs(c_k) > 1e-12:
                assert abs(normalized / c_k - 1.0) < 0.02
            else:
                assert abs(normalized) <= 0.5


def test_unit_law_renewal_limit_is_exact():
    # U(n) - n/mu equals its limit d/(2 mu) + E xi^2/(2 mu^2) at every site
    u = renewal_sequence(UNIT, 50)
    big_u = np.concatenate(([1.0], 1.0 + np.cumsum(u[1:])))
    assert expansion_constants(1, UNIT.moments(), 1.0)["d_lim"] == 1.0
    assert np.max(np.abs(big_u - np.arange(51.0) - 1.0)) < 1e-12


def test_two_point_renewal_limit():
    law = LatticeLaw(1.0, np.array([0.5, 0.5]))
    m = law.moments()
    u = renewal_sequence(law, 200)
    big_u = np.concatenate(([1.0], 1.0 + np.cumsum(u[1:])))
    d_lim = expansion_constants(1, m, 1.0)["d_lim"]
    assert d_lim == pytest.approx(8.0 / 9.0, abs=1e-12)
    # the defect decays geometrically; far sites sit on the limit
    assert abs(big_u[200] - 200.0 / m.mean - d_lim) < 1e-12


def test_lil_constant():
    assert lil_constant(1, 1.0, 1.0) == 1.0
    assert lil_constant(2, 1.0, 1.0) == pytest.approx(math.sqrt(3.0))
    assert lil_constant(3, 1.0, 1.0) == pytest.approx(2.0 * math.sqrt(5.0))
    m = GEOM.moments()
    assert lil_constant(1, m.mean, m.sigma) == pytest.approx(2.0, abs=1e-10)
    assert lil_constant(1, 4.0, 2.0) == pytest.approx(4.0**1.5 / 2.0)
    with pytest.raises(ValueError, match="degenerate"):
        lil_constant(1, 1.0, 0.0)


def test_subadditivity_examples():
    # unit steps, V_1(n) = n and V_2(n) = C(n, 2): at level 2 the slack is
    # x + 3h/2 + h^2/2 (25 at x = h = 5: right 60, left 35), least at x = h = 0
    table = renewal_table(UNIT, 2, 20)
    assert subadditivity_sweep(table, 2) == (0, 0.0)
    # 100 more at site 20: the pairs x + h = 20 keep h^2/2 + h/2 - 80, below zero for h = 1..12
    table.values[1, 20] += 100.0
    assert subadditivity_sweep(table, 2) == (12, -79.0)
    for k_max in (0, -1):
        with pytest.raises(ValueError, match="need k_max >= 1"):
            subadditivity_sweep(table, k_max)
    with pytest.raises(ValueError, match=r"level 3 not in table \(K=2\)"):
        subadditivity_sweep(table, 3)


def _sweep_reference(table: RenewalTable, k_max: int) -> tuple[int, float]:
    """The sweep as one power and one count per (k, h) row, for comparison."""
    n = table.horizon
    violations = 0
    min_slack = math.inf
    v1 = table.level(1)
    for k in range(1, k_max + 1):
        vk = table.level(k)
        for h in range(0, n + 1):
            left = vk[h : n + 1] - vk[: n - h + 1]
            right = (v1[h] + 1.0) * v1[h : n + 1] ** (k - 1)
            slack = right - left
            m = slack.min() if slack.size else math.inf
            if m < min_slack:
                min_slack = m
            violations += int((slack < 0.0).sum())
    return violations, float(min_slack)


def _unit_table(n: int, bump: float = 0.0) -> RenewalTable:
    """V_1(m) = m and V_2(m) = C(m, 2) on m = 0..n, with ``bump`` added at V_2(n)."""
    m = np.arange(n + 1.0)
    table = RenewalTable(1.0, np.array([m, m * (m - 1.0) / 2.0]), 1.0)
    table.values[1, n] += bump
    return table


def test_subadditivity_sweep_matches_reference(monkeypatch):
    broken = RenewalTable(
        1.0,
        np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 9.0, 10.0, 40.0, 41.0]]),
        1.0,
    )
    violations, min_slack = subadditivity_sweep(broken, 2)
    assert violations > 0 and min_slack < 0.0
    assert (violations, min_slack) == _sweep_reference(broken, 2)
    head = RenewalTable(1.0, broken.values[:, :4], 1.0)
    assert subadditivity_sweep(head, 2) == _sweep_reference(head, 2)
    for law in (GEOM, LatticeLaw(1.0, np.array([0.5, 0.5])), RATIONAL_LAWS[1]):
        table = renewal_table(law, 5, 400)
        for k_max in (3, 5):
            got = subadditivity_sweep(table, k_max)
            assert got == _sweep_reference(table, k_max)
            assert got[0] == 0
    # a NaN at V_2(5): rows h <= 5 reach it, so their minimum is NaN and leaves
    # the running one alone, though their negative cells count; rows h >= 6
    # meet it only past the table, so their minimum, -69 at h = 6, stands
    nan_table = _unit_table(10, 100.0)
    nan_table.values[1, 5] = np.nan
    edges = [nan_table, _unit_table(0), _unit_table(1), _unit_table(40, 100.0)]
    # BLOCK_DRAWS sets the lags a block sweeps: one, a ragged split, a few, or the whole table
    for budget in (1, 7, 64, iterlog.dist.BLOCK_DRAWS):
        monkeypatch.setattr(iterlog.dist, "BLOCK_DRAWS", budget)
        assert subadditivity_sweep(nan_table, 2) == _sweep_reference(nan_table, 2) == (9, -69.0)
        for table in edges:
            for k_max in (1, 2):
                assert subadditivity_sweep(table, k_max) == _sweep_reference(table, k_max)


def test_subadditivity_sweep_small():
    table = renewal_table(GEOM, 3, 300)
    violations, min_slack = subadditivity_sweep(table, 3)
    assert violations == 0
    assert min_slack >= 0.0


def test_monotone_levels():
    table = renewal_table(GEOM, 3, 500)
    for k in (1, 2, 3):
        level = table.level(k)
        assert level[0] == 0.0
        assert np.all(np.diff(level) >= -1e-12)


def test_table_at_step_lookup():
    table = renewal_table(UNIT, 2, 10)
    assert table.at(1, 3.0) == 3.0
    assert table.at(1, 3.7) == 3.0
    with pytest.raises(ValueError, match="horizon"):
        table.at(1, 11.0)


def test_table_at_level_out_of_range():
    table = renewal_table(UNIT, 2, 10)
    for k in (0, 3):
        with pytest.raises(ValueError, match="not in table"):
            table.at(k, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast or floor_divide warning before the refusal
        for t in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan, 2.0])):
            with pytest.raises(ValueError, match="outside table horizon"):
                table.at(1, t)


def test_table_at_non_integer_span():
    # t = n*0.3 in floating point can fall just below site n
    n_max = 130_000
    table = RenewalTable(0.3, np.arange(n_max + 1.0)[np.newaxis, :], 1.0)
    sites = np.arange(110_000, n_max + 1)
    assert [table.at(1, n * 0.3) for n in sites.tolist()] == sites.tolist()
    assert table.at(1, 110_000.5 * 0.3) == 110_000.0
    assert table.at(1, (110_000 - 1e-3) * 0.3) == 109_999.0
    assert table.at(1, 0.0) == 0.0
    for t in (-0.3, (n_max + 1) * 0.3):
        with pytest.raises(ValueError, match="horizon"):
            table.at(1, t)
        # one element past the horizon refuses the whole array
        with pytest.raises(ValueError, match="horizon"):
            table.at(1, np.array([0.0, 3.0, t, 6.0]))


def test_table_at_array_equals_scalar_reads():
    # the on-site span-0.3 cases from site 110000 on, off-site points, and a
    # geometric table's own levels read at sites of a non-unit span
    n_max = 130_000
    on_sites = RenewalTable(0.3, np.arange(n_max + 1.0)[np.newaxis, :], 1.0)
    ts = np.concatenate((
        np.arange(110_000, n_max + 1) * 0.3,
        np.array([0.0, 110_000.5 * 0.3, (110_000 - 1e-3) * 0.3, n_max * 0.3]),
    ))
    geom = renewal_table(geometric_lattice(0.5, span=0.7), 3, 400)
    for table, t in ((on_sites, ts), (geom, 0.7 * np.arange(401)), (geom, np.linspace(0.0, 280.0, 997))):
        for k in range(1, table.levels + 1):
            got = table.at(k, t)
            assert got.shape == t.shape
            assert got.tobytes() == np.array([table.at(k, x) for x in t.tolist()]).tobytes()


def _exact_levels(step: LatticeLaw, levels: int, n_max: int, eta: LatticeLaw | None = None) -> np.ndarray:
    """V_1..V_K (or V*_1..V*_K when eta is given) in exact rationals.

    Generating-function recurrences on the float pmf entries taken as exact
    fractions: V_k (1-P) = P V_{k-1} with V_0 = 1/(1-z), and for the
    perturbed chain V*_k (1-P) = Q V*_{k-1} with V*_0 = 1/(1-z).
    """
    p = [Fraction(x) for x in step.pmf.tolist()]
    q = p if eta is None else [Fraction(x) for x in eta.pmf.tolist()]
    prev = [Fraction(1)] * (n_max + 1)
    rows = []
    for _ in range(levels):
        cur = []
        for n in range(n_max + 1):
            cur.append(
                sum(p[m - 1] * cur[n - m] for m in range(1, min(len(p), n) + 1))
                + sum(q[m - 1] * prev[n - m] for m in range(1, min(len(q), n) + 1))
            )
        rows.append(cur)
        prev = cur
    return np.array([[float(x) for x in row] for row in rows])


def _assert_rel_close(got: np.ndarray, exact: np.ndarray, tol: float = 1e-12) -> None:
    # exact zeros must come out exactly zero
    assert got.shape == exact.shape
    assert np.all(np.abs(got - exact) <= tol * exact)


RATIONAL_LAWS = [
    LatticeLaw(1.0, np.array([0.25, 0.5, 0.25])),
    LatticeLaw(1.0, np.array([0.2, 0.5, 0.3])),
    LatticeLaw(1.0, np.array([0.6, 0.0, 0.4])),
]


@pytest.mark.parametrize("law", RATIONAL_LAWS)
@pytest.mark.parametrize("n_max", [0, 1, 300])
def test_standard_table_vs_fraction_oracle(law, n_max):
    _assert_rel_close(renewal_table(law, 3, n_max).values, _exact_levels(law, 3, n_max))


@pytest.mark.parametrize(
    "step, eta, n_max",
    [
        (RATIONAL_LAWS[1], RATIONAL_LAWS[2], 300),
        (RATIONAL_LAWS[0], RATIONAL_LAWS[1], 300),
        (RATIONAL_LAWS[2], RATIONAL_LAWS[0], 0),
        (RATIONAL_LAWS[2], RATIONAL_LAWS[0], 1),
        (RATIONAL_LAWS[1], GEOM, 10),  # perturbation support 50 beyond the horizon
    ],
)
def test_perturbed_chain_vs_fraction_oracle(step, eta, n_max):
    u = renewal_sequence(step, n_max)
    chain = convolve_levels(perturbed_table(u, step.span, eta, n_max, step.moments().mean), 3)
    exact = _exact_levels(step, 3, n_max, eta)
    _assert_rel_close(chain.values, exact)
    _assert_rel_close(renewal_table(step, 3, n_max, eta).values, exact)


def test_renewal_table_bad_input():
    with pytest.raises(ValueError, match="lattice law"):
        renewal_table(SmoothLaw("exp", {"rate": 1.0}), 2, 10)
    with pytest.raises(ValueError, match="nonnegative"):
        renewal_table(GEOM, 2, -1)
    with pytest.raises(ValueError, match="lattice law"):
        renewal_sequence(SmoothLaw("exp", {"rate": 1.0}), 10)
    with pytest.raises(ValueError, match="nonnegative"):
        renewal_sequence(GEOM, -1)


@pytest.mark.parametrize(
    "law, eta",
    [(law, None) for law in RATIONAL_LAWS + [GEOM]]
    + [(RATIONAL_LAWS[1], RATIONAL_LAWS[2]), (RATIONAL_LAWS[2], GEOM), (GEOM, RATIONAL_LAWS[0])],
    ids=["law0", "law1", "law2", "law3", "perturbed0", "perturbed1", "perturbed2"],
)
def test_recurrence_levels_match_stieltjes_levels(law, eta):
    n_max = 2000
    if eta is None:
        stieltjes = convolve_levels(renewal_table(law, 1, n_max), 3).values
    else:
        u = renewal_sequence(law, n_max)
        stieltjes = convolve_levels(perturbed_table(u, law.span, eta, n_max, law.moments().mean), 3).values
    _assert_rel_close(stieltjes, renewal_table(law, 3, n_max, eta).values)


def _scaled_integer_levels(
    numerators: list[int], levels: int, n_max: int, eta_numerators: list[int] | None = None
) -> np.ndarray:
    """V_1..V_K for the pmf a/16 on sites 1..M, from exact integers, or V*_1..V*_K
    when the perturbation pmf c/16 is given (c = a when it is not).

    W_k(n) = 16^n V_k(n) obeys W_k(n) = sum_m 16^(m-1) [a_m W_k(n-m) + c_m W_{k-1}(n-m)]
    with W_0(n) = 16^n; one correctly rounded division per cell gives V_k(n).
    """
    weights = [(m, a << 4 * (m - 1)) for m, a in enumerate(numerators, start=1)]
    eta_weights = [(m, c << 4 * (m - 1)) for m, c in enumerate(eta_numerators or numerators, start=1)]
    prev = [1 << 4 * n for n in range(n_max + 1)]
    rows = []
    for _ in range(levels):
        cur = []
        for n in range(n_max + 1):
            cur.append(
                sum(w * cur[n - m] for m, w in weights if m <= n)
                + sum(w * prev[n - m] for m, w in eta_weights if m <= n)
            )
        rows.append([x / (1 << 4 * n) for n, x in enumerate(cur)])
        prev = cur
    return np.array(rows)


@pytest.mark.parametrize(
    "numerators, eta_numerators",
    [([3, 13], None), ([5, 2, 9], None), ([4, 8, 4], None),
     ([5, 2, 9], [3, 13]), ([3, 13], [4, 8, 4]), ([4, 8, 4], [5, 2, 9])],
    ids=["numerators0", "numerators1", "numerators2", "perturbed0", "perturbed1", "perturbed2"],
)
def test_standard_table_vs_scaled_integer_oracle(numerators, eta_numerators):
    n_max = 4000
    law = LatticeLaw(1.0, np.array(numerators) / 16.0)
    eta = None if eta_numerators is None else LatticeLaw(1.0, np.array(eta_numerators) / 16.0)
    exact = _scaled_integer_levels(numerators, 3, n_max, eta_numerators)
    _assert_rel_close(renewal_table(law, 3, n_max, eta).values, exact)


def test_table_bits_independent_of_blas_threads():
    src = str(Path(iterlog.__file__).resolve().parents[1])
    code = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from iterlog.dist import LatticeLaw, geometric_lattice\n"
        "from iterlog.renewal import convolve_levels, perturbed_table, renewal_sequence, renewal_table\n"
        "law = geometric_lattice(0.5)\n"
        "u = renewal_sequence(law, 16000)\n"
        "chain = convolve_levels(perturbed_table(u, law.span, law, 16000, 2.0), 3)\n"
        "eta = LatticeLaw(1.0, np.array([0.6, 0.0, 0.4]))\n"
        "for values in (renewal_table(law, 3, 16000).values, chain.values, renewal_table(law, 3, 16000, eta).values):\n"
        "    sys.stdout.write(hashlib.sha256(values.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        digests.append(done.stdout)
    assert len(digests[0]) == 192
    assert digests[0] == digests[1]


def _lfilter_levels(law: LatticeLaw, levels: int, n_max: int, eta: LatticeLaw | None = None) -> np.ndarray:
    """The level recurrence run through public ``scipy.signal.lfilter``."""
    from scipy.signal import lfilter

    b = np.concatenate(([0.0], (law if eta is None else eta).pmf))
    a = np.concatenate(([1.0], -law.pmf))
    rows, x = [], np.ones(n_max + 1)
    for _ in range(levels):
        x = lfilter(b, a, x)
        rows.append(x)
    return np.array(rows)


LFILTER_CASES = [(law, None) for law in RATIONAL_LAWS + [GEOM, UNIT]] + [
    (RATIONAL_LAWS[1], RATIONAL_LAWS[2]),
    (RATIONAL_LAWS[2], GEOM),
    (GEOM, RATIONAL_LAWS[0]),
    (UNIT, RATIONAL_LAWS[1]),
]


@pytest.mark.parametrize("law, eta", LFILTER_CASES)
def test_table_bits_equal_public_lfilter(law, eta):
    # the kernel is scipy's private _sigtools._linear_filter; it must give lfilter's bytes
    expected = _lfilter_levels(law, 3, 3000, eta)
    assert renewal_table(law, 3, 3000, eta).values.tobytes() == expected.tobytes()


def test_table_kernel_falls_back_to_lfilter(monkeypatch):
    import scipy.signal

    law, eta = RATIONAL_LAWS[1], RATIONAL_LAWS[2]
    direct = [renewal_table(law, 3, 2000, e).values.tobytes() for e in (None, eta)]
    assert renewal._linear_filter() is not scipy.signal.lfilter  # the extension's own loop
    renewal._linear_filter.cache_clear()
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])  # no extension file is found
    try:
        assert renewal._linear_filter() is scipy.signal.lfilter
        assert [renewal_table(law, 3, 2000, e).values.tobytes() for e in (None, eta)] == direct
    finally:
        renewal._linear_filter.cache_clear()


def test_csv_round_trip(tmp_path):
    table = renewal_table(GEOM, 2, 20)
    path = tmp_path / "table.csv"
    write_table_csv(table, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,t,V1,V2"
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert float(cells[2]) == table.level(1)[n]  # 17 digits round-trip
        assert float(cells[3]) == table.level(2)[n]


def test_csv_bytes_match_per_cell_rendering(tmp_path):
    table = renewal_table(LatticeLaw(0.3, np.array([0.2, 0.5, 0.3])), 3, 500)
    lines = ["n,t,V1,V2,V3"]
    for n in range(table.horizon + 1):
        cells = [str(n), f"{n * table.span:.17g}"] + [f"{table.values[j, n]:.17g}" for j in range(3)]
        lines.append(",".join(cells))
    path = tmp_path / "table.csv"
    write_table_csv(table, str(path))
    assert path.read_text() == "\n".join(lines) + "\n"


@st.composite
def small_lattice_laws(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    pmf = np.array(weights)
    pmf[0] = max(pmf[0], 0.05)
    pmf /= math.fsum(pmf.tolist())
    return LatticeLaw(1.0, pmf)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_lattice_laws())
def test_table_properties(law):
    table = renewal_table(law, 3, 60)
    for k in (1, 2, 3):
        level = table.level(k)
        assert level[0] == 0.0
        assert np.all(np.diff(level) >= -1e-12)
    violations, _ = subadditivity_sweep(table, 3)
    assert violations == 0
    u = renewal_sequence(law, 60)
    oracle = _hit_probability_oracle(law.pmf, 30)
    assert np.max(np.abs(u[:31] - oracle)) < 1e-10
