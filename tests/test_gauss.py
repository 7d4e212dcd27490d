"""Brownian discretization, discrete isometry, and the remainder-weight
integrals vs exact quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterlog import gauss
from iterlog.dist import LatticeLaw, RngStream, draw_rows, geometric_lattice
from iterlog.gauss import (
    BmPath,
    FkTable,
    _cells_below,
    _weighted_sums,
    _weights,
    b1k_ensemble,
    b2k,
    b2k_ensemble,
    sample_bm,
    variance_b2k,
)
from iterlog.renewal import ExponentialRenewal, renewal_table
from iterlog.verify import check_gauss

UNIT = LatticeLaw(1.0, np.array([1.0]))
GEOM = geometric_lattice(0.5)


def discrete_variance(weights: np.ndarray, h: float) -> float:
    """Exact variance h * sum g^2 of the discretized weighted sum (the isometry)."""
    return h * math.fsum((weights * weights).tolist())


def test_path_start_and_shape():
    path = sample_bm(10.0, 0.01, RngStream(1, 0))
    assert path.values[0] == 0.0
    assert path.values.size == 1001
    assert (path.values.size - 1) * path.h == pytest.approx(10.0)


def test_path_variance():
    finals = b1k_ensemble(1, 10.0, 0.1, 10_000, RngStream(2, 0))
    assert abs(finals.var(ddof=1) - 10.0) <= 0.3


def test_disjoint_increments_uncorrelated():
    paths = [sample_bm(2.0, 0.5, RngStream(3, r)) for r in range(10_000)]
    first = np.array([p.values[2] - p.values[0] for p in paths])
    second = np.array([p.values[4] - p.values[2] for p in paths])
    rho = np.corrcoef(first, second)[0, 1]
    assert abs(rho) < 0.03


def test_b1_level_one_is_path_value():
    # unit weights telescope: B1 is W at the last grid point below t, and one
    # replica draws the stream's first normals, as the path does
    path = sample_bm(5.0, 0.25, RngStream(4, 0))
    for t, j in ((5.0, 20), (2.5, 10), (2.6, 10), (2.7, 10)):
        b1 = b1k_ensemble(1, t, 0.25, 1, RngStream(4, 0))[0]
        assert b1 == pytest.approx(path.values[j], rel=1e-12, abs=1e-12)


def test_b1_at_zero():
    # no grid cell lies below t = 0: the weights are empty and the sum is zero
    assert _weights(lambda lag: lag, 0.0, 0.1)[0].size == 0
    path = sample_bm(1.0, 0.1, RngStream(5, 0))
    assert b2k(path, FkTable(2, renewal_table(GEOM, 1, 2)), 0.0) == 0.0


@pytest.mark.parametrize("t", [10.0, 10.04], ids=["on_grid", "off_grid"])
def test_b2k_is_row_zero_of_its_ensemble(t):
    # 200 cells lie below both values of t.  The path's increments are the
    # first normals of the ensemble's block 0, so the sums differ by rounding
    # only: each W_{j+1} - W_j of the running sum is off by a few ulp of max |W|,
    # within the stated 1e-12 * sum |g| * max |W|
    h = 0.05
    fk = FkTable(2, renewal_table(GEOM, 1, 11))
    path = sample_bm(t, h, RngStream(13, 2))
    row = b2k_ensemble(fk, t, h, 1, RngStream(13, 2))[0]
    g = fk.evaluate(t - h * np.arange(200))
    tol = 1e-12 * np.abs(g).sum() * np.abs(path.values).max()
    assert abs(b2k(path, fk, t) - row) <= tol


def test_b1_variance_matches_discrete_isometry():
    k, t, h, reps = 2, 10.0, 0.01, 4_000
    values = b1k_ensemble(k, t, h, reps, RngStream(6, 0))
    weights = (t - h * np.arange(int(t / h))) ** (k - 1)
    exact = discrete_variance(weights, h)
    sample_var = values.var(ddof=1)
    rel_se = math.sqrt(2.0 / (reps - 1))
    assert abs(sample_var / exact - 1.0) <= 3.0 * rel_se
    assert exact == pytest.approx(1000.0 / 3.0, rel=0.005)


def test_refinement_changes_little():
    # halving the step moves the discrete variance by far less than 1%
    k, t = 2, 10.0
    coarse = discrete_variance((t - 0.01 * np.arange(1000)) ** (k - 1), 0.01)
    fine = discrete_variance((t - 0.005 * np.arange(2000)) ** (k - 1), 0.005)
    assert abs(fine / coarse - 1.0) < 0.01


def test_b2_exponential_weight_vanishes():
    fk = FkTable(2, ExponentialRenewal())
    path = sample_bm(10.0, 0.01, RngStream(7, 0))
    assert b2k(path, fk, 10.0) == 0.0
    assert variance_b2k(fk, 10.0) == 0.0


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_exponential_weight_is_positive_zero(rate, k):
    # V_{k-1} is its leading term, so f_k is x - x: +0.0, never -0.0
    s = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 500), 10.0 - 0.01 * np.arange(1000)))
    f = FkTable(k, ExponentialRenewal(rate)).evaluate(s)
    assert f.shape == s.shape
    assert np.all(f == 0.0) and not np.any(np.signbit(f))


def test_b2_grid_mismatch_errors():
    table = renewal_table(GEOM, 1, 50)
    fk = FkTable(2, table)
    path = sample_bm(10.0, 0.3, RngStream(8, 0))
    with pytest.raises(ValueError, match="grid mismatch"):
        b2k(path, fk, 9.9)
    short = FkTable(2, renewal_table(GEOM, 1, 5))
    path2 = sample_bm(10.0, 0.5, RngStream(8, 1))
    with pytest.raises(ValueError, match="cover"):
        b2k(path2, short, 10.0)


def test_variance_b2k_unit_law_closed_form():
    # mu = 1, V_1 = floor, so the weight is floor(x) - x and the integral n/3
    table = renewal_table(UNIT, 1, 20)
    fk = FkTable(2, table)
    for n in (1, 5, 20):
        assert variance_b2k(fk, float(n)) == pytest.approx(n / 3.0, abs=1e-12)


def test_variance_b2k_matches_riemann_oracle():
    table = renewal_table(GEOM, 2, 30)
    for k in (2, 3):
        fk = FkTable(k, table)
        for n in (30.0, 10.5):  # on the grid, and inside a cell, which then ends at n
            xs = np.arange(0.0, n, 1e-4)
            riemann = float(np.sum(fk.evaluate(xs) ** 2) * 1e-4)
            assert variance_b2k(fk, n) == pytest.approx(riemann, rel=1e-3)


def test_b2_ensemble_mean_and_variance():
    table = renewal_table(GEOM, 1, 50)
    fk = FkTable(2, table)
    reps = 4_000
    values = b2k_ensemble(fk, 50.0, 0.05, reps, RngStream(9, 0))
    target = variance_b2k(fk, 50.0)
    assert abs(values.mean()) <= 4.0 * values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.var(ddof=1) / target - 1.0) < 0.10


def test_b2_scaled_second_moment_decreases():
    # the scaled weight variance integral drops along a geometric grid,
    # both exactly and in ensemble
    table = renewal_table(GEOM, 1, 1600)
    fk = FkTable(2, table)
    exact = [variance_b2k(fk, t) / t**3 for t in (100.0, 400.0, 1600.0)]
    assert exact[0] > exact[1] > exact[2]
    reps = 2_000
    moments = []
    for i, t in enumerate((100.0, 400.0)):
        vals = b2k_ensemble(fk, t, 0.05, reps, RngStream(10, i))
        moments.append(float(np.mean(vals**2)) / t**3)
    assert moments[0] > moments[1]


def test_variance_growth_order_bounded():
    table = renewal_table(GEOM, 1, 4000)
    fk = FkTable(2, table)
    ratios = [variance_b2k(fk, float(n)) / n for n in (500, 1000, 2000, 4000)]
    assert max(ratios) / min(ratios) < 1.05


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    st.integers(min_value=2, max_value=3),
)
def test_variance_b2k_exactness_property(weights, k):
    pmf = np.array(weights)
    pmf[0] = max(pmf[0], 0.05)
    pmf /= math.fsum(pmf.tolist())
    law = LatticeLaw(1.0, pmf)
    table = renewal_table(law, k - 1, 15)
    fk = FkTable(k, table)
    xs = np.arange(0.0, 15.0, 2e-4)
    riemann = float(np.sum(fk.evaluate(xs) ** 2) * 2e-4)
    exact = variance_b2k(fk, 15.0)
    assert exact == pytest.approx(riemann, rel=2e-3, abs=2e-3)


def _ensembles(replicas, stream):
    fk = FkTable(2, renewal_table(GEOM, 1, 20))
    b1 = b1k_ensemble(2, 10.0, 0.05, replicas, stream)
    b2 = b2k_ensemble(fk, 10.0, 0.05, replicas, stream)
    return b1, b2


def test_ensembles_independent_of_worker_count(monkeypatch):
    # 1000 replicas in blocks of 128 leave a ragged last block of 104
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    serial = _ensembles(1000, RngStream(11, 3))
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    pooled = _ensembles(1000, RngStream(11, 3))
    for a, b in zip(serial, pooled):
        assert a.shape == (1000,)
        assert np.array_equal(a, b)


def test_ensemble_block_zero_is_the_stream_prefix(monkeypatch):
    t, h = 10.0, 0.05
    weights = (t - h * np.arange(200)) ** 1
    dw = RngStream(11, 3).generator().normal(0.0, math.sqrt(h), (128, 200))
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    b1, _ = _ensembles(1000, RngStream(11, 3))
    assert np.array_equal(b1[:128], (dw * weights).sum(axis=1))


def test_ensemble_blocks_draw_distinct_substreams(monkeypatch):
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    b1, b2 = _ensembles(256, RngStream(11, 3))
    next_index, _ = _ensembles(256, RngStream(11, 4))
    assert not np.any(b1[128:] == b1[:128])
    assert not np.any(b1[128:] == next_index[:128])
    # the block size fixes the values: rows past the first block move with it
    monkeypatch.setattr(gauss, "BLOCK_ROWS", 64)
    small, _ = _ensembles(256, RngStream(11, 3))
    assert np.array_equal(small[:64], b1[:64])
    assert not np.array_equal(small[64:128], b1[64:128])


def test_check_gauss_independent_of_worker_count(monkeypatch):
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    serial = [r.to_dict() for r in check_gauss(3)]
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    assert serial == [r.to_dict() for r in check_gauss(3)]


def test_sites_at_non_unit_span():
    # sites accumulated by repeated addition of a span of 0.7 drift below
    # n * 0.7 by more than 1e-9 / 0.7 from n = 7299 on; they still sit on site n
    n = 10_000
    sites = np.cumsum(np.full(n, 0.7))
    fk = FkTable(2, renewal_table(LatticeLaw(0.7, np.array([1.0])), 1, n + 1))
    assert np.max(np.abs(fk.evaluate(sites))) < 1e-6  # f_2 = V_1(t) - t / 0.7 on sites
    assert [_cells_below(t, 0.7) for t in sites] == list(range(1, n + 1))
    path = sample_bm(n * 0.7, 0.7, RngStream(12, 0))
    assert math.isfinite(b2k(path, fk, sites[-1]))  # the drifted last site is on the path
    with pytest.raises(ValueError, match="horizon"):
        b2k(path, fk, n * 0.7 + 0.35)


@pytest.mark.parametrize("h", [0.0, -0.1, 2.0])
def test_ensembles_refuse_bad_steps(h):
    for ensemble, weight in ((b1k_ensemble, 2), (b2k_ensemble, FkTable(2, ExponentialRenewal()))):
        with pytest.raises(ValueError, match=r"need h > 0 and t_max >= h"):
            ensemble(weight, 1.0, h, 4, RngStream(0, 0))


def test_ensembles_refuse_grids_past_the_memory_guard():
    # 1e11 cells lie below t = 100 at h = 1e-9: refused before the weights are built
    for ensemble, weight in ((b1k_ensemble, 2), (b2k_ensemble, FkTable(2, ExponentialRenewal()))):
        with pytest.raises(ValueError, match="would exceed the memory guard"):
            ensemble(weight, 100.0, 1e-9, 4, RngStream(0, 0))


def test_bm_path_validation():
    with pytest.raises(ValueError):
        sample_bm(0.5, 1.0, RngStream(0, 0))
    path = BmPath(0.1, np.zeros(11))
    for t in (2.0, 1.05, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            b2k(path, FkTable(2, ExponentialRenewal()), t)
    assert b2k(path, FkTable(2, ExponentialRenewal()), 1.0) == 0.0
    for k in (0, -1):  # (t - x)^{k-1} would weigh by a negative power
        with pytest.raises(ValueError, match=r"need k >= 1"):
            b1k_ensemble(k, 1.0, 0.1, 4, RngStream(0, 0))


def test_weighted_sums_chunks_draw_one_block():
    # 1000 steps: 65 rows a chunk, so a block of 200 rows fills three chunks and a ragged fourth
    steps, rows, h = 1000, 200, 0.01
    sizes = []
    draw_rows(lambda rng, r: sizes.append(r) or np.zeros(r), None, rows, steps)
    assert sizes == [0, 65, 65, 65, 5]
    weights = (10.0 - h * np.arange(steps)) ** 2
    for b in (0, 3):
        dw = RngStream(17, 4, b).generator().normal(0.0, math.sqrt(h), (rows, steps))
        dw *= weights
        expected = dw.sum(axis=1)
        got = _weighted_sums(RngStream(17, 4, b).generator(), rows, weights, h)
        assert got.tobytes() == expected.tobytes()


def test_weighted_sums_memory_flat_in_rows():
    # one block of the c8 shape; one (128, 20000) array would hold 20 MB of normals
    weights = np.linspace(1.0, 2.0, 20_000)
    tracemalloc.start()
    try:
        _weighted_sums(RngStream(5, 0).generator(), 128, weights, 0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
