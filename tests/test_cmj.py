"""Simulator vs exact tables and closed forms; statistics; decomposition."""

import ctypes
import hashlib
import math

import numpy as np
import pytest

from iterlog import cmj, dist
from iterlog.cmj import (
    SimConfig,
    clt_statistic,
    decompose_fluctuation,
    decomposition_ensemble,
    lil_statistic,
    monte_carlo,
    simulate_generations,
)
from iterlog.dist import LatticeLaw, RngStream, SmoothLaw, geometric_lattice
from iterlog.renewal import ExponentialRenewal, leading_term, renewal_table

EXP1 = SmoothLaw("exp", {"rate": 1.0})
UNIT = LatticeLaw(1.0, np.array([1.0]))
GEOM = geometric_lattice(0.5)


def test_deterministic_walk_counts():
    # unit steps: Y_1(5.5) = 5 walk points, Y_k = compositions = C(5, k)
    config = SimConfig(UNIT, levels=3, horizon=5.5, seed=0, replicas=1)
    sim = simulate_generations(config, 0)
    assert list(sim.counts) == [5, math.comb(5, 2), math.comb(5, 3)]
    # perturbed by eta = 2: births at S_{n-1} + 2, Y_k(t) = C(floor(t) - k, k)
    eta = LatticeLaw(2.0, np.array([1.0]))
    for t in (5.5, 9.0, 12.3):
        config = SimConfig(UNIT, levels=3, horizon=t, eta=eta, seed=0, replicas=1)
        n = math.floor(t)
        expected = [math.comb(n - k, k) for k in (1, 2, 3)]
        assert list(simulate_generations(config, 0).counts) == expected
    # the same at span 0.3 with eta = 2 steps, where t = n d rounds to either side of site n
    steps, eta = LatticeLaw(0.3, np.array([1.0])), LatticeLaw(0.6, np.array([1.0]))
    for n in range(6, 60):
        config = SimConfig(steps, levels=3, horizon=n * 0.3, eta=eta, seed=0, replicas=1)
        expected = [math.comb(n - k, k) for k in (1, 2, 3)]
        assert list(simulate_generations(config, 0).counts) == expected
    # eta = half a step is off the walk's sites, so it runs in float time:
    # births at S_{n-1} + 0.5, Y_k(t) = C(floor(t - k/2) + k, k)
    eta = LatticeLaw(0.5, np.array([1.0]))
    for t in (5.25, 9.75):
        config = SimConfig(UNIT, levels=3, horizon=t, eta=eta, seed=0, replicas=1)
        expected = [math.comb(math.floor(t - k / 2) + k, k) for k in (1, 2, 3)]
        assert list(simulate_generations(config, 0).counts) == expected


def test_no_births_before_first_arrival():
    config = SimConfig(UNIT, levels=2, horizon=0.5, seed=0, replicas=1)
    sim = simulate_generations(config, 0)
    assert list(sim.counts) == [0, 0]


def test_generation_ordering():
    config = SimConfig(EXP1, levels=4, horizon=3.0, seed=11, replicas=1)
    for r in range(50):
        counts = simulate_generations(config, r).counts
        for k in range(1, 4):
            if counts[k - 1] == 0:
                assert counts[k] == 0


def test_path_monotone_and_consistent():
    grid = np.linspace(0.0, 20.0, 9)
    config = SimConfig(EXP1, levels=3, horizon=20.0, grid=grid, seed=4, replicas=1)
    for r in range(20):
        sim = simulate_generations(config, r)
        assert np.all(np.diff(sim.path, axis=1) >= 0)
        assert np.array_equal(sim.path[:, -1], sim.counts)


def test_poisson_mean_level1():
    config = SimConfig(EXP1, levels=1, horizon=10.0, seed=21, replicas=100_000)
    summary = monte_carlo(config, workers=1)
    assert abs(summary.means[0] - 10.0) <= 0.05


def test_geometric_mean_vs_exact_table():
    table = renewal_table(GEOM, 1, 500)
    config = SimConfig(GEOM, levels=1, horizon=500.0, seed=22, replicas=10_000)
    summary = monte_carlo(config, workers=1)
    assert abs(summary.means[0] / table.level(1)[500] - 1.0) < 0.005


def test_lattice_mean_four_sigma_gate():
    # p_1 = 0.9, p_50 = 0.1 (mu = 5.9): about one walk in eight from the
    # origin outlives its first block at t = 60 and needs another round
    slow = np.zeros(50)
    slow[0], slow[49] = 0.9, 0.1
    cases = (
        (GEOM, 200, 10_000),
        (LatticeLaw(1.0, slow), 60, 4_000),
        (LatticeLaw(0.3, GEOM.pmf), 200, 4_000),
    )
    for law, t, replicas in cases:
        table = renewal_table(law, 2, t)
        config = SimConfig(law, levels=2, horizon=t * law.span, seed=23, replicas=replicas)
        summary = monte_carlo(config)
        for k in (1, 2):
            se = math.sqrt(summary.variances[k - 1] / config.replicas)
            assert abs(summary.means[k - 1] - table.level(k)[t]) <= 4.0 * se


SITES = np.arange(200)


@pytest.mark.parametrize("d", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("pmf", [[1.0], GEOM.pmf], ids=["deterministic", "geometric"])
def test_lattice_counts_on_every_site(d, pmf):
    # t = n d rounds to either side of site n for these spans; a lattice walk
    # runs in site units, so the counts at t = n d are those of the unit-span
    # walk at t = n on the same streams, and for deterministic steps they
    # are the exact table
    law, unit = LatticeLaw(d, np.asarray(pmf)), LatticeLaw(1.0, np.asarray(pmf))
    exact = renewal_table(law, 2, SITES[-1]).values
    deterministic = len(pmf) == 1
    for n in SITES[1:]:
        counts = simulate_generations(SimConfig(law, 2, n * d, seed=8), n).counts
        same_walk = simulate_generations(SimConfig(unit, 2, float(n), seed=8), n).counts
        assert np.array_equal(counts, exact[:, n] if deterministic else same_walk)
        # a 64-replica ensemble is one block: the case a flat float cumsum breaks
        counts = monte_carlo(SimConfig(law, 1, n * d, seed=9, replicas=64), workers=1).counts
        same_walk = monte_carlo(SimConfig(unit, 1, float(n), seed=9, replicas=64), workers=1).counts
        assert np.array_equal(counts, np.full_like(counts, exact[0, n]) if deterministic else same_walk)
    # Y_1 and Y_2 at every site at once, through the grid paths of a 64-replica block
    config = SimConfig(law, 2, SITES[-1] * d, grid=SITES * d, seed=10)
    paths = cmj._simulate_block(config, 64, RngStream(10, 0).generator())[1]
    unit_config = SimConfig(unit, 2, float(SITES[-1]), grid=SITES.astype(float), seed=10)
    unit_rng = RngStream(10, 0).generator()
    expected = exact if deterministic else cmj._simulate_block(unit_config, 64, unit_rng)[1]
    assert np.array_equal(paths, np.broadcast_to(expected, paths.shape))


PMF3, ETA2 = np.array([0.5, 0.25, 0.25]), np.array([0.5, 0.5])


@pytest.mark.parametrize("d, eta_span", [(0.3, 0.2), (0.7, 0.3)])
def test_lattice_eta_off_site_counts(d, eta_span):
    # eta's span is p/q of the walk's (2/3 and 3/7): the walk runs in sites of
    # d/q = 0.1, so its counts at t = 0.1 n are those of the same walk on
    # spans 10 d and 10 eta_span at t = n, drawn from the same uniforms
    law, eta = LatticeLaw(d, PMF3), LatticeLaw(eta_span, ETA2)
    scaled, scaled_eta = LatticeLaw(round(10 * d), PMF3), LatticeLaw(round(10 * eta_span), ETA2)
    for n in range(5, 398, 7):
        counts = monte_carlo(SimConfig(law, 2, 0.1 * n, eta=eta, seed=5, replicas=64), workers=1).counts
        config = SimConfig(scaled, 2, float(n), eta=scaled_eta, seed=5, replicas=64)
        assert np.array_equal(counts, monte_carlo(config, workers=1).counts)


def test_lattice_eta_half_site_keeps_float_walk(monkeypatch):
    # span 1 with eta span 0.5 is already exact in float time: walking in
    # half sites draws the same counts at every half-site horizon
    law, eta = LatticeLaw(1.0, PMF3), LatticeLaw(0.5, ETA2)
    configs = [SimConfig(law, 2, 0.5 * n, eta=eta, seed=5, replicas=64) for n in range(5, 398, 7)]
    sites = [monte_carlo(config, workers=1).counts for config in configs]
    monkeypatch.setattr(cmj, "_site_units", lambda law, eta: None)
    for config, counts in zip(configs, sites):
        assert counts.tobytes() == monte_carlo(config, workers=1).counts.tobytes()


def test_perturbed_mean_vs_exact_table():
    from iterlog.renewal import perturbed_table, renewal_sequence

    u = renewal_sequence(GEOM, 200)
    mu = GEOM.moments().mean
    vstar = perturbed_table(u, 1.0, UNIT, 200, mu)  # eta = point mass at 1
    config = SimConfig(GEOM, levels=1, horizon=200.0, eta=UNIT, seed=24, replicas=4_000)
    summary = monte_carlo(config, workers=1)
    se = math.sqrt(summary.variances[0] / config.replicas)
    assert abs(summary.means[0] - vstar.level(1)[200]) <= 4.0 * se


def test_variance_against_derived_formula():
    # exact small-t variance for the unit-rate exponential cascade:
    # Var Y_2(t) = t^2/2 + t^3/3 (conditioning on the first generation)
    t = 100.0
    config = SimConfig(EXP1, levels=2, horizon=t, seed=25, replicas=6_000)
    summary = monte_carlo(config, workers=1)
    exact = t**2 / 2.0 + t**3 / 3.0
    assert 0.9 <= summary.variances[1] / exact <= 1.1
    # and the statistic's normalizer uses the leading t^3/3 term
    assert 0.9 <= summary.variances[1] / (t**3 / 3.0) <= 1.1


def test_monte_carlo_deterministic(monkeypatch):
    config = SimConfig(EXP1, levels=2, horizon=30.0, seed=9, replicas=128)
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    a = monte_carlo(config)
    b = monte_carlo(config)
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    c = monte_carlo(config)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts, c.counts)
    assert a.to_dict() == c.to_dict()
    # the perturbed kernel with a grid, serial and through the pool
    grid = np.linspace(0.0, 30.0, 7)
    config = SimConfig(GEOM, levels=3, horizon=30.0, eta=GEOM, grid=grid, seed=9, replicas=128)
    pooled = monte_carlo(config)
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    serial = monte_carlo(config)
    assert np.array_equal(serial.counts, pooled.counts)


def test_monte_carlo_needs_two_replicas():
    config = SimConfig(EXP1, levels=1, horizon=5.0, seed=0, replicas=1)
    with pytest.raises(ValueError, match="two replicas"):
        monte_carlo(config)


def test_clt_statistic_values():
    m = EXP1.moments()
    assert clt_statistic(100.0, 1, 100.0, m, 100.0) == 0.0
    assert clt_statistic(110.0, 1, 100.0, m, 100.0) == pytest.approx(1.0)


def test_lil_statistic_values():
    m = EXP1.moments()
    assert lil_statistic(50.0, 2, 100.0, m, 50.0) == 0.0
    stat = lil_statistic(110.0, 1, 100.0, m, 100.0)
    expected = 10.0 / math.sqrt(2.0 * 100.0 * math.log(math.log(100.0)))
    assert stat == pytest.approx(expected)
    assert stat == pytest.approx(0.5722, abs=2e-4)
    with pytest.raises(ValueError, match="undefined"):
        lil_statistic(1.0, 1, 2.0, m, 1.0)


def test_monte_carlo_centers_are_leading_terms():
    summary = monte_carlo(SimConfig(EXP1, levels=2, horizon=10.0, seed=0, replicas=2))
    assert summary.centers.tolist() == [10.0, 50.0]
    summary = monte_carlo(SimConfig(GEOM, levels=2, horizon=50.0, seed=0, replicas=2))
    mu = GEOM.moments().mean
    assert summary.centers.tolist() == [leading_term(k, mu, 50.0) for k in (1, 2)]


def test_lil_report_band_is_finite():
    # running extrema along a geometric grid: descriptive output only
    grid = math.e**2 * 1.5 ** np.arange(11)
    config = SimConfig(
        EXP1, levels=1, horizon=float(grid[-1]), grid=grid, seed=31, replicas=20
    )
    m = EXP1.moments()
    values = []
    for r in range(config.replicas):
        sim = simulate_generations(config, r)
        for j, t in enumerate(grid):
            values.append(
                lil_statistic(float(sim.path[0, j]), 1, float(t), m, leading_term(1, m.mean, float(t)))
            )
    assert np.all(np.isfinite(values))


def test_decomposition_identity_exponential():
    config = SimConfig(EXP1, levels=2, horizon=80.0, seed=41, replicas=100)
    v_eval = ExponentialRenewal(1.0)
    parts = decomposition_ensemble(config, 2, v_eval)
    assert np.max(np.abs(parts[:, 0] + parts[:, 1] - parts[:, 2])) <= 1e-9


def test_decomposition_identity_lattice():
    table = renewal_table(GEOM, 2, 60)
    config = SimConfig(GEOM, levels=2, horizon=60.0, seed=42, replicas=50)
    parts = decomposition_ensemble(config, 2, table)
    assert np.max(np.abs(parts[:, 0] + parts[:, 1] - parts[:, 2])) <= 1e-9


@pytest.mark.parametrize("levels", [ExponentialRenewal(1.0), renewal_table(GEOM, 3, 8)])
def test_decomposition_of_a_hand_built_block(levels):
    # replica 0 has no level-1 births; replica 1's are out of time order
    births, owners, yk = np.array([2.5, 0.5, 3.25]), np.array([1, 1, 1]), np.array([0, 7])
    rows = decompose_fluctuation(births, owners, yk, 3, 4.0, levels)
    v3 = levels.at(3, 4.0)
    j1 = math.fsum(levels.at(2, 4.0 - s) for s in (2.5, 0.5, 3.25)) - v3
    assert rows.shape == (2, 3)
    assert list(rows[0]) == [0.0, -v3, -v3]
    assert list(rows[1]) == [7 - v3 - j1, j1, 7 - v3]
    with pytest.raises(ValueError, match="k >= 2"):
        decompose_fluctuation(births, owners, yk, 1, 4.0, levels)


def test_expected_population_values():
    # SimConfig admits a run by its leading-order expected population
    assert leading_term(3, 1.0, 30.0) == 4500.0
    assert leading_term(1, 2.0, 10.0) == 5.0
    total = sum(leading_term(k, 1.0, 20.0) for k in range(1, 5))
    assert total == pytest.approx(8220.0, abs=0.5)


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(EXP1, levels=1, horizon=0.0)
    with pytest.raises(ValueError, match="generation"):
        SimConfig(EXP1, levels=0, horizon=1.0)
    with pytest.raises(ValueError, match="replica"):
        SimConfig(EXP1, levels=1, horizon=1.0, replicas=0)
    with pytest.raises(ValueError, match="cap"):
        SimConfig(EXP1, levels=4, horizon=1000.0)
    with pytest.raises(ValueError, match="grid"):
        SimConfig(EXP1, levels=1, horizon=10.0, grid=np.array([3.0, 1.0]))
    with pytest.raises(ValueError, match="grid"):
        SimConfig(EXP1, levels=1, horizon=10.0, grid=np.array([1.0, 20.0]))


@pytest.mark.parametrize(
    "horizon, grid, message",
    [(math.nan, None, "horizon must be positive"),
     (10.0, np.array([1.0, math.nan, 3.0]), "grid must be a finite"),
     (10.0, np.full(3, math.nan), "grid must be a finite")],
    ids=["nan_horizon", "nan_in_grid", "nan_grid"],
)
def test_config_refuses_nan_horizon_and_non_finite_grid(horizon, grid, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(EXP1, levels=1, horizon=horizon, grid=grid)


def test_degenerate_law_has_no_statistics():
    config = SimConfig(UNIT, levels=1, horizon=10.0, seed=0, replicas=4)
    summary = monte_carlo(config, workers=1)
    assert summary.clt is None
    assert summary.lil is None
    assert summary.means[0] == 10.0


# Block configs: (config, block size).  A ragged last block in each; the
# second walks three generations with eta and a grid.
BLOCK_CONFIGS = [
    (SimConfig(EXP1, levels=2, horizon=30.0, seed=5, replicas=150), 64),
    (
        SimConfig(
            GEOM, levels=3, horizon=30.0, eta=GEOM, grid=np.linspace(0.0, 30.0, 7),
            seed=5, replicas=100, stream_offset=3,
        ),
        64,
    ),
    (SimConfig(EXP1, levels=3, horizon=20.0, seed=6, replicas=100), 64),
    (SimConfig(GEOM, levels=3, horizon=60.0, seed=7, replicas=40), 13),
]


@pytest.mark.parametrize("config, block", BLOCK_CONFIGS)
def test_block_size_from_config(config, block):
    assert cmj._block_size(config) == block


def test_block_size_near_population_cap():
    # lattice walks materialize every level: about 9.9e6 births per replica
    config = SimConfig(GEOM, levels=2, horizon=8900.0, seed=0)
    assert cmj.POPULATION_CAP == 1e7
    assert cmj._block_size(config) == 1
    # so does an exponential walk with a grid (no Poisson last generation)
    grid = np.array([0.0, 4400.0])
    assert cmj._block_size(SimConfig(EXP1, levels=2, horizon=4400.0, grid=grid)) == 1


def _each_worker_count(monkeypatch, run):
    """run() with ITERLOG_THREADS at 1, 2 and 8, the last on 8 reported cpus."""
    monkeypatch.setattr(dist.os, "cpu_count", lambda: 8)
    out = []
    for w in ("1", "2", "8"):
        monkeypatch.setenv("ITERLOG_THREADS", w)
        out.append(run())
    return out


@pytest.mark.parametrize("config, block", BLOCK_CONFIGS[:3])
def test_ensembles_independent_of_worker_count(config, block, monkeypatch):
    runs = _each_worker_count(monkeypatch, lambda: monte_carlo(config).counts)
    assert runs[0].shape == (config.replicas, config.levels)
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])
    # block b is drawn from substream b of (seed, stream_offset)
    for b in (0, 1):
        rows = range(config.replicas)[b * block : (b + 1) * block]
        rng = RngStream(config.seed, config.stream_offset, b).generator()
        counts, _, _ = cmj._simulate_block(config, len(rows), rng)
        assert np.array_equal(runs[0][rows], counts)
    if config.law == EXP1:
        v_eval = ExponentialRenewal(1.0)
        parts = _each_worker_count(monkeypatch, lambda: decomposition_ensemble(config, 2, v_eval))
        assert parts[0].shape == (config.replicas, 3)
        assert np.array_equal(parts[0], parts[1]) and np.array_equal(parts[0], parts[2])
        assert np.array_equal(parts[0][:, 2], runs[0][:, 1] - v_eval.at(2, config.horizon))


def test_block_paths_recount_each_replica(monkeypatch):
    base, _ = BLOCK_CONFIGS[1]
    config = SimConfig(
        base.law, levels=3, horizon=base.horizon, eta=base.eta, grid=base.grid,
        seed=11,
    )
    kernel, drawn = cmj._children, []

    def spy(*args):
        out = kernel(*args)
        drawn.append(out)
        return out

    monkeypatch.setattr(cmj, "_children", spy)
    n = 20
    counts, paths, (births1, owners1) = cmj._simulate_block(config, n, RngStream(11, 0).generator())
    assert paths.shape == (n, 3, config.grid.size) and len(drawn) == 3
    for r in range(n):
        times = np.sort(births1[owners1 == r])
        assert np.array_equal(paths[r, 0], np.searchsorted(times, config.grid, side="right"))
        for k, (births, owners, count) in enumerate(drawn):
            mine = np.sort(births[owners == r])
            assert mine.size == counts[r, k] == count[r]
            assert np.array_equal(paths[r, k], np.searchsorted(mine, config.grid, side="right"))
    assert np.array_equal(paths[:, :, -1], counts)


@pytest.mark.parametrize("law, levels, t", [(GEOM, 3, 60.0), (EXP1, 2, 400.0)])
def test_retained_times_per_replica(law, levels, t):
    # at t = 400 some level-1 walks take a second round, so a replica's
    # births are not contiguous in the block, yet still in time order
    config = SimConfig(law, levels=levels, horizon=t, seed=3)
    n = cmj._block_size(config) + 3
    counts, _, (births1, owners1) = cmj._simulate_block(config, n, RngStream(3, 0).generator())
    assert births1.shape == owners1.shape and set(owners1.tolist()) <= set(range(n))
    assert [np.count_nonzero(owners1 == r) for r in range(n)] == list(counts[:, 0])
    for r in range(n):
        times = births1[owners1 == r]
        assert np.all(np.diff(times) > 0)
        assert times.size == 0 or (times[0] > 0 and times[-1] <= t)


def test_exponential_means_four_sigma_gate():
    # E Y_k(t) = t^k / k! for the unit exponential; level 3 is drawn by
    # Poisson superposition over each replica's level-2 births
    t = 30.0
    config = SimConfig(EXP1, levels=3, horizon=t, seed=27, replicas=4_000)
    assert cmj._poisson_last(config)
    summary = monte_carlo(config, workers=1)
    for k in (1, 2, 3):
        se = math.sqrt(summary.variances[k - 1] / config.replicas)
        assert abs(summary.means[k - 1] - t**k / math.factorial(k)) <= 4.0 * se


# sha256 of the little-endian int64 counts of 300 replicas at t = 60, K = 3,
# seed 7: the kernel's draws, pinned so a speed change cannot move them.
KERNEL_DIGESTS = [
    (EXP1, None, "4ca96de57cdfd9ac28e6c49625301999d260bdae97250220eaf105c06c70bad8"),
    (GEOM, None, "ec61b6e8a11728746eb1dd2fa52fce7562130e8e8b06d8d99a07fb80c50f8455"),
    (GEOM, GEOM, "1863ee9faa1d55e230ad0d9fb5db696f8015ec892c68137cbfd890348c5aaf6b"),
]


@pytest.mark.parametrize("law, eta, digest", KERNEL_DIGESTS, ids=["exp", "geom", "geom_eta"])
def test_kernel_draws_pinned(law, eta, digest):
    config = SimConfig(law, levels=3, horizon=60.0, eta=eta, seed=7, replicas=300)
    counts = monte_carlo(config, workers=1).counts
    assert counts.dtype == np.int64
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # no handle on the running process (Windows)
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_blocks_reuse_heap_pages():
    import resource  # POSIX only; the skip above leaves out Windows

    # dist keeps dist.HEAP_TOP_PAD freed bytes mapped, so once warm a block
    # reuses the pages the block before it freed; without the pad each of
    # these blocks faulted about 600 pages back in
    config = SimConfig(EXP1, levels=3, horizon=60.0, seed=3, replicas=700)
    blocks = -(-config.replicas // cmj._block_size(config))
    assert blocks == 20
    monte_carlo(config, workers=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    monte_carlo(config, workers=1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / blocks < 20
