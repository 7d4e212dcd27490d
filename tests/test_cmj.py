"""Simulator vs exact tables and closed forms; statistics; decomposition."""

import math

import numpy as np
import pytest

from iterlog import cmj
from iterlog.cmj import (
    SimConfig,
    center_value,
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
    for law, t, replicas in ((GEOM, 200, 10_000), (LatticeLaw(1.0, slow), 60, 4_000)):
        table = renewal_table(law, 2, t)
        config = SimConfig(law, levels=2, horizon=float(t), seed=23, replicas=replicas)
        summary = monte_carlo(config)
        for k in (1, 2):
            se = math.sqrt(summary.variances[k - 1] / config.replicas)
            assert abs(summary.means[k - 1] - table.level(k)[t]) <= 4.0 * se


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


def test_monte_carlo_deterministic():
    config = SimConfig(EXP1, levels=2, horizon=30.0, seed=9, replicas=128)
    a = monte_carlo(config, workers=1)
    b = monte_carlo(config, workers=1)
    c = monte_carlo(config, workers=2)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts, c.counts)
    assert a.to_dict() == c.to_dict()
    # the perturbed kernel with a grid, serial and through the pool
    grid = np.linspace(0.0, 30.0, 7)
    config = SimConfig(GEOM, levels=3, horizon=30.0, eta=GEOM, grid=grid, seed=9, replicas=128)
    serial = monte_carlo(config, workers=1)
    pooled = monte_carlo(config, workers=2)
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
    assert lil_statistic(50.0, 2, 100.0, m, 50.0).value == 0.0
    stat = lil_statistic(110.0, 1, 100.0, m, 100.0)
    expected = 10.0 / math.sqrt(2.0 * 100.0 * math.log(math.log(100.0)))
    assert stat.value == pytest.approx(expected)
    assert stat.value == pytest.approx(0.5722, abs=2e-4)
    with pytest.raises(ValueError, match="undefined"):
        lil_statistic(1.0, 1, 2.0, m, 1.0)


def test_center_value_modes():
    m = EXP1.moments()
    assert center_value(2, 10.0, m) == 50.0
    # table mode without a table: formula plus the (vanishing) correction
    assert center_value(2, 10.0, m, mode="table") == 50.0
    table = renewal_table(GEOM, 2, 100)
    assert center_value(2, 50.0, GEOM.moments(), mode="table", table=table) == table.level(2)[50]


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
                lil_statistic(float(sim.path[0, j]), 1, float(t), m, center_value(1, float(t), m)).value
            )
    assert np.all(np.isfinite(values))


def test_decomposition_identity_exponential():
    config = SimConfig(EXP1, levels=2, horizon=80.0, seed=41, replicas=100, retain_gen1=True)
    v_eval = ExponentialRenewal(1.0)
    parts = decomposition_ensemble(config, 2, v_eval, workers=1)
    assert np.max(np.abs(parts[:, 0] + parts[:, 1] - parts[:, 2])) <= 1e-9


def test_decomposition_identity_lattice():
    table = renewal_table(GEOM, 2, 60)
    config = SimConfig(GEOM, levels=2, horizon=60.0, seed=42, replicas=50, retain_gen1=True)
    parts = decomposition_ensemble(config, 2, table, workers=1)
    assert np.max(np.abs(parts[:, 0] + parts[:, 1] - parts[:, 2])) <= 1e-9


def test_decomposition_empty_first_generation():
    v_eval = ExponentialRenewal(1.0)
    parts = decompose_fluctuation(np.empty(0), 0.0, 2, 4.0, v_eval)
    assert parts.j_k == -v_eval.at(2, 4.0)
    assert parts.i_k == 0.0


def test_decomposition_requires_times_and_level():
    v_eval = ExponentialRenewal(1.0)
    with pytest.raises(ValueError, match="retain_gen1"):
        decompose_fluctuation(None, 1.0, 2, 4.0, v_eval)
    with pytest.raises(ValueError, match="k >= 2"):
        decompose_fluctuation(np.empty(0), 1.0, 1, 4.0, v_eval)


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


def test_degenerate_law_has_no_statistics():
    config = SimConfig(UNIT, levels=1, horizon=10.0, seed=0, replicas=4)
    summary = monte_carlo(config, workers=1)
    assert summary.clt is None
    assert summary.lil is None
    assert summary.means[0] == 10.0


# Block configs: (config, block size).  A ragged last block in each; the
# second walks three generations with eta and a grid, the third retains
# its level-1 times.
BLOCK_CONFIGS = [
    (SimConfig(EXP1, levels=2, horizon=30.0, seed=5, replicas=150), 64),
    (
        SimConfig(
            GEOM, levels=3, horizon=30.0, eta=GEOM, grid=np.linspace(0.0, 30.0, 7),
            seed=5, replicas=100, stream_offset=3,
        ),
        64,
    ),
    (SimConfig(EXP1, levels=3, horizon=20.0, seed=6, replicas=100, retain_gen1=True), 64),
    (SimConfig(GEOM, levels=3, horizon=60.0, seed=7, replicas=40), 13),
]


@pytest.mark.parametrize("config, block", BLOCK_CONFIGS)
def test_block_size_from_config(config, block):
    assert cmj._block_size(config) == block


def test_block_size_near_population_cap():
    # lattice walks materialize every level: about 9.9e6 births per replica
    config = SimConfig(GEOM, levels=2, horizon=8900.0, seed=0)
    assert config.population_cap == 1e7
    assert cmj._block_size(config) == 1
    # so does an exponential walk with a grid (no Poisson last generation)
    grid = np.array([0.0, 4400.0])
    assert cmj._block_size(SimConfig(EXP1, levels=2, horizon=4400.0, grid=grid)) == 1


@pytest.mark.parametrize("config, block", BLOCK_CONFIGS[:3])
def test_ensembles_independent_of_worker_count(config, block):
    runs = [monte_carlo(config, workers=w).counts for w in (1, 2, 8)]
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
        parts = [decomposition_ensemble(config, 2, v_eval, workers=w) for w in (1, 2, 8)]
        assert parts[0].shape == (config.replicas, 3)
        assert np.array_equal(parts[0], parts[1]) and np.array_equal(parts[0], parts[2])
        assert np.array_equal(parts[0][:, 2], runs[0][:, 1] - v_eval.at(2, config.horizon))


def test_block_paths_recount_each_replica(monkeypatch):
    base, _ = BLOCK_CONFIGS[1]
    config = SimConfig(
        base.law, levels=3, horizon=base.horizon, eta=base.eta, grid=base.grid,
        seed=11, retain_gen1=True,
    )
    kernel, drawn = cmj._children, []

    def spy(*args):
        out = kernel(*args)
        drawn.append(out)
        return out

    monkeypatch.setattr(cmj, "_children", spy)
    n = 20
    counts, paths, gen1 = cmj._simulate_block(config, n, RngStream(11, 0).generator())
    assert paths.shape == (n, 3, config.grid.size) and len(drawn) == 3
    for r in range(n):
        times = np.sort(gen1[r])
        assert np.array_equal(paths[r, 0], np.searchsorted(times, config.grid, side="right"))
        for k, (births, owners) in enumerate(drawn):
            mine = np.sort(births[owners == r])
            assert mine.size == counts[r, k]
            assert np.array_equal(paths[r, k], np.searchsorted(mine, config.grid, side="right"))
    assert np.array_equal(paths[:, :, -1], counts)


@pytest.mark.parametrize("law, levels, t", [(GEOM, 3, 60.0), (EXP1, 2, 400.0)])
def test_retained_times_per_replica(law, levels, t):
    # at t = 400 some level-1 walks take a second round, so a replica's
    # births are not contiguous until they are sorted by replica
    config = SimConfig(law, levels=levels, horizon=t, seed=3, retain_gen1=True)
    n = cmj._block_size(config) + 3
    counts, _, gen1 = cmj._simulate_block(config, n, RngStream(3, 0).generator())
    assert len(gen1) == n
    assert [times.size for times in gen1] == list(counts[:, 0])
    for times in gen1:
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
