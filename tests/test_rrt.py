"""Tree growers vs exact enumeration, the Bernoulli-sum representation,
and the profile statistic.  n counts non-root vertices throughout."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterlog.cmj import lil_statistic
from iterlog.dist import RngStream, SmoothLaw, draw_rows
from iterlog.renewal import leading_term
from iterlog.verify import _chi2_one_sample, check_rrt
from iterlog.rrt import (
    _levels,
    bernoulli_level1_sample,
    enumerate_profiles,
    grow_discrete,
    grow_yule,
    profile_pmf_from_samples,
    rrt_lil_statistic,
    sample_profiles,
    total_variation,
)


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / j for j in range(1, n + 1))


def _build_levels(parents_u: np.ndarray) -> np.ndarray:
    """Reference: levels by one scalar step per vertex, vertex m attaching to
    floor(u_m * m) (the loop the block kernel replaced)."""
    n = parents_u.size
    levels = np.zeros(n + 1, dtype=np.int64)
    for m in range(1, n + 1):
        parent = int(parents_u[m - 1] * m)
        levels[m] = levels[parent] + 1
    return levels


@pytest.mark.parametrize("rows, n, depth", [
    pytest.param(rows, n, depth, id=f"{rows}-{n}" + (f"-depth{depth}" if depth else ""))
    for rows, n in [(1, 1), (5, 1), (7, 40), (3, 1000)] for depth in (None, 1, 2)
])
def test_levels_match_scalar_loop(rows, n, depth):
    # the kernel caps levels at depth + 1; uncapped (depth n) no level reaches the cap
    depth = n if depth is None else depth
    u = np.random.default_rng(rows * n).random((rows, n))
    levels = _levels(u * np.arange(1, n + 1), depth)
    assert levels.shape == (rows, n + 1)
    for row, uniforms in zip(levels, u):
        assert np.array_equal(row, np.minimum(_build_levels(uniforms), depth + 1))


def test_levels_of_star_and_path():
    n = 2000
    star = _levels(np.zeros((2, n)), n)
    assert star[:, 0].tolist() == [0, 0] and np.all(star[:, 1:] == 1)
    # vertex m attaches to m - 1: the deepest tree, n + 1 rounds uncapped
    path = _levels(np.arange(n)[None, :], n)
    assert np.array_equal(path[0], np.arange(n + 1))
    assert np.array_equal(_levels(np.arange(n)[None, :], 3)[0], np.minimum(np.arange(n + 1), 4))


@pytest.mark.parametrize("n", [1, 2, 37, 500])
def test_growers_pin_their_draw_order(n):
    # grow_yule draws n exponentials then n uniforms; grow_discrete only the uniforms
    rng = RngStream(61, n).generator()
    epochs = np.cumsum(rng.exponential(1.0, n) / np.arange(1, n + 1))
    levels = _build_levels(rng.random(n))
    trace = grow_yule(n, 3, RngStream(61, n))
    assert np.array_equal(trace.epochs, epochs) and np.array_equal(trace.levels, levels)
    trace = grow_discrete(n, 3, RngStream(62, n))
    assert trace.epochs is None
    assert np.array_equal(trace.levels, _build_levels(RngStream(62, n).generator().random(n)))
    assert np.array_equal(sample_profiles(n, 3, RngStream(62, n), 1)[0], trace.counts(3))


def test_enumerate_one_vertex():
    assert enumerate_profiles(1) == {(1,): 1.0}


def test_enumerate_two_vertices():
    pmf = enumerate_profiles(2)
    assert pmf[(2, 0)] == pytest.approx(0.5)
    assert pmf[(1, 1)] == pytest.approx(0.5)


def test_enumerate_three_vertices_hand_values():
    # six equally likely parent sequences, tallied by hand
    pmf = enumerate_profiles(3)
    assert pmf[(3, 0, 0)] == pytest.approx(1.0 / 6.0)
    assert pmf[(2, 1, 0)] == pytest.approx(3.0 / 6.0)
    assert pmf[(1, 2, 0)] == pytest.approx(1.0 / 6.0)
    assert pmf[(1, 1, 1)] == pytest.approx(1.0 / 6.0)


def test_enumerate_means_match_harmonic_numbers():
    for n in (3, 4, 5):
        pmf = enumerate_profiles(n)
        mean_level1 = sum(key[0] * p for key, p in pmf.items())
        assert mean_level1 == pytest.approx(_harmonic(n), abs=1e-12)
        for key in pmf:
            assert sum(key) == n


def _enumerated_profiles(n: int, k_max: int | None = None) -> dict[tuple, float]:
    """Reference: the profile law by brute force over all n! attachment
    sequences, each sequence id decoded by mixed radix into parent choices."""
    k = n if k_max is None else min(k_max, n)
    codes = np.arange(math.factorial(n), dtype=np.int64)[:, None]
    m = np.arange(1, n + 1)
    levels = _levels(codes // np.concatenate(([1], np.cumprod(m[:-1]))) % m, n)
    return profile_pmf_from_samples(np.stack([(levels == j).sum(axis=1) for j in range(1, k + 1)], axis=1))


@pytest.mark.parametrize("k_max", [1, 2, 3, None])
@pytest.mark.parametrize("n", range(1, 9))
def test_chain_is_bit_identical_to_brute_force(n, k_max):
    got, want = enumerate_profiles(n, k_max), _enumerated_profiles(n, k_max)
    assert list(got) == list(want)  # the same keys, in ascending order
    assert all(got[key] == want[key] for key in want)


@pytest.mark.parametrize("k_max", [2, 3])
@pytest.mark.parametrize("n", [12, 30])
def test_chain_means_follow_the_mean_recurrence(n, k_max):
    # E X_n(k) = sum_{m=1}^{n} E X_{m-1}(k-1)/m with X(0) = 1, since vertex m joins level k
    # with probability X_{m-1}(k-1)/m; the sum runs one m at a time, in exact rationals
    mean = [Fraction(1)] + [Fraction(0)] * k_max
    for m in range(1, n + 1):
        mean = [mean[0]] + [mean[k] + mean[k - 1] / m for k in range(1, k_max + 1)]
    pmf = enumerate_profiles(n, k_max)
    assert math.fsum(pmf.values()) == pytest.approx(1.0, rel=1e-15)
    for k in range(1, k_max + 1):
        got = math.fsum(key[k - 1] * p for key, p in pmf.items())
        assert got == pytest.approx(float(mean[k]), rel=1e-13)


def test_enumerate_accepts_chains_up_to_the_state_limit():
    # C(117, 3) + C(116, 1) = 260246 states, the largest n at K = 2
    assert math.fsum(enumerate_profiles(116, 2).values()) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize(
    "n, k_max", [(19, None), (724, 1), (117, 2), (51, 3), (10**9, 2), (10**9, None), (10**6, 5 * 10**5)]
)
def test_enumerate_refuses_chains_over_the_state_limit(n, k_max):
    # C(n+1, K+1) + sum_{j<K} C(n, j) states in all: each case is one n past the limit or far past it,
    # and is refused before any step runs
    k = n if k_max is None else k_max
    with pytest.raises(ValueError, match=f"profile chain at n = {n}, K = {k} walks more than 262144 states"):
        enumerate_profiles(n, k_max)


def test_every_grower_needs_a_level():
    for call in (
        lambda: grow_discrete(5, 0, RngStream(0, 0)),
        lambda: grow_yule(5, 0, RngStream(0, 0)),
        lambda: sample_profiles(5, 0, RngStream(0, 0), 3),
        lambda: enumerate_profiles(3, 0),
        lambda: grow_discrete(5, 2, RngStream(0, 0)).counts_at(5, 0),
        lambda: grow_discrete(5, 2, RngStream(0, 0)).counts_at(5, -1),
    ):
        with pytest.raises(ValueError, match="need k_max >= 1"):
            call()


def test_single_attachment_forced():
    trace = grow_discrete(1, 1, RngStream(0, 0))
    assert trace.counts(1)[0] == 1
    assert np.all(bernoulli_level1_sample(1, RngStream(0, 1), 5) == 1)


def test_conservation_both_growers():
    for grower in (grow_discrete, grow_yule):
        trace = grower(200, 6, RngStream(17, 0))
        counts = np.bincount(trace.levels[1:])
        assert counts.sum() == 200
        assert trace.counts(trace.levels.max()).sum() == 200
        for m in (0, 1, 50, 200):
            assert trace.counts_at(m, trace.levels.max()).sum() == m


def test_profile_zero_stays_zero():
    trace = grow_discrete(100, 8, RngStream(19, 0))
    counts = trace.counts(8)
    seen_zero = False
    for value in counts:
        if seen_zero:
            assert value == 0
        if value == 0:
            seen_zero = True


def test_history_is_cumulative():
    trace = grow_discrete(50, 4, RngStream(23, 0))
    hist = np.array([trace.counts_at(m, 1)[0] for m in range(51)])
    assert np.array_equal(hist, np.cumsum(trace.levels == 1))
    assert hist[0] == 0
    assert np.all(np.diff(hist) >= 0)
    assert hist[-1] == trace.counts(1)[0]


def test_discrete_law_vs_enumeration():
    exact = enumerate_profiles(4)
    samples = sample_profiles(4, 4, RngStream(29, 0), 30_000)
    tv = total_variation(profile_pmf_from_samples(samples), exact)
    assert tv < 0.03


def test_yule_law_vs_enumeration():
    exact = enumerate_profiles(5)
    reps = 20_000
    rows = np.empty((reps, 5), dtype=np.int64)
    for r in range(reps):
        rows[r] = grow_yule(5, 5, RngStream(31, r)).counts(5)
    tv = total_variation(profile_pmf_from_samples(rows), exact)
    assert tv < 0.04


def _pmf_by_unique_rows(samples):
    uniq, counts = np.unique(samples, axis=0, return_counts=True)
    r = samples.shape[0]
    return {tuple(int(x) for x in row): int(c) / r for row, c in zip(uniq, counts)}


@pytest.mark.parametrize("low, high", [(0, 7), (-3, 4), (0, 2**20)])
def test_profile_pmf_matches_unique_rows(low, high):
    # the last case has a key space past int64 and takes the fallback
    samples = np.random.default_rng(5).integers(low, high, (3000, 4))
    samples[:1000] = samples[0]
    pmf = profile_pmf_from_samples(samples)
    expected = _pmf_by_unique_rows(samples)
    assert pmf == expected
    assert list(pmf) == list(expected)
    assert profile_pmf_from_samples(samples[:0]) == {}


def test_check_rrt_independent_of_worker_count(monkeypatch):
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    serial = [r.to_dict() for r in check_rrt(3)]
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    assert serial == [r.to_dict() for r in check_rrt(3)]


def test_yule_epochs():
    trace = grow_yule(500, 3, RngStream(37, 0))
    assert trace.epochs.size == 500
    assert np.all(np.diff(trace.epochs) > 0)
    # the tree holds one vertex at time 0 and all 501 from tau_n on
    assert np.searchsorted(trace.epochs, 0.0, side="right") == 0 < trace.epochs[0]
    assert 1 + np.searchsorted(trace.epochs, trace.epochs[-1], side="right") == 501


def test_first_epoch_is_unit_exponential():
    reps = 10_000
    gaps = np.array(
        [grow_yule(1, 1, RngStream(41, r)).epochs[0] for r in range(reps)]
    )
    assert abs(gaps.mean() - 1.0) < 0.02


def test_yule_limit_report():
    # e^{-tau_n} n stabilizes to a positive random value; descriptive only
    values = [2000 * math.exp(-grow_yule(2000, 1, RngStream(43, r)).epochs[-1]) for r in range(20)]
    assert np.all(np.isfinite(values))
    assert np.all(np.array(values) > 0)


def test_bernoulli_mean_matches_harmonic():
    reps, n = 10_000, 100
    values = bernoulli_level1_sample(n, RngStream(47, 0), reps)
    sd = math.sqrt(math.fsum((1.0 / j) * (1.0 - 1.0 / j) for j in range(1, n + 1)))
    assert abs(values.mean() - _harmonic(n)) <= 4.0 * sd / math.sqrt(reps)


def test_level1_sample_has_the_exact_law():
    # Pearson's test of 20k trees' level 1 against the level-count chain's exact law
    n, reps = 20, 20_000
    exact = enumerate_profiles(n, 1)
    grown = sample_profiles(n, 1, RngStream(53, 0), reps)[:, 0]
    assert _chi2_one_sample(grown, np.array([exact.get((x,), 0.0) for x in range(n + 1)])) > 0.01


def test_statistic_values():
    n = 10**6
    assert rrt_lil_statistic(math.log(n) ** 2 / 2.0, n, 2) == 0.0
    value = rrt_lil_statistic(20.0, n, 1)
    ln = math.log(n)
    expected = (20.0 - ln) / math.sqrt(2.0 * ln * math.log(math.log(ln)))
    assert value == pytest.approx(expected)
    assert value == pytest.approx(1.1974, abs=2e-4)


def test_statistic_is_the_branching_statistic_at_log_n():
    # the tree statistic is the unit exponential law's statistic at t = log n
    m = SmoothLaw("exp", {"rate": 1.0}).moments()
    for n, k, x in ((16, 1, 3.0), (10_000, 2, 40.0), (20_000, 4, 7.0)):
        t = math.log(n)
        assert rrt_lil_statistic(x, n, k) == lil_statistic(x, k, t, m, leading_term(k, 1.0, t))
    xs = np.arange(30, dtype=np.int64)
    t = math.log(10_000)
    row = rrt_lil_statistic(xs, 10_000, 2)
    assert row.shape == (30,)
    assert np.array_equal(row, [rrt_lil_statistic(float(x), 10_000, 2) for x in xs])
    assert np.array_equal(row, lil_statistic(xs, 2, t, m, leading_term(2, 1.0, t)))


def test_statistic_domain():
    with pytest.raises(ValueError, match="undefined"):
        rrt_lil_statistic(1.0, 15, 1)
    # the caller passes n, so the message names n and its bound e^e, also where log n fails first
    for n in (15, 1, 0, -3):
        with pytest.raises(ValueError, match=rf"undefined for n <= e\^e = 15\.1543, got n = {n}$"):
            rrt_lil_statistic(1.0, n, 1)
    assert math.isfinite(rrt_lil_statistic(1.0, 16, 1))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_grower_conservation_property(n, seed):
    trace = grow_discrete(n, 4, RngStream(seed, 0))
    assert trace.levels[0] == 0
    assert np.all(trace.levels[1:] >= 1)
    assert trace.counts(int(trace.levels.max())).sum() == n


# 50 uniforms a tree: 1310 trees a chunk, so 4000 trees fill three chunks and a ragged fourth
# sha256 of the little-endian int64 profiles: 5000 trees of 50 vertices in
# chunks of 1310, and one chunk of 10000 trees of 6 vertices with K = 3
@pytest.mark.parametrize("rows, digest", [
    (lambda: sample_profiles(50, 1, RngStream(7, 3), 5000),
     "d596578cc29d1fd297f9da21ea35f9fbce6df01e43abd4701c9e2eba8c20b829"),
    (lambda: sample_profiles(6, 3, RngStream(7, 3), 10000),
     "8f83d1879539c60289913bfdce1cd4500f725e921cc16f65454722e5cd0c7d27"),
], ids=["sample_profiles", "sample_profiles_n6_k3"])
def test_profile_draws_pinned(rows, digest):
    assert hashlib.sha256(rows().astype("<i8").tobytes()).hexdigest() == digest


CHUNKED_N, CHUNKED_REPS = 50, 4000


def test_sample_profiles_chunks_draw_one_block():
    n, reps, k_max = CHUNKED_N, CHUNKED_REPS, 3
    sizes = []
    draw_rows(lambda rng, r: sizes.append(r) or np.zeros((r, k_max)), None, reps, n)
    assert sizes == [0, 1310, 1310, 1310, 70]
    # one-shot: all parent uniforms as one (reps, n) array, then one level kernel
    u = RngStream(71, 5).generator().random((reps, n))
    levels = _levels((u * np.arange(1, n + 1)).astype(np.int32), n)
    expected = np.stack([(levels == k).sum(axis=1) for k in range(1, k_max + 1)], axis=1)
    got = sample_profiles(n, k_max, RngStream(71, 5), reps)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


def test_bernoulli_sample_chunks_draw_one_block():
    n, reps = CHUNKED_N, CHUNKED_REPS
    u = RngStream(73, 2).generator().random((reps, n))
    expected = (u * np.arange(1, n + 1) < 1.0).sum(axis=1)
    got = bernoulli_level1_sample(n, RngStream(73, 2), reps)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    # at c7b's shape it is level 1 of the tree sampler on the same stream, bit for bit, and keeps
    # the sha256 it had when it drew (u * m < 1).sum() itself
    bern = bernoulli_level1_sample(50, RngStream(7, 3), 100_000)
    assert bern.tobytes() == sample_profiles(50, 1, RngStream(7, 3), 100_000)[:, 0].tobytes()
    assert hashlib.sha256(bern.astype("<i8").tobytes()).hexdigest() == (
        "6cd7dbfb5c78a31874ad0c01d1252c6a9108a94b5c8501653606f015baf4b5a1"
    )


def test_samplers_refuse_empty_blocks():
    for call in (
        lambda: sample_profiles(5, 1, RngStream(0, 0), 0),
        lambda: sample_profiles(0, 1, RngStream(0, 0), 3),
        lambda: bernoulli_level1_sample(5, RngStream(0, 0), 0),
        lambda: bernoulli_level1_sample(0, RngStream(0, 0), 3),
    ):
        with pytest.raises(ValueError, match="need n >= 1 and replicas >= 1"):
            call()
    for n in (0, -1):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            enumerate_profiles(n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_profiles(50, 1, RngStream(3, 0), 100_000),
        lambda: bernoulli_level1_sample(50, RngStream(3, 1), 100_000),
    ],
    ids=["sample_profiles", "bernoulli_level1_sample"],
)
def test_sampler_memory_flat_in_replicas(call):
    # one (100000, 50) block would hold 40 MB of uniforms alone
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sample_profiles_holds_its_output_once():
    # c7a's call: each chunk's profiles go straight into the output, so the output is held once
    tracemalloc.start()
    try:
        out = sample_profiles(6, 6, RngStream(7, 3), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * out.nbytes
    assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest() == (
        "27068f42abe4fc29a337d4ce57b88c91d67a5c4a6f56532047c8847880c43f82"
    )
