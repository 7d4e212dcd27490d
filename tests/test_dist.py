"""Law construction, exact moments, grammar, and stream reproducibility."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterlog.dist import (
    BLOCK_DRAWS,
    LatticeLaw,
    RngStream,
    SmoothLaw,
    draw_rows,
    geometric_lattice,
    map_blocks,
    parse_law,
)


def test_exponential_moments():
    m = SmoothLaw("exp", {"rate": 1.0}).moments()
    assert m.mean == 1.0
    assert m.second_moment == 2.0
    assert m.variance == 1.0


def test_gamma_and_uniform_moments():
    m = SmoothLaw("gamma", {"shape": 2.0, "rate": 1.0}).moments()
    assert m.mean == 2.0
    assert m.second_moment == 6.0
    m = SmoothLaw("unif", {"lo": 0.5, "hi": 1.5}).moments()
    assert m.mean == 1.0
    assert abs(m.variance - 1.0 / 12.0) < 1e-15


def test_geometric_moments_against_partial_sums():
    # oracle: partial sums of k (1/2)^k and k^2 (1/2)^k to machine precision
    mean_oracle = math.fsum(k * 0.5**k for k in range(1, 200))
    second_oracle = math.fsum(k * k * 0.5**k for k in range(1, 200))
    m = geometric_lattice(0.5).moments()
    assert abs(m.mean - mean_oracle) < 1e-11
    assert abs(m.second_moment - second_oracle) < 1e-10
    assert abs(m.variance - 2.0) < 1e-10


@pytest.mark.parametrize("p", [0.5, 0.3, 0.01, 0.001])
def test_geometric_support_from_closed_form_keeps_every_bit(p):
    # reference: the first m >= 1 with (1 - p)**m <= TRUNCATION_MASS, found by stepping
    m = 1
    while (1.0 - p) ** m > 1e-15:
        m += 1
    pmf = p * (1.0 - p) ** (np.arange(1, m + 1, dtype=np.float64) - 1.0)
    assert geometric_lattice(p).pmf.tobytes() == (pmf / math.fsum(pmf.tolist())).tobytes()


def test_point_mass_moments():
    m = LatticeLaw(1.0, np.array([1.0])).moments()
    assert m.mean == 1.0
    assert m.variance == 0.0


def test_span_check():
    # the constructor refuses a support whose indices share a factor > 1
    assert LatticeLaw(1.0, np.array([0.5, 0.5])).moments().mean == 1.5  # support {1, 2}
    assert LatticeLaw(1.0, np.array([0.0, 0.5, 0.5])).moments().mean == 2.5  # support {2, 3}
    with pytest.raises(ValueError, match="not maximal"):
        LatticeLaw(1.0, np.array([0.0, 0.5, 0.0, 0.5]))  # support {2, 4}
    with pytest.raises(ValueError, match="nonempty"):
        LatticeLaw(1.0, np.array([]))


def test_lattice_law_validation():
    with pytest.raises(ValueError, match="not maximal"):
        LatticeLaw(1.0, np.array([0.0, 0.5, 0.0, 0.5]))  # support {2, 4}
    with pytest.raises(ValueError, match="sum to 1"):
        LatticeLaw(1.0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="nonnegative"):
        LatticeLaw(1.0, np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="span"):
        LatticeLaw(-1.0, np.array([1.0]))


def test_sample_empty_and_point_mass():
    stream = RngStream(1, 0)
    assert SmoothLaw("exp", {"rate": 1.0}).sample(stream.generator(), 0).size == 0
    draws = LatticeLaw(1.0, np.array([1.0])).sample(RngStream(1, 1).generator(), 3)
    assert np.array_equal(draws, [1.0, 1.0, 1.0])


def test_sample_reproducible_and_stream_independent():
    law = SmoothLaw("exp", {"rate": 2.0})
    a = law.sample(RngStream(42, 7).generator(), 100)
    b = law.sample(RngStream(42, 7).generator(), 100)
    c = law.sample(RngStream(42, 8).generator(), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_schedule_independent():
    # drawing replica streams in any order yields identical per-stream values
    law = geometric_lattice(0.5)
    forward = {i: law.sample(RngStream(9, i).generator(), 50) for i in range(5)}
    backward = {i: law.sample(RngStream(9, i).generator(), 50) for i in reversed(range(5))}
    for i in range(5):
        assert np.array_equal(forward[i], backward[i])


def test_sample_stream_is_stateful():
    law = SmoothLaw("exp", {"rate": 1.0})
    stream = RngStream(3, 0)
    first = law.sample(stream.generator(), 10)
    second = law.sample(stream.generator(), 10)
    combined = law.sample(RngStream(3, 0).generator(), 20)
    assert np.array_equal(np.concatenate([first, second]), combined)


def test_substream_zero_is_the_stream():
    first = RngStream(42, 7).generator().random(1000)
    assert np.array_equal(RngStream(42, 7, 0).generator().random(1000), first)


def test_substreams_differ_from_each_other_and_from_other_indices():
    one = RngStream(42, 7, 1).generator().random(1000)
    assert not np.array_equal(one, RngStream(42, 7).generator().random(1000))
    assert not np.array_equal(one, RngStream(42, 8).generator().random(1000))
    assert not np.array_equal(one, RngStream(42, 7, 2).generator().random(1000))
    assert np.array_equal(one, RngStream(42, 7, 1).generator().random(1000))
    with pytest.raises(ValueError, match="substream"):
        RngStream(42, 7, -1)


def _tagged_rows(rng, rows, tag):
    # (tag, row within the block, first uniform of the block's generator) for each replica
    u = rng.random()
    return np.array([(tag, r, u) for r in range(rows)])


@pytest.mark.parametrize("total, block", [(1000, 128), (200, 1), (64, 64), (5, 128)])
def test_map_blocks_rows_in_replica_order(total, block, monkeypatch):
    monkeypatch.setenv("ITERLOG_THREADS", "1")
    serial = map_blocks(_tagged_rows, RngStream(3, 5), total, block, 7)
    assert serial.shape == (total, 3)
    assert np.all(serial[:, 0] == 7)
    assert np.array_equal(serial[:, 1], np.arange(total) % block)
    # block b draws from substream b of the stream: block 0 from the stream itself
    blocks = np.arange(total) // block
    firsts = [RngStream(3, 5, b).generator().random() for b in range(blocks[-1] + 1)]
    assert np.array_equal(serial[:, 2], np.array(firsts)[blocks])
    monkeypatch.setenv("ITERLOG_THREADS", "2")
    pooled = map_blocks(_tagged_rows, RngStream(3, 5), total, block, 7)
    assert np.array_equal(serial, pooled)


@pytest.mark.parametrize("rows, cells, sizes", [
    (3, BLOCK_DRAWS + 1, [1, 1, 1]),  # a row past the budget is a chunk alone
    (5, 10, [5]),  # fewer rows than a chunk holds: one chunk
    (9, BLOCK_DRAWS // 4, [4, 4, 1]),  # the last chunk is ragged
], ids=["row_past_budget", "rows_below_step", "ragged"])
def test_draw_rows_chunks_in_order(rows, cells, sizes):
    seen, marker = [], object()

    def tagged(rng, r):
        # each row of chunk i is a 2 x 3 int16 grid of i: fn sets the trailing shape and dtype
        assert rng is marker
        seen.append(r)
        return np.full((r, 2, 3), len(seen) - 1, dtype=np.int16)

    got = draw_rows(tagged, marker, rows, cells)
    assert seen == [0] + sizes  # the empty first call fixes the output before any chunk
    assert got.dtype == np.int16
    chunk = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    assert np.array_equal(got, np.broadcast_to(chunk[:, None, None], (rows, 2, 3)))


def test_exponential_mean_law_of_large_numbers():
    draws = SmoothLaw("exp", {"rate": 1.0}).sample(RngStream(123, 0).generator(), 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.005


def test_lattice_samples_stay_on_support():
    law = geometric_lattice(0.5, span=0.25)
    draws = law.sample(RngStream(5, 0).generator(), 10_000)
    assert set(np.unique(draws)) <= set(law.span * np.arange(1, law.pmf.size + 1))


@pytest.mark.parametrize(
    "law",
    [geometric_lattice(0.5, span=0.25), LatticeLaw(0.3, np.array([0.2, 0.0, 0.5, 0.3]))],
)
def test_lattice_sample_matches_tables_built_from_scratch(law):
    # the cached cdf and sites draw exactly what fresh ones would
    for seed in (0, 1):
        u = RngStream(seed, 4).generator().random(10_000)
        idx = np.searchsorted(np.cumsum(law.pmf), u, side="right")
        expected = (law.span * np.arange(1, law.pmf.size + 1, dtype=np.float64))[idx]
        assert np.array_equal(law.sample(RngStream(seed, 4).generator(), 10_000), expected)
    rng = RngStream(9, 0).generator()
    first, second = law.sample(rng, 64), law.sample(rng, 64)
    both = law.sample(RngStream(9, 0).generator(), 128)
    assert np.array_equal(np.concatenate([first, second]), both)


class _Uniforms:
    """Stands in for a generator: ``random(n)`` hands out the next n of a fixed
    list of uniforms, so a sampler can be fed chosen values."""

    def __init__(self, u):
        self.u, self.at = np.asarray(u, dtype=np.float64), 0

    def random(self, n):
        self.at += n
        return self.u[self.at - n : self.at]


def _inverse_cdf(law, u):
    """Sites by the plain inverse cdf: a binary search of the fresh cumsum, a
    uniform past its end drawing the last site with mass."""
    idx = np.clip(np.searchsorted(np.cumsum(law.pmf), u, side="right"), 0, np.flatnonzero(law.pmf)[-1])
    return (law.span * np.arange(1, law.pmf.size + 1))[idx]


def _edge_uniforms(law):
    """Every cdf value, the double below each, every guide bucket edge b/G and
    the double below it, and the doubles next to 1, all inside [0, 1)."""
    edges = np.arange(law._guide.size) / law._guide.size
    u = np.concatenate([np.cumsum(law.pmf), edges, [1.0, 1.0 - 5e-14]])
    u = np.unique(np.concatenate([u, np.nextafter(u, 0.0)]))
    return u[(u >= 0.0) & (u < 1.0)]


SAMPLER_LAWS = [
    parse_law("geom:p=0.5"),
    parse_law("geom:p=0.001"),
    LatticeLaw(1.0, np.array([1.0])),
    LatticeLaw(0.5, np.array([0.25, 0.5, 0.25])),
    parse_law("lattice:d=1;p=0.3,0.7"),
    LatticeLaw(1.0, np.array([0.5, 0.5 - 1e-13])),  # mass 1 - 1e-13: u can pass the cdf's end
]


@pytest.mark.parametrize("law", SAMPLER_LAWS, ids=["geom", "geom_wide", "point", "dyadic", "two", "short"])
@pytest.mark.parametrize("n", [0, 1, 64, 65536])
def test_guided_sample_is_the_inverse_cdf(law, n):
    # the guide table gives the index of the binary search for every uniform,
    # also on the cdf values, just below them and on the bucket edges, drawn
    # in batches of n
    u = np.concatenate([_edge_uniforms(law), RngStream(n, 5).generator().random(n)])
    if n == 1:
        u = u[:: -(-u.size // 4096)]  # one call a uniform: a spread of 4096 at most
    u = u[: u.size - u.size % n] if n else u[:0]
    rng = _Uniforms(u)
    draws = [law.sample(rng, n) for _ in range(u.size // n if n else 1)]
    assert rng.at == u.size and np.array_equal(np.concatenate(draws), _inverse_cdf(law, u))


@pytest.fixture(scope="module")
def long_law():
    return geometric_lattice(1e-5)  # 3,453,861 sites


@pytest.mark.parametrize(
    "law, digest",
    [
        (SAMPLER_LAWS[0], "c671cd3808e6fa6386cc9bb3d6bcb42c2e063cc431603392bf0dfdd441b652db"),
        (SAMPLER_LAWS[1], "e856e90dd8161431a1c4a825d65600bba29757b955d6fa52ccc7acb94f371808"),
        (LatticeLaw(0.3, np.array([0.2, 0.0, 0.5, 0.3])),
         "9c3ba2466e9afcbe8d0e032de40c96ac44a681d1b437fc637f5ff9ecb4f5d61a"),
    ],
    ids=["law0", "law1", "law2"],
)
def test_with_span_is_the_law_built_on_that_span(law, digest, long_law):
    moved, fresh = law.with_span(3.0), LatticeLaw(3.0, law.pmf)
    assert moved == fresh and moved._cdf is law._cdf and moved._guide is law._guide and law.span != 3.0
    assert np.array_equal(moved.sample(RngStream(2, 0).generator(), 5000), fresh.sample(RngStream(2, 0).generator(), 5000))
    # a draw is span * site, one rounding: the draws at non-dyadic spans keep their bits
    drawn = hashlib.sha256()
    for span in (0.3, 0.1, 2 / 3, 1e-3, 7.0):
        drawn.update(law.with_span(span).sample(RngStream(2, 0).generator(), 5000).tobytes())
    assert drawn.hexdigest() == digest
    # the new span costs no array of sites
    tracemalloc.start()
    try:
        long_law.with_span(3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for span in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="span must be finite and positive"):
            law.with_span(span)


def test_guide_table_size():
    assert [law._guide.size for law in SAMPLER_LAWS] == [256, 1 << 16, 256, 256, 256, 256]
    assert parse_law("geom:p=0.01")._guide.size == 16384  # 3437 sites: 4 * 3437 rounded up
    short = SAMPLER_LAWS[-1]
    past = np.array([np.nextafter(1.0, 0.0), 1.0 - 5e-14])
    assert np.array_equal(short.sample(_Uniforms(past), 2), [2.0, 2.0])


def test_long_law_builds_without_python_lists():
    # the pmf check, the gcd and the moments read the arrays, not a list of floats a site
    tracemalloc.start()
    try:
        law = geometric_lattice(1e-4)
        m = law.moments()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = law.pmf.nbytes + law._cdf.nbytes + law._guide.nbytes
    assert peak < 2.5 * arrays
    assert law.pmf.size == 345371
    assert (m.mean, m.second_moment) == (10000.000000000755, 199989999.99991786)
    assert hashlib.sha256(law.pmf.tobytes()).hexdigest() == (
        "fb993a0a3a38f99f58be829dd3dcbda86d84297fab5117f0dd9bc9abc65d0af4"
    )


def test_zero_mass_tail_is_never_drawn():
    # ten masses of 0.1 sum to 1 - 2^-53, so the largest uniform lies past the
    # cdf's last finite value; it draws the last site with mass, not site 11
    law = parse_law("lattice:d=1;p=" + ",".join(["0.1"] * 10 + ["0"]))
    assert np.cumsum(law.pmf)[9] == np.nextafter(1.0, 0.0)
    assert np.array_equal(law.sample(_Uniforms([np.nextafter(1.0, 0.0)]), 1), [10.0])


@st.composite
def random_pmfs(draw):
    size = draw(st.integers(min_value=1, max_value=300))
    weights = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.1, 0.5, 1.0, 3.0]), min_size=size, max_size=size))
    pmf = np.array(weights)
    pmf[0] = draw(st.floats(0.01, 1.0))  # mass at index 1 keeps the span maximal
    return LatticeLaw(1.0, pmf / math.fsum(pmf.tolist()))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(random_pmfs(), st.integers(min_value=0, max_value=2**32))
def test_guided_sample_is_the_inverse_cdf_property(law, seed):
    u = np.concatenate([_edge_uniforms(law), RngStream(seed, 0).generator().random(200)])
    assert np.array_equal(law.sample(_Uniforms(u), u.size), _inverse_cdf(law, u))


def _state(stream):
    return repr(stream.generator().bit_generator.state)


@pytest.mark.parametrize("b", [1, 2, 1666, 2**64 + 3])
def test_substream_is_the_jumped_stream(b):
    # the counter is set to b * 2**128 directly: the state Philox.jumped(b) reaches
    bits = np.random.Philox(np.random.SeedSequence(entropy=42, spawn_key=(7,)))
    assert _state(RngStream(42, 7, b)) == repr(bits.jumped(b).state)
    assert _state(RngStream(42, 7, 0)) == repr(bits.state)


def test_substream_range():
    # jumped(2**128) wraps to substream 0; the last substream opens, the next is refused
    last = RngStream(1, 0, 2**128 - 1).generator().bit_generator.state["state"]["counter"]
    assert last.tolist() == [0, 0, 2**64 - 1, 2**64 - 1]
    with pytest.raises(ValueError, match="substream"):
        RngStream(1, 0, 2**128)


@st.composite
def lattice_laws(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=size, max_size=size)
    )
    pmf = np.array(weights)
    pmf[0] = max(pmf[0], 0.01)  # mass at index 1 keeps the span maximal
    pmf /= math.fsum(pmf.tolist())
    span = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return LatticeLaw(span, pmf)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(lattice_laws())
def test_moment_identity_property(law):
    m = law.moments()
    assert m.variance >= -1e-15
    assert abs(m.variance - (m.second_moment - m.mean**2)) < 1e-12
    w = np.arange(1, law.pmf.size + 1) * law.span
    assert abs(m.mean - float(np.dot(w, law.pmf))) < 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(lattice_laws(), st.integers(min_value=0, max_value=2**32))
def test_lattice_sampling_support_property(law, seed):
    draws = law.sample(RngStream(seed, 0).generator(), 500)
    support = set((law.span * np.arange(1, law.pmf.size + 1))[law.pmf > 0])
    assert set(np.unique(draws)) <= support


def test_law_grammar():
    assert parse_law("exp:rate=1.0") == SmoothLaw("exp", {"rate": 1.0})
    assert parse_law("gamma:shape=2,rate=1") == SmoothLaw("gamma", {"shape": 2.0, "rate": 1.0})
    assert parse_law("unif:lo=0.5,hi=1.5") == SmoothLaw("unif", {"lo": 0.5, "hi": 1.5})
    law = parse_law("lattice:d=1;p=0.5,0.3,0.2")
    assert law.span == 1.0
    assert np.array_equal(law.pmf, [0.5, 0.3, 0.2])
    geom = parse_law("geom:p=0.5")
    assert geom.pmf.size == 50


def _format_law(law) -> str:
    """A law in the grammar, every number at 17 significant digits."""
    if isinstance(law, LatticeLaw):
        return f"lattice:d={law.span:.17g};p=" + ",".join(f"{x:.17g}" for x in law.pmf)
    return f"{law.family}:" + ",".join(f"{k}={v:.17g}" for k, v in law.params.items())


def test_law_grammar_round_trip():
    for spec in ("exp:rate=2", "gamma:shape=3,rate=0.5", "lattice:d=0.5;p=0.25,0.75", "geom:p=0.3,d=0.7"):
        law = parse_law(spec)
        assert parse_law(_format_law(law)) == law


@pytest.mark.parametrize(
    "bad",
    ["nolaw", "exp:lambda=1", "weird:a=1", "lattice:d=1", "unif:lo=2,hi=1", "exp:rate=-1"],
)
def test_law_grammar_errors(bad):
    with pytest.raises(ValueError):
        parse_law(bad)


@pytest.mark.parametrize(
    "spec, law, extra, message",
    [
        ("lattice:d=1;p=0.5,0.5", LatticeLaw(1.0, np.array([0.5, 0.5])), "lattice:d=1,x=2;p=0.5,0.5",
         "lattice law takes d, not x"),
        ("geom:p=0.5,d=2", geometric_lattice(0.5, 2.0), "geom:p=0.5,d=2,q=1", "geom law takes p, d, not q"),
        ("exp:rate=1", SmoothLaw("exp", {"rate": 1.0}), "exp:rate=1,rat=3", "exp law takes rate, not rat"),
        ("gamma:shape=2,rate=1", SmoothLaw("gamma", {"shape": 2.0, "rate": 1.0}),
         "gamma:shape=2,rate=1,scale=1", "gamma law takes shape, rate, not scale"),
        ("unif:lo=0.5,hi=1.5", SmoothLaw("unif", {"lo": 0.5, "hi": 1.5}), "unif:lo=0.5,hi=1.5,mid=1,z=0",
         "unif law takes lo, hi, not mid, z"),
    ],
)
def test_law_spec_refuses_keys_it_does_not_read(spec, law, extra, message):
    assert parse_law(spec) == law
    with pytest.raises(ValueError, match=message):
        parse_law(extra)


@pytest.mark.parametrize(
    "spec",
    ["exp:rate=nan", "exp:rate=inf", "gamma:shape=nan,rate=1", "gamma:shape=1,rate=inf", "unif:lo=0,hi=inf",
     "lattice:d=nan;p=1", "lattice:d=inf;p=1", "lattice:d=1;p=0.5,nan", "geom:p=0.5,d=nan"],
)
def test_non_finite_law_parameters_refused(spec):
    # each once printed a NaN, an Infinity or a zero mean
    with pytest.raises(ValueError, match="finite|inf|nonnegative"):
        parse_law(spec)


def test_smooth_law_validation():
    with pytest.raises(ValueError, match="family"):
        SmoothLaw("cauchy", {})
    with pytest.raises(ValueError, match="rate"):
        SmoothLaw("exp", {"rate": 0.0})
    with pytest.raises(ValueError, match="lo"):
        SmoothLaw("unif", {"lo": -0.5, "hi": 1.0})
