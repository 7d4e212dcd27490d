"""Law construction, exact moments, grammar, and stream reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterlog.dist import (
    LatticeLaw,
    RngStream,
    SmoothLaw,
    format_law,
    geometric_lattice,
    lattice_span_check,
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


def test_point_mass_moments():
    m = LatticeLaw(1.0, np.array([1.0])).moments()
    assert m.mean == 1.0
    assert m.variance == 0.0


def test_span_check():
    assert lattice_span_check([1, 2]) is True
    assert lattice_span_check([2, 4]) is False
    assert lattice_span_check([2, 3]) is True
    with pytest.raises(ValueError, match="empty law"):
        lattice_span_check([])


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


def _tagged_rows(b, rows, seed):
    # (block, replica, first uniform of the block's substream) for each replica
    u = RngStream(seed, 0, b).generator().random()
    return np.array([(b, r, u) for r in rows])


@pytest.mark.parametrize("total, block", [(1000, 128), (200, 1), (64, 64), (5, 128)])
def test_map_blocks_rows_in_replica_order(total, block):
    serial = map_blocks(_tagged_rows, total, block, 1, 3)
    assert serial.shape == (total, 3)
    assert np.array_equal(serial[:, 1], np.arange(total))
    assert np.array_equal(serial[:, 0], np.arange(total) // block)
    pooled = map_blocks(_tagged_rows, total, block, 2, 3)
    assert np.array_equal(serial, pooled)


def test_exponential_mean_law_of_large_numbers():
    draws = SmoothLaw("exp", {"rate": 1.0}).sample(RngStream(123, 0).generator(), 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.005


def test_lattice_samples_stay_on_support():
    law = geometric_lattice(0.5, span=0.25)
    draws = law.sample(RngStream(5, 0).generator(), 10_000)
    assert set(np.unique(draws)) <= set(law.support)


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
    support = set(law.support[law.pmf > 0])
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


def test_law_grammar_round_trip():
    for spec in ("exp:rate=2", "gamma:shape=3,rate=0.5", "lattice:d=0.5;p=0.25,0.75"):
        law = parse_law(spec)
        assert parse_law(format_law(law)) == law


@pytest.mark.parametrize(
    "bad",
    ["nolaw", "exp:lambda=1", "weird:a=1", "lattice:d=1", "unif:lo=2,hi=1", "exp:rate=-1"],
)
def test_law_grammar_errors(bad):
    with pytest.raises(ValueError):
        parse_law(bad)


def test_smooth_law_validation():
    with pytest.raises(ValueError, match="family"):
        SmoothLaw("cauchy", {})
    with pytest.raises(ValueError, match="rate"):
        SmoothLaw("exp", {"rate": 0.0})
    with pytest.raises(ValueError, match="lo"):
        SmoothLaw("unif", {"lo": -0.5, "hi": 1.0})
