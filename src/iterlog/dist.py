"""Inter-arrival laws: lattice and smooth positive distributions.

A lattice law lives on {d, 2d, ..., Md} with span-maximal d; a smooth law
is one of the parametric families (exponential, gamma, shifted uniform).
Both expose exact closed-form moments and reproducible sampling through
counter-based streams, and one dispatcher maps blocks of replicas over a
process pool.

Lattice draws read the inverse cdf through a guide table (Chen & Asau,
1974), which picks the site a binary search of the cdf picks for every
uniform (``LatticeLaw.sample``).

Heap policy: at import, ``mallopt(M_TOP_PAD, HEAP_TOP_PAD)`` asks glibc to
keep 16 MiB of freed heap mapped above its top.  glibc otherwise hands the
free top back to the OS once its trim threshold (about 1 MiB here) is free,
and every simulator block allocates and frees a few MiB of arrays, so each
block faulted its pages back in: a serial 8000-replica exponential ensemble
(t = 100, K = 3) took 355k minor page faults, and 1.2k with the pad.  Forked
pool workers inherit the setting.  The pad also stops glibc from raising its
mmap threshold, so an array that fits neither the padded top nor a free
chunk (here one of 16 MiB or more) is mapped afresh each time.  Where the C
library has no ``mallopt`` (musl, macOS, Windows) this does nothing; no draw
or result depends on it.
"""

from __future__ import annotations

import copy
import ctypes
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

#: Additive tolerance for "pmf sums to one".
PMF_TOLERANCE = 1e-12

#: Truncation mass allowed when representing an infinite lattice pmf
#: (geometric) on a finite support.
TRUNCATION_MASS = 1e-15

#: Most sites a truncated geometric law may hold: its pmf and cdf then stay
#: under about 64 MiB.
_GEOMETRIC_MAX_SITES = 1 << 22


@dataclass(frozen=True)
class Moments:
    """Exact first and second moments of a positive law."""

    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean * self.mean

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))


@dataclass(frozen=True, eq=False)
class LatticeLaw:
    """Pmf on a positive lattice: p[m-1] = P{value = m*span}, m = 1..M."""

    span: float
    pmf: np.ndarray
    geometric_p: float | None = field(default=None, init=False)  # set by geometric_lattice; not compared
    _cdf: np.ndarray = field(init=False, repr=False)
    _guide: np.ndarray = field(init=False, repr=False)
    _moments: Moments | None = field(default=None, init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, LatticeLaw):
            return NotImplemented
        return self.span == other.span and np.array_equal(self.pmf, other.pmf)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        object.__setattr__(self, "pmf", pmf)
        if not 0 < self.span < math.inf:
            raise ValueError("span must be finite and positive")
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-D array")
        if not np.all(pmf >= 0):
            raise ValueError("pmf entries must be nonnegative")
        total = math.fsum(pmf)
        if abs(total - 1.0) > PMF_TOLERANCE:
            raise ValueError(f"pmf must sum to 1 (got {total!r})")
        support = np.nonzero(pmf)[0] + 1
        if support.size == 0:
            raise ValueError("empty law")
        if np.gcd.reduce(support) != 1:  # the law lives on a coarser lattice
            raise ValueError("span is not maximal: support indices share a common factor")
        # sampling tables, built once and free of the span: the cdf over site
        # indices and its guide; the cdf is inf from the last site with mass on,
        # so a uniform past a pmf truncated just below 1 draws that site
        cdf = np.cumsum(pmf)
        cdf[support[-1] - 1 :] = np.inf
        buckets = min(1 << 16, max(256, 1 << (4 * pmf.size - 1).bit_length()))  # about 4 a site
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_guide", np.searchsorted(cdf, np.arange(buckets) / buckets, side="right"))

    def with_span(self, span: float) -> "LatticeLaw":
        """This pmf on the lattice of ``span``, keeping the checked pmf, its sampling
        tables and ``geometric_p`` (free of the span), and any moments summed at that span."""
        if not 0 < span < math.inf:
            raise ValueError("span must be finite and positive")
        law = copy.copy(self)
        object.__setattr__(law, "span", span)
        if span != self.span:
            object.__setattr__(law, "_moments", None)
        return law

    def moments(self) -> Moments:
        """The exact moments, two O(M) sums taken on the first call only."""
        if self._moments is None:
            m = np.arange(1, self.pmf.size + 1, dtype=np.float64)
            mean = math.fsum(self.span * m * self.pmf)
            second = math.fsum((self.span * m) ** 2 * self.pmf)
            object.__setattr__(self, "_moments", Moments(mean, second))
        return self._moments

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n sites by the inverse cdf of n uniforms: ``span * (i + 1)`` for each u, where
        ``i = min(searchsorted(cdf, u, "right"), L - 1)`` and L is the last site with mass.

        Bucket b of the G-bucket guide table (G a power of two) holds
        ``searchsorted(cdf, b/G, "right")``.  Both b/G and u*G are exact in
        binary, and u in bucket floor(u*G) lies at or above b/G, so that
        index is at most the binary search's, and equals it unless the cdf
        entry it points at is still <= u.  Only those uniforms (3% of them
        for ``geom:p=0.5``) take the binary search (Devroye, Non-Uniform
        Random Variate Generation, 1986, III.2.4)."""
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        u = rng.random(n)
        idx = self._guide[(u * self._guide.size).astype(np.intp)]
        short = self._cdf[idx] <= u
        idx[short] = np.searchsorted(self._cdf, u[short], side="right")
        idx += 1
        return self.span * idx  # fl(span * m), one rounding: span * i + span would round twice


_SMOOTH_FAMILIES = ("exp", "gamma", "unif")


@dataclass(frozen=True)
class SmoothLaw:
    """Continuous positive law: exponential, gamma, or shifted uniform."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _SMOOTH_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_SMOOTH_FAMILIES}")
        p = dict(self.params)
        object.__setattr__(self, "params", p)
        if self.family == "exp":
            if not 0 < p.get("rate", 0.0) < math.inf:
                raise ValueError("exponential rate must be finite and positive")
        elif self.family == "gamma":
            if not (0 < p.get("shape", 0.0) < math.inf and 0 < p.get("rate", 0.0) < math.inf):
                raise ValueError("gamma shape and rate must be finite and positive")
        else:
            lo, hi = p.get("lo", -1.0), p.get("hi", 0.0)
            if not 0 <= lo < hi < math.inf:
                raise ValueError("uniform needs 0 <= lo < hi < inf")

    def moments(self) -> Moments:
        p = self.params
        if self.family == "exp":
            rate = p["rate"]
            return Moments(1.0 / rate, 2.0 / rate**2)
        if self.family == "gamma":
            shape, rate = p["shape"], p["rate"]
            return Moments(shape / rate, shape * (shape + 1.0) / rate**2)
        lo, hi = p["lo"], p["hi"]
        mean = 0.5 * (lo + hi)
        var = (hi - lo) ** 2 / 12.0
        return Moments(mean, var + mean * mean)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        p = self.params
        if self.family == "exp":
            return rng.exponential(1.0 / p["rate"], n)
        if self.family == "gamma":
            return rng.gamma(p["shape"], 1.0 / p["rate"], n)
        return rng.uniform(p["lo"], p["hi"], n)


Law = LatticeLaw | SmoothLaw


def geometric_lattice(p: float, span: float = 1.0) -> LatticeLaw:
    """Geometric law on {d, 2d, ...}, truncated once the tail mass drops
    below TRUNCATION_MASS and renormalized to total mass one.

    Renormalization matters: a mass deficit of 1e-15 left in place would
    compound quadratically through the level convolutions and show up at
    the 1e-9 scale on horizons of a few thousand sites.

    It records p as ``geometric_p``, from which a branching ensemble draws its
    last generation as a binomial: that draw follows the untruncated law,
    which differs from this one by less than 1e-15 a step.
    """
    if not 0 < p < 1:
        raise ValueError("geometric parameter must lie in (0, 1)")
    sites = math.log(TRUNCATION_MASS) / math.log1p(-p)
    if not sites <= _GEOMETRIC_MAX_SITES:
        raise ValueError(f"geometric parameter p={p} needs more than {_GEOMETRIC_MAX_SITES} sites")
    # the first m >= 1 with (1 - p)**m <= TRUNCATION_MASS, from the closed form
    m = max(1, math.ceil(sites))
    while m > 1 and (1.0 - p) ** (m - 1) <= TRUNCATION_MASS:
        m -= 1
    while (1.0 - p) ** m > TRUNCATION_MASS:
        m += 1
    k = np.arange(1, m + 1, dtype=np.float64)
    pmf = p * (1.0 - p) ** (k - 1.0)
    law = LatticeLaw(span, pmf / math.fsum(pmf))
    object.__setattr__(law, "geometric_p", p)
    return law


@dataclass
class RngStream:
    """Counter-based random stream: (master seed, stream index, substream).

    Identical (seed, index) pairs reproduce the same sample sequence under
    any parallel schedule, so one stream per replica gives bitwise
    reproducible ensembles.  Substream b < 2**128 starts b * 2**128 draws into
    the (seed, index) Philox stream: substreams never overlap, and substream 0
    is the stream itself.  Streams are single-owner: the generator is
    cached and stateful across calls.
    """

    seed: int
    index: int = 0
    substream: int = 0
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.index < 0 or not 0 <= self.substream < 1 << 128:
            raise ValueError("stream index must be nonnegative and substream in [0, 2**128)")

    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index,))
            # counter b * 2**128 is the state bits.jumped(b) reaches, without its throwaway generator
            self._generator = np.random.Generator(np.random.Philox(ss, counter=self.substream << 128))
        return self._generator


#: Stream-index spacing between independent experiment blocks, so named
#: checks can each own a contiguous range of replica indices.
STREAM_BLOCK = 1 << 32

#: Draws a simulator holds at once, so its arrays stay near 512 KiB: the
#: target of a branching block, and a ``draw_rows`` chunk of a tree or Gaussian block.
BLOCK_DRAWS = 1 << 16

#: Freed bytes glibc keeps mapped above its heap top, 16 MiB: enough that no
#: simulator block gives its arrays' pages back to the OS between blocks.
HEAP_TOP_PAD = 256 * BLOCK_DRAWS


def _pad_heap_top() -> None:
    """Ask the C library to keep HEAP_TOP_PAD freed bytes mapped; a no-op off
    glibc.  ``CDLL(None)`` is the running process, so no library is looked up."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process handle (Windows)
        return
    mallopt(-2, HEAP_TOP_PAD)  # M_TOP_PAD


_pad_heap_top()


def draw_rows(fn, rng: np.random.Generator, rows: int, cells: int) -> np.ndarray:
    """``fn(rng, r)`` for chunks of r = max(1, BLOCK_DRAWS // cells) of ``rows`` replicas of
    ``cells`` draws each, in order, the last ragged, written into one array: what one (rows,
    cells) array draws.  A first call with r = 0 draws nothing and sets the array's trailing
    shape and dtype, so it is allocated before any chunk."""
    step = max(1, BLOCK_DRAWS // cells)
    empty = fn(rng, 0)
    out = np.empty((rows, *empty.shape[1:]), dtype=empty.dtype)
    for start in range(0, rows, step):
        out[start : start + step] = fn(rng, min(step, rows - start))
    return out


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument or cpu count, capped by ITERLOG_THREADS."""
    if workers is None:
        workers = os.cpu_count() or 1
    cap = os.environ.get("ITERLOG_THREADS")
    if cap:
        try:
            workers = min(workers, int(cap))
        except ValueError:
            raise ValueError(f"ITERLOG_THREADS must be an integer, got {cap!r}") from None
    return max(1, workers)


def _run_blocks(fn, seed: int, index: int, total: int, block: int, extra: tuple, blocks: range):
    return np.concatenate([
        fn(RngStream(seed, index, b).generator(), min(block, total - b * block), *extra) for b in blocks
    ])


def map_blocks(
    fn, stream: RngStream, total: int, block: int, *extra, workers: int | None = None
) -> np.ndarray:
    """Rows of ``total`` replicas in replica order, computed a block at a time.

    ``fn(rng, rows, *extra)``, a module-level function, stacks the rows of
    block b: ``rows`` replicas (``block``, fewer in the last block) drawn
    from ``rng``, the generator of substream b of (stream.seed,
    stream.index).  Block b owns substream b, so the result never depends
    on the worker count, ``resolve_workers(workers)``: ``workers`` or the
    cpu count, capped by ITERLOG_THREADS.
    """
    if total < 1:
        raise ValueError("need at least one replica")
    run = partial(_run_blocks, fn, stream.seed, stream.index, total, block, extra)
    blocks = range(-(-total // block))
    workers = resolve_workers(workers)
    if workers <= 1 or total < 64 or len(blocks) < 2:
        return run(blocks)
    from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing and socket
    step = -(-len(blocks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run, [blocks[b : b + step] for b in blocks[::step]])))


#: Keys each law family takes; a lattice law's pmf follows them after ';p='.
_LAW_KEYS = {"lattice": ("d",), "geom": ("p", "d"), "exp": ("rate",),
             "gamma": ("shape", "rate"), "unif": ("lo", "hi")}


def parse_law(spec: str) -> Law:
    """Parse the law grammar used by the CLI and config files.

    Forms: ``exp:rate=1.0``, ``gamma:shape=2,rate=1``,
    ``unif:lo=0.5,hi=1.5``, ``lattice:d=1;p=0.5,0.3,0.2``
    (pmf listed from support index 1) and ``geom:p=0.5`` as sugar for the
    truncated geometric lattice law.  A key the family does not take is refused.
    """
    text = spec.strip()
    if ":" not in text:
        raise ValueError(f"bad law spec {spec!r}: missing family tag")
    family, _, body = text.partition(":")
    family = family.strip().lower()
    if family not in _LAW_KEYS:
        raise ValueError(f"bad law spec {spec!r}: unknown family {family!r}")
    head, _, tail = body.partition(";") if family == "lattice" else (body, "", "")
    keys = _LAW_KEYS[family]
    try:
        kv = parse_kv(head)
        unknown = kv.keys() - set(keys)
        if unknown:
            raise ValueError(f"{family} law takes {', '.join(keys)}, not {', '.join(sorted(unknown))}")
        if family == "lattice":
            d = float(kv["d"])
            tail = tail.strip()
            if not tail.startswith("p="):
                raise ValueError("lattice law needs ';p=...' pmf list")
            pmf = np.array([float(x) for x in tail[2:].split(",")], dtype=np.float64)
            return LatticeLaw(d, pmf)
        if family == "geom":
            return geometric_lattice(float(kv["p"]), float(kv.get("d", 1.0)))
        return SmoothLaw(family, {key: float(kv[key]) for key in keys})
    except (KeyError, ValueError) as exc:  # a KeyError names a key the family needs
        why = f"{family} law needs {exc.args[0]}=" if isinstance(exc, KeyError) else exc
        raise ValueError(f"bad law spec {spec!r}: {why}") from exc


def parse_kv(text: str) -> dict:
    """``key=value`` items of a comma list, stripped; an item without ``=`` or a
    repeated key is refused."""
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        k, _, v = item.partition("=")
        if k.strip() in out:
            raise ValueError(f"duplicate key {k.strip()!r}")
        out[k.strip()] = v.strip()
    return out
