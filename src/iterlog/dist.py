"""Inter-arrival laws: lattice and smooth positive distributions.

A lattice law lives on {d, 2d, ..., Md} with span-maximal d; a smooth law
is one of the parametric families (exponential, gamma, shifted uniform).
Both expose exact closed-form moments and reproducible sampling through
counter-based streams, and one dispatcher maps blocks of replicas over a
process pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

#: Additive tolerance for "pmf sums to one".
PMF_TOLERANCE = 1e-12

#: Truncation mass allowed when representing an infinite lattice pmf
#: (geometric) on a finite support.
TRUNCATION_MASS = 1e-15


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


def lattice_span_check(support: "list[int] | np.ndarray") -> bool:
    """True iff a set of positive support indices has gcd 1.

    gcd > 1 means the law actually lives on a coarser lattice, so the
    nominal span is not maximal.
    """
    indices = [int(m) for m in support]
    if not indices:
        raise ValueError("empty law")
    if any(m <= 0 for m in indices):
        raise ValueError("support indices must be positive")
    return math.gcd(*indices) == 1


@dataclass(frozen=True, eq=False)
class LatticeLaw:
    """Pmf on a positive lattice: p[m-1] = P{value = m*span}, m = 1..M."""

    span: float
    pmf: np.ndarray
    #: All lattice sites {d, 2d, ..., Md}, including zero-mass ones.
    support: np.ndarray = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, LatticeLaw):
            return NotImplemented
        return self.span == other.span and np.array_equal(self.pmf, other.pmf)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        object.__setattr__(self, "pmf", pmf)
        if self.span <= 0:
            raise ValueError("span must be positive")
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-D array")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        total = math.fsum(pmf.tolist())
        if abs(total - 1.0) > PMF_TOLERANCE:
            raise ValueError(f"pmf must sum to 1 (got {total!r})")
        support = np.nonzero(pmf)[0] + 1
        if support.size == 0:
            raise ValueError("empty law")
        if not lattice_span_check(support):
            raise ValueError("span is not maximal: support indices share a common factor")
        # sampling tables, built once: every site and the cdf that indexes it
        object.__setattr__(self, "support", self.span * np.arange(1, pmf.size + 1, dtype=np.float64))
        object.__setattr__(self, "_cdf", np.cumsum(pmf))

    def moments(self) -> Moments:
        m = np.arange(1, self.pmf.size + 1, dtype=np.float64)
        mean = math.fsum((self.span * m * self.pmf).tolist())
        second = math.fsum(((self.span * m) ** 2 * self.pmf).tolist())
        return Moments(mean, second)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        idx = np.searchsorted(self._cdf, rng.random(n), side="right")
        # A pmf truncated just below mass 1 can push a uniform past _cdf[-1].
        np.clip(idx, 0, self.pmf.size - 1, out=idx)
        return self.support[idx]


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
            if p.get("rate", 0.0) <= 0:
                raise ValueError("exponential rate must be positive")
        elif self.family == "gamma":
            if p.get("shape", 0.0) <= 0 or p.get("rate", 0.0) <= 0:
                raise ValueError("gamma shape and rate must be positive")
        else:
            lo, hi = p.get("lo", -1.0), p.get("hi", 0.0)
            if not (0 <= lo < hi):
                raise ValueError("uniform needs 0 <= lo < hi")

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
    """
    if not 0 < p < 1:
        raise ValueError("geometric parameter must lie in (0, 1)")
    m = 1
    while (1.0 - p) ** m > TRUNCATION_MASS:
        m += 1
    k = np.arange(1, m + 1, dtype=np.float64)
    pmf = p * (1.0 - p) ** (k - 1.0)
    return LatticeLaw(span, pmf / math.fsum(pmf.tolist()))


@dataclass
class RngStream:
    """Counter-based random stream: (master seed, stream index, substream).

    Identical (seed, index) pairs reproduce the same sample sequence under
    any parallel schedule, so one stream per replica gives bitwise
    reproducible ensembles.  Substream b starts b * 2**128 draws into the
    (seed, index) Philox stream: substreams never overlap, and substream 0
    is the stream itself.  Streams are single-owner: the generator is
    cached and stateful across calls.
    """

    seed: int
    index: int = 0
    substream: int = 0
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.index < 0 or self.substream < 0:
            raise ValueError("stream index and substream must be nonnegative")

    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index,))
            bits = np.random.Philox(ss)
            self._generator = np.random.Generator(bits.jumped(self.substream) if self.substream else bits)
        return self._generator


#: Stream-index spacing between independent experiment blocks, so named
#: checks can each own a contiguous range of replica indices.
STREAM_BLOCK = 1 << 32


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


def _run_blocks(fn, total: int, block: int, extra: tuple, blocks: range) -> np.ndarray:
    rows = range(total)
    return np.concatenate([fn(b, rows[b * block : (b + 1) * block], *extra) for b in blocks])


def map_blocks(fn, total: int, block: int, workers: int | None, *extra) -> np.ndarray:
    """Rows of ``total`` replicas in replica order, computed a block at a time.

    ``fn(b, rows, *extra)``, a module-level function, stacks the rows of
    block b, the replicas ``rows = range(total)[b * block : (b + 1) * block]``.
    A block owns its randomness (a stream per replica, or substream b of
    one stream), so the result never depends on the worker count.
    """
    if total < 1:
        raise ValueError("need at least one replica")
    run = partial(_run_blocks, fn, total, block, extra)
    blocks = range(-(-total // block))
    workers = resolve_workers(workers)
    if workers <= 1 or total < 64 or len(blocks) < 2:
        return run(blocks)
    step = -(-len(blocks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run, [blocks[b : b + step] for b in blocks[::step]])))


def parse_law(spec: str) -> Law:
    """Parse the law grammar used by the CLI and config files.

    Forms: ``exp:rate=1.0``, ``gamma:shape=2,rate=1``,
    ``unif:lo=0.5,hi=1.5``, ``lattice:d=1;p=0.5,0.3,0.2``
    (pmf listed from support index 1) and ``geom:p=0.5`` as sugar for the
    truncated geometric lattice law.
    """
    text = spec.strip()
    if ":" not in text:
        raise ValueError(f"bad law spec {spec!r}: missing family tag")
    family, _, body = text.partition(":")
    family = family.strip().lower()
    try:
        if family == "lattice":
            head, _, tail = body.partition(";")
            d = float(_kv(head)["d"])
            tail = tail.strip()
            if not tail.startswith("p="):
                raise ValueError("lattice law needs ';p=...' pmf list")
            pmf = np.array([float(x) for x in tail[2:].split(",")], dtype=np.float64)
            return LatticeLaw(d, pmf)
        if family == "geom":
            kv = _kv(body)
            return geometric_lattice(float(kv["p"]), float(kv.get("d", 1.0)))
        if family == "exp":
            return SmoothLaw("exp", {"rate": float(_kv(body)["rate"])})
        if family == "gamma":
            kv = _kv(body)
            return SmoothLaw("gamma", {"shape": float(kv["shape"]), "rate": float(kv["rate"])})
        if family == "unif":
            kv = _kv(body)
            return SmoothLaw("unif", {"lo": float(kv["lo"]), "hi": float(kv["hi"])})
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad law spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad law spec {spec!r}: unknown family {family!r}")


def format_law(law: Law) -> str:
    """Inverse of parse_law, up to float rendering."""
    if isinstance(law, LatticeLaw):
        p = ",".join(f"{x:.17g}" for x in law.pmf)
        return f"lattice:d={law.span:.17g};p={p}"
    kv = ",".join(f"{k}={v:.17g}" for k, v in law.params.items())
    return f"{law.family}:{kv}"


def _kv(text: str) -> dict:
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
