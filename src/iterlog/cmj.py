"""Generation counts of the branching process driven by an increasing walk.

Each individual born at time s produces offspring at s + S_n, the points of
an independent copy of the walk, or at s + S_{n-1} + eta_n for a perturbed
walk; Y_k(t) counts generation-k births in [0, t].  One kernel walks every
generation but the last of a memoryless walk, which is drawn (``_last_drawn``):
generation 1 is the offspring of a root at time 0, and only births inside
[0, t] are materialized.  An ensemble prepares its walk once and simulates a
block of replicas per kernel call, every birth labelled with its replica;
``dist.map_blocks`` runs block b on substream b of one stream, so
ensembles are reproducible under any parallel schedule.  A block's labelled
level-1 births also give the placement term J_k of the split
Y_k - V_k = I_k + J_k (``decompose_fluctuation``).
``monte_carlo`` centers its CLT and iterated-logarithm statistics at the
leading term t^k / (k! mu^k) of the level-k expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dist import BLOCK_DRAWS, LatticeLaw, Law, Moments, RngStream, SmoothLaw, map_blocks
from .renewal import MAX_TABLE_ENTRIES, ExponentialRenewal, RenewalTable, lattice_site, leading_term, lil_constant

#: Most expected births per replica, over all generations, that a SimConfig accepts.
POPULATION_CAP = 1e7


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: laws, horizon, generations, streams."""

    law: Law
    levels: int
    horizon: float
    eta: Law | None = None
    grid: np.ndarray | None = None
    seed: int = 0
    replicas: int = 1
    stream_offset: int = 0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.levels < 1:
            raise ValueError("need at least one generation")
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.replicas * self.levels > MAX_TABLE_ENTRIES:
            raise ValueError(f"too many replicas: {self.replicas} x {self.levels} counts would exceed the memory guard")
        try:
            expected = _expected_births(self, self.levels)
        except OverflowError:  # t**k past the float range: refused like t = inf
            expected = math.inf
        if expected > POPULATION_CAP:
            raise ValueError(
                f"horizon/generation cap: expected {expected:.3g} births per replica "
                f"exceeds the cap {POPULATION_CAP:.3g}"
            )
        if self.grid is not None:
            grid = np.asarray(self.grid, dtype=np.float64)
            if grid.ndim != 1 or np.any(np.diff(grid) < 0) or grid.size == 0 or not np.isfinite(grid).all():
                raise ValueError("grid must be a finite, nondecreasing 1-D array")
            if grid[0] < 0 or grid[-1] > self.horizon:
                raise ValueError("grid must lie within [0, horizon]")
            object.__setattr__(self, "grid", grid)


def _expected_births(config: SimConfig, levels: int) -> float:
    """Leading-order expected births of one replica in generations 1..levels."""
    mu = config.law.moments().mean
    return sum(leading_term(k, mu, config.horizon) for k in range(1, levels + 1))


@dataclass
class SimOutcome:
    """Per-replica generation counts and optional path."""

    counts: np.ndarray  # (K,) int64
    path: np.ndarray | None = None  # (K, grid size) int64


def _children(
    rng: np.random.Generator,
    xi: Law,
    eta: Law | None,
    parents: np.ndarray,
    owners: np.ndarray,
    t: float,
    m: Moments,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Birth times in [0, t] of every child of every parent, with their owners
    and the count of each owner 0..n-1: one walked generation (a drawn last
    generation, ``_last_drawn``, never comes here).

    A parent born at s starts the walk s + S_n; its children are born at
    s + S_n, or at s + S_{n-1} + eta_n when eta is given, and inherit the
    parent's owner label.  Each round, a live walk with remaining horizon r
    draws floor(r/mu + 2 sigma sqrt(r/mu^3)) + 2 steps (the mean step
    count plus two standard deviations, so a deterministic law finishes in
    one round), and one flat cumsum rebased per walk places the whole
    round.  Walks still at or below t start another round.
    """
    births, labels, count = [], [], np.zeros(n)
    while parents.size:
        steps = (t - parents) / m.mean
        sizes = (steps + (2.0 * m.sigma / m.mean) * np.sqrt(steps)).astype(np.int64) + 2
        ends = np.cumsum(sizes)
        pos = np.cumsum(xi.sample(rng, int(ends[-1])))
        pos += np.repeat(parents - np.concatenate(([0.0], pos[ends[:-1] - 1])), sizes)
        if eta is None:
            born = pos
        else:
            prev = np.empty_like(pos)
            prev[1:] = pos[:-1]
            prev[ends - sizes] = parents
            born = prev + eta.sample(rng, pos.size)
        inside = born <= t
        per_walk = np.add.reduceat(inside, ends - sizes)
        births.append(born[inside])
        labels.append(np.repeat(owners, per_walk))
        count += np.bincount(owners, weights=per_walk, minlength=n)
        last = pos[ends - 1]
        live = last <= t
        parents, owners = last[live], owners[live]
    if not births:
        return np.empty(0), np.empty(0, dtype=np.int64), count
    return np.concatenate(births), np.concatenate(labels), count


def _last_drawn(config: SimConfig) -> bool:
    """Whether the last generation is drawn, not walked: a parent at s of a
    standard walk has Poisson(rate (t - s)) children by t under exponential
    steps, and Binomial(t - s, p) in sites under geometric ones, whose renewal
    epochs are a Bernoulli(p) process (Feller vol. I, XIII), so a replica's
    count is one such draw on its parents' summed t - s_r, exact in law."""
    law = config.law
    exponential = isinstance(law, SmoothLaw) and law.family == "exp"
    geometric = isinstance(law, LatticeLaw) and law.geometric_p is not None
    return config.levels > 1 and config.grid is None and config.eta is None and (exponential or geometric)


#: Most replicas in one block.
MAX_BLOCK = 64

#: Levels of the CLT-statistic quantiles in a summary.
CLT_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def _block_size(config: SimConfig) -> int:
    """Replicas per block: BLOCK_DRAWS over the expected walked births of a
    replica, clamped to [1, MAX_BLOCK]."""
    births = _expected_births(config, config.levels - _last_drawn(config))
    return min(MAX_BLOCK, max(1, int(BLOCK_DRAWS / births)))


def _site_units(law: Law, eta: Law | None) -> tuple[int, int] | None:
    """(q, p) when a lattice walk of span d runs in sites of d/q: its steps
    take q sites and eta's span p sites (p = 0 without eta).  None when the
    walk is not a lattice law, or eta is not a lattice law whose span over d
    is a fraction p/q within a relative 1e-9."""
    if not isinstance(law, LatticeLaw):
        return None
    if eta is None:
        return 1, 0
    if not isinstance(eta, LatticeLaw):
        return None
    ratio = eta.span / law.span
    sites = Fraction(ratio).limit_denominator()
    return (sites.denominator, sites.numerator) if abs(ratio - sites) <= 1e-9 * ratio else None


@dataclass(frozen=True)
class _Walk:
    """A config's walk, prepared once for all its blocks: the laws in the units
    it walks in, d the time of one unit, the horizon and grid in those units,
    the step moments, the generation count, and ``_last_drawn``."""

    law: Law
    eta: Law | None
    d: float
    t: float
    grid: np.ndarray | None
    m: Moments
    levels: int
    last_drawn: bool


def _prepare(config: SimConfig) -> _Walk:
    """The config's walk.  A lattice walk of span d (with no eta, or a lattice
    eta of span p d / q) runs in sites of d / q, where a birth is an integer,
    exact in float64, so none on a site rounds past the horizon or a grid
    point; those become the sites they fall on.  Any other walk runs in float
    time."""
    t, law, eta, grid, d = config.horizon, config.law, config.eta, config.grid, 1.0
    units = _site_units(law, eta)
    if units is not None:
        q, p = units
        d = law.span / q
        law = law.with_span(float(q))
        eta = None if eta is None else eta.with_span(float(p))
        t = float(lattice_site(t / d))
        grid = None if grid is None else lattice_site(grid / d)
    return _Walk(law, eta, d, t, grid, law.moments(), config.levels, _last_drawn(config))


def _simulate_block(
    walk: _Walk, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None, tuple[np.ndarray, np.ndarray]]:
    """Simulate n replicas of a prepared walk from one generator.

    Returns counts (n, K), paths (n, K, grid size) when the config has a
    grid, and the block's level-1 births as (times, replica indices), in
    draw order, which within a replica is time order for a standard walk;
    the times are scaled back from the walk's units by d.  Every birth
    carries the index of its replica, so one bincount per generation yields
    the counts of the whole block.
    """
    law, t, grid, levels = walk.law, walk.t, walk.grid, walk.levels
    counts = np.zeros((n, levels), dtype=np.int64)
    paths = None if grid is None else np.zeros((n, levels, grid.size), dtype=np.int64)
    gen, owners = np.zeros(n), np.arange(n)
    for k in range(levels - walk.last_drawn):
        gen, owners, counts[:, k] = _children(rng, law, walk.eta, gen, owners, t, walk.m, n)
        if k == 0:
            gen1 = gen * walk.d, owners
        if paths is not None:
            # cell j of a replica holds its births in (grid[j-1], grid[j]]
            cells = owners * (grid.size + 1) + np.searchsorted(grid, gen)
            per_cell = np.bincount(cells, minlength=n * (grid.size + 1)).reshape(n, -1)
            paths[:, k] = np.cumsum(per_cell, axis=1)[:, :-1]
    if walk.last_drawn:
        exposure = np.bincount(owners, weights=t - gen, minlength=n)
        if isinstance(law, SmoothLaw):
            counts[:, -1] = rng.poisson(law.params["rate"] * exposure)
        else:
            counts[:, -1] = rng.binomial(exposure.astype(np.int64), law.geometric_p)
    return counts, paths, gen1


def simulate_generations(config: SimConfig, replica: int) -> SimOutcome:
    """Simulate one replica: counts Y_k(t) for k = 1..K and optional path.

    The replica is a block of one on stream (seed, stream_offset + replica).
    Generation 1 is the offspring of one root at time 0, and every
    generation is the offspring of the one before, so only births inside
    [0, t] are materialized.
    """
    rng = RngStream(config.seed, config.stream_offset + replica).generator()
    counts, paths, _ = _simulate_block(_prepare(config), 1, rng)
    return SimOutcome(counts[0], None if paths is None else paths[0])


def _power(t: float, exponent: float) -> float:
    """t**exponent by numpy's array power, which can differ from Python's
    ``**`` in the last bit; the statistics use only this one rounding."""
    return float(np.power(t, [exponent])[0])


def clt_statistic(yk, k: int, t: float, m: Moments, center: float):
    """a_k (yk - center) / t^{k-1/2}; asymptotically standard normal.

    ``yk`` may be one count or an array of counts.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    a_k = lil_constant(k, m.mean, m.sigma)
    return a_k * (yk - center) / _power(t, k - 0.5)


def lil_statistic(yk, k: int, t: float, m: Moments, center: float):
    """a_k (yk - center) / sqrt(2 t^{2k-1} log log t); needs t > e.

    The statistic of the paper's iterated logarithm, whose limit set is
    [-1, 1]; the tree profile statistic is this one at t = log n.  ``yk``
    may be one count or an array of counts.
    """
    if t <= math.e:
        raise ValueError("LIL statistic undefined for t <= e")
    a_k = lil_constant(k, m.mean, m.sigma)
    denom = math.sqrt(2.0 * _power(t, 2 * k - 1) * math.log(math.log(t)))
    return a_k * (yk - center) / denom


def decompose_fluctuation(
    births: np.ndarray,
    owners: np.ndarray,
    yk: np.ndarray,
    k: int,
    t: float,
    levels: "RenewalTable | ExponentialRenewal",
) -> np.ndarray:
    """Rows (I_k, J_k, Y_k - V_k) of a block of R replicas: ``births`` are the
    block's level-1 birth times, ``owners`` their replica indices in 0..R-1,
    and ``yk`` the R level-k counts.

    J_k = sum_r V_{k-1}(t - S_r) - V_k(t) is the placement term of the
    paper's split Y_k - V_k = I_k + J_k, and I_k is the remainder, so the
    identity holds up to rounding.  ``levels`` reads V_{k-1} at every birth
    in one array call; math.fsum rounds each replica's sum exactly, so the
    order of its births does not matter.
    """
    if k < 2:
        raise ValueError("decomposition needs k >= 2")
    subtree = levels.at(k - 1, t - births)
    vk_t = levels.at(k, t)
    j_k = np.array([math.fsum(subtree[owners == r]) for r in range(yk.size)]) - vk_t
    total = yk - vk_t
    return np.column_stack((total - j_k, j_k, total))


@dataclass
class MonteCarloSummary:
    """Ensemble reduction: counts and fluctuation statistics per generation."""

    config: SimConfig
    counts: np.ndarray  # (R, K) int64
    means: np.ndarray  # (K,)
    variances: np.ndarray  # (K,) ddof=1
    clt: np.ndarray | None  # (R, K)
    lil: np.ndarray | None  # (R, K), None when horizon <= e or sigma = 0
    centers: np.ndarray  # (K,) leading terms t^k / (k! mu^k)

    def quantiles(self) -> dict:
        if self.clt is None:
            return {}
        out = {}
        for k in range(1, self.config.levels + 1):
            vals = np.quantile(self.clt[:, k - 1], CLT_QUANTILES)
            out[k] = {f"{q:g}": float(v) for q, v in zip(CLT_QUANTILES, vals)}
        return out

    def to_dict(self) -> dict:
        d = {
            "replicas": self.config.replicas,
            "levels": self.config.levels,
            "t": self.config.horizon,
            "seed": self.config.seed,
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "centers": self.centers.tolist(),
        }
        if self.clt is not None:
            d["clt_mean"], d["clt_variance"] = (x.tolist() for x in _column_moments(self.clt))
            d["clt_quantiles"] = self.quantiles()
        if self.lil is not None:
            d["lil_mean"] = _column_moments(self.lil)[0].tolist()
        return d


def _column_moments(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 variance of each column of ``a``, reduced as a 1-D array."""
    return np.array([c.mean() for c in a.T]), np.array([c.var(ddof=1) for c in a.T])


def _ensemble(fn, config: SimConfig, *extra, workers: int | None = None) -> np.ndarray:
    """Rows of ``fn(rng, rows, walk, *extra)`` for the config's replicas, with its
    walk prepared once, in blocks of ``_block_size(config)``; block b draws from
    substream b of stream (seed, stream_offset), so the rows never depend on the
    worker count."""
    stream = RngStream(config.seed, config.stream_offset)
    return map_blocks(fn, stream, config.replicas, _block_size(config), _prepare(config), *extra, workers=workers)


def _count_rows(rng: np.random.Generator, rows: int, walk: _Walk) -> np.ndarray:
    return _simulate_block(walk, rows, rng)[0]


def _path_rows(rng: np.random.Generator, rows: int, walk: _Walk) -> np.ndarray:
    return _simulate_block(walk, rows, rng)[1]


def path_ensemble(config: SimConfig) -> np.ndarray:
    """Grid paths (R, K, grid size) of the config's replicas, in the blocks and
    on the substreams of ``monte_carlo``."""
    return _ensemble(_path_rows, config)


def monte_carlo(config: SimConfig, workers: int | None = None) -> MonteCarloSummary:
    """Run the ensemble and reduce it; a pure function of (config, seed),
    whatever the worker count."""
    if config.replicas < 2:
        raise ValueError("ensemble needs at least two replicas")
    t = config.horizon
    ks = range(1, config.levels + 1)
    if any(_power(t, k - 0.5) == 0.0 for k in ks):
        raise ValueError(f"horizon {t} is too small: t^(k - 1/2) underflows to 0 at some k <= {config.levels}")
    counts = _ensemble(_count_rows, config, workers=workers)
    m = config.law.moments()
    centers = np.array([leading_term(k, m.mean, t) for k in ks])
    means, variances = _column_moments(counts)
    clt = lil = None
    if m.variance > 0:
        columns = [(counts[:, k - 1], k, t, m, centers[k - 1]) for k in ks]
        clt = np.column_stack([clt_statistic(*c) for c in columns])
        if t > math.e:
            lil = np.column_stack([lil_statistic(*c) for c in columns])
    return MonteCarloSummary(config, counts, means, variances, clt, lil, centers)


def _decomposition_rows(rng: np.random.Generator, rows: int, walk: _Walk, k: int, t: float, v_eval) -> np.ndarray:
    counts, _, (births, owners) = _simulate_block(walk, rows, rng)
    return decompose_fluctuation(births, owners, counts[:, k - 1], k, t, v_eval)


def decomposition_ensemble(
    config: SimConfig, k: int, v_eval: "RenewalTable | ExponentialRenewal"
) -> np.ndarray:
    """Per-replica (I_k, J_k, Y_k - V_k) rows, replicas in index order, in the
    blocks and on the substreams of ``monte_carlo``."""
    if k < 2 or k > config.levels:
        raise ValueError("decomposition level must satisfy 2 <= k <= K")
    return _ensemble(_decomposition_rows, config, k, config.horizon, v_eval)
