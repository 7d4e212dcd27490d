"""Generation counts of the branching process driven by an increasing walk.

Each individual born at time s produces offspring at s + S_n, the points of
an independent copy of the walk, or at s + S_{n-1} + eta_n for a perturbed
walk; Y_k(t) counts generation-k births in [0, t].  One kernel draws every
generation: generation 1 is the offspring of a root at time 0, and only
births inside [0, t] are materialized.  An ensemble simulates a block of
replicas per kernel call, every birth labelled with its replica; block b
draws from substream b of one stream, and ``dist.map_blocks`` dispatches
the blocks, so ensembles are reproducible under any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .dist import Law, Moments, RngStream, SmoothLaw, map_blocks
from .renewal import (
    AsymptoticConstants,
    ExponentialRenewal,
    RenewalTable,
    leading_term,
    lil_constant,
    second_order,
)

E = math.e


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
    population_cap: float = 1e7
    retain_gen1: bool = False
    center: str = "formula"
    stream_offset: int = 0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.levels < 1:
            raise ValueError("need at least one generation")
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.center not in ("formula", "table"):
            raise ValueError("center mode must be 'formula' or 'table'")
        mu = self.law.moments().mean
        expected = sum(leading_term(k, mu, self.horizon) for k in range(1, self.levels + 1))
        if expected > self.population_cap:
            raise ValueError(
                f"horizon/generation cap: expected {expected:.3g} births per replica "
                f"exceeds the cap {self.population_cap:.3g}"
            )
        if self.grid is not None:
            grid = np.asarray(self.grid, dtype=np.float64)
            if grid.ndim != 1 or np.any(np.diff(grid) < 0) or grid.size == 0:
                raise ValueError("grid must be a nondecreasing 1-D array")
            if grid[0] < 0 or grid[-1] > self.horizon:
                raise ValueError("grid must lie within [0, horizon]")
            object.__setattr__(self, "grid", grid)


@dataclass
class SimOutcome:
    """Per-replica generation counts, optional path, optional level-1 times."""

    counts: np.ndarray  # (K,) int64
    path: np.ndarray | None = None  # (K, grid size) int64
    gen1_times: np.ndarray | None = None


@dataclass(frozen=True)
class FluctuationParts:
    """Split of Y_k - V_k into subtree noise I_k and level-1 placement noise J_k."""

    i_k: float
    j_k: float
    total: float


@dataclass(frozen=True)
class LilStatistic:
    k: int
    t: float
    value: float | np.ndarray
    center_mode: str


def _children(
    rng: np.random.Generator,
    xi: Law,
    eta: Law | None,
    parents: np.ndarray,
    owners: np.ndarray,
    t: float,
    m: Moments,
) -> tuple[np.ndarray, np.ndarray]:
    """Birth times in [0, t] of every child of every parent, with their owners.

    A parent born at s starts the walk s + S_n; its children are born at
    s + S_n, or at s + S_{n-1} + eta_n when eta is given, and inherit the
    parent's owner label.  Each round, a live walk with remaining horizon r
    draws floor(r/mu + 2 sigma sqrt(r/mu^3)) + 2 steps (the mean step
    count plus two standard deviations, so a deterministic law finishes in
    one round), and one flat cumsum rebased per walk places the whole
    round.  Walks still at or below t start another round.
    """
    births, labels = [], []
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
        births.append(born[inside])
        labels.append(np.repeat(owners, sizes)[inside])
        last = pos[ends - 1]
        live = last <= t
        parents, owners = last[live], owners[live]
    if not births:
        return np.empty(0), np.empty(0, dtype=np.int64)
    return np.concatenate(births), np.concatenate(labels)


def _poisson_last(config: SimConfig) -> bool:
    """Whether the last generation is drawn, not walked: for an exponential
    standard walk its count is Poisson(rate * sum_r (t - s_r)) over the
    parents s_r (Poisson superposition), an exact shortcut."""
    law = config.law
    exponential = isinstance(law, SmoothLaw) and law.family == "exp"
    return config.levels > 1 and config.grid is None and config.eta is None and exponential


#: Walked draws a block of replicas aims at, so its arrays stay near 512 KiB.
BLOCK_DRAWS = 1 << 16
#: Most replicas in one block.
MAX_BLOCK = 64


def _block_size(config: SimConfig) -> int:
    """Replicas per block: BLOCK_DRAWS over the expected walked births of a
    replica, clamped to [1, MAX_BLOCK]."""
    mu = config.law.moments().mean
    walked = config.levels - _poisson_last(config)
    births = sum(leading_term(k, mu, config.horizon) for k in range(1, walked + 1))
    return min(MAX_BLOCK, max(1, int(BLOCK_DRAWS / births)))


def _simulate_block(
    config: SimConfig, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None, list[np.ndarray] | None]:
    """Simulate n replicas from one generator.

    Returns counts (n, K), paths (n, K, grid size) when the config has a
    grid, and each replica's level-1 birth times (in draw order, which is
    time order for a standard walk) when it retains them.  Every birth carries the index of its replica, so one
    bincount per generation yields the counts of the whole block.
    """
    t, law, eta, grid = config.horizon, config.law, config.eta, config.grid
    m = law.moments()
    poisson_last = _poisson_last(config)
    counts = np.zeros((n, config.levels), dtype=np.int64)
    paths = None if grid is None else np.zeros((n, config.levels, grid.size), dtype=np.int64)
    gen, owners = np.zeros(n), np.arange(n)
    gen1 = None
    for k in range(config.levels - poisson_last):
        gen, owners = _children(rng, law, eta, gen, owners, t, m)
        counts[:, k] = np.bincount(owners, minlength=n)
        if paths is not None:
            # cell j of a replica holds its births in (grid[j-1], grid[j]]
            cells = owners * (grid.size + 1) + np.searchsorted(grid, gen)
            per_cell = np.bincount(cells, minlength=n * (grid.size + 1)).reshape(n, -1)
            paths[:, k] = np.cumsum(per_cell, axis=1)[:, :-1]
        if k == 0 and config.retain_gen1:
            order = np.argsort(owners, kind="stable")
            gen1 = np.split(gen[order], np.cumsum(counts[:-1, 0]))
    if poisson_last:
        exposure = np.bincount(owners, weights=t - gen, minlength=n)
        counts[:, -1] = rng.poisson(law.params["rate"] * exposure)
    return counts, paths, gen1


def simulate_generations(config: SimConfig, replica: int) -> SimOutcome:
    """Simulate one replica: counts Y_k(t) for k = 1..K, optional path/times.

    The replica is a block of one on stream (seed, stream_offset + replica).
    Generation 1 is the offspring of one root at time 0, and every
    generation is the offspring of the one before, so only births inside
    [0, t] are materialized.
    """
    rng = RngStream(config.seed, config.stream_offset + replica).generator()
    counts, paths, gen1 = _simulate_block(config, 1, rng)
    return SimOutcome(
        counts[0], None if paths is None else paths[0], None if gen1 is None else gen1[0]
    )


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


def lil_statistic(
    yk, k: int, t: float, m: Moments, center: float, center_mode: str = "formula"
) -> LilStatistic:
    """a_k (yk - center) / sqrt(2 t^{2k-1} log log t); needs t > e.

    ``yk`` may be one count or an array of counts.
    """
    if t <= E:
        raise ValueError("LIL statistic undefined for t <= e")
    a_k = lil_constant(k, m.mean, m.sigma)
    denom = math.sqrt(2.0 * _power(t, 2 * k - 1) * math.log(math.log(t)))
    return LilStatistic(k, t, a_k * (yk - center) / denom, center_mode)


def center_value(
    k: int,
    t: float,
    m: Moments,
    mode: str = "formula",
    table: "RenewalTable | ExponentialRenewal | None" = None,
) -> float:
    """Centering for the fluctuation statistics.

    "formula" is t^k/(k! mu^k); "table" uses an exact table when one is
    supplied, else the formula plus the nonlattice second-order term.
    """
    if mode == "formula":
        return leading_term(k, m.mean, t)
    if mode != "table":
        raise ValueError("center mode must be 'formula' or 'table'")
    if table is not None:
        return table.at(k, t)
    ac = AsymptoticConstants.from_moments(k, m)
    return leading_term(k, m.mean, t) + second_order(k, ac, t, "nonlattice")


def decompose_fluctuation(
    gen1_times: np.ndarray | None,
    yk: float,
    k: int,
    t: float,
    v_eval: "RenewalTable | ExponentialRenewal",
) -> FluctuationParts:
    """Split Y_k - V_k into I_k + J_k using retained level-1 birth times.

    J_k is the expected-subtree placement term
    sum_r V_{k-1}(t - S_r) - V_k(t); I_k is the remainder, so the identity
    I_k + J_k = Y_k - V_k holds by construction up to accumulation error.
    """
    if k < 2:
        raise ValueError("decomposition needs k >= 2")
    if gen1_times is None:
        raise ValueError("missing retained birth times: simulate with retain_gen1")
    vk_t = v_eval.at(k, t)
    j_k = math.fsum(v_eval.at(k - 1, t - s) for s in gen1_times.tolist()) - vk_t
    total = yk - vk_t
    return FluctuationParts(total - j_k, j_k, total)


@dataclass
class MonteCarloSummary:
    """Ensemble reduction: counts and fluctuation statistics per generation."""

    config: SimConfig
    counts: np.ndarray  # (R, K) int64
    means: np.ndarray  # (K,)
    variances: np.ndarray  # (K,) ddof=1
    clt: np.ndarray | None  # (R, K)
    lil: np.ndarray | None  # (R, K), None when horizon <= e or sigma = 0
    centers: np.ndarray  # (K,)

    def quantiles(self, qs=(0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)) -> dict:
        if self.clt is None:
            return {}
        out = {}
        for k in range(1, self.config.levels + 1):
            vals = np.quantile(self.clt[:, k - 1], qs)
            out[k] = {f"{q:g}": float(v) for q, v in zip(qs, vals)}
        return out

    def to_dict(self) -> dict:
        d = {
            "replicas": self.config.replicas,
            "levels": self.config.levels,
            "t": self.config.horizon,
            "seed": self.config.seed,
            "means": [float(x) for x in self.means],
            "variances": [float(x) for x in self.variances],
            "centers": [float(x) for x in self.centers],
        }
        if self.clt is not None:
            d["clt_mean"] = [float(x) for x in self.clt.mean(axis=0)]
            d["clt_variance"] = [float(x) for x in self.clt.var(axis=0, ddof=1)]
            d["clt_quantiles"] = self.quantiles()
        if self.lil is not None:
            d["lil_mean"] = [float(x) for x in self.lil.mean(axis=0)]
        return d


def _block(config: SimConfig, b: int, replicas: range):
    """Block b of an ensemble, simulated on substream b of (seed, stream_offset)."""
    rng = RngStream(config.seed, config.stream_offset, substream=b).generator()
    return _simulate_block(config, len(replicas), rng)


def _count_rows(b: int, replicas: range, config: SimConfig) -> np.ndarray:
    return _block(config, b, replicas)[0]


def monte_carlo(
    config: SimConfig,
    workers: int | None = None,
    table: "RenewalTable | ExponentialRenewal | None" = None,
) -> MonteCarloSummary:
    """Run the ensemble and reduce it; a pure function of (config, seed).

    Replicas run in blocks of ``_block_size(config)``; block b always owns
    substream b of stream (seed, stream_offset), so the summary is
    identical under any worker count or scheduling order.
    """
    if config.replicas < 2:
        raise ValueError("ensemble needs at least two replicas")
    counts = map_blocks(_count_rows, config.replicas, _block_size(config), workers, config)
    m = config.law.moments()
    t = config.horizon
    ks = range(1, config.levels + 1)
    centers = np.array([center_value(k, t, m, config.center, table) for k in ks])
    means = counts.mean(axis=0)
    variances = counts.var(axis=0, ddof=1)
    clt = lil = None
    if m.variance > 0:
        columns = [(counts[:, k - 1], k, t, m, centers[k - 1]) for k in ks]
        clt = np.column_stack([clt_statistic(*c) for c in columns])
        if t > E:
            lil = np.column_stack([lil_statistic(*c).value for c in columns])
    return MonteCarloSummary(config, counts, means, variances, clt, lil, centers)


def _decomposition_rows(b: int, replicas: range, config: SimConfig, k: int, v_eval) -> np.ndarray:
    counts, _, gen1 = _block(config, b, replicas)
    t = config.horizon
    parts = (
        decompose_fluctuation(times, float(yk), k, t, v_eval)
        for times, yk in zip(gen1, counts[:, k - 1])
    )
    return np.array([astuple(p) for p in parts])


def decomposition_ensemble(
    config: SimConfig,
    k: int,
    v_eval: "RenewalTable | ExponentialRenewal",
    workers: int | None = None,
) -> np.ndarray:
    """Per-replica (I_k, J_k, Y_k - V_k) rows, replicas in index order.

    Blocks and substreams are those of ``monte_carlo``.
    """
    if not config.retain_gen1:
        config = replace(config, retain_gen1=True)
    if k < 2 or k > config.levels:
        raise ValueError("decomposition level must satisfy 2 <= k <= K")
    return map_blocks(
        _decomposition_rows, config.replicas, _block_size(config), workers, config, k, v_eval
    )
