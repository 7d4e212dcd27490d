"""Generation counts of the branching process driven by an increasing walk.

Each individual born at time s produces offspring at s + S_n, the points of
an independent copy of the walk, or at s + S_{n-1} + eta_n for a perturbed
walk; Y_k(t) counts generation-k births in [0, t].  One kernel draws every
generation: generation 1 is the offspring of a root at time 0, and only
births inside [0, t] are materialized.  Replicas are simulated on private
random streams and dispatched by ``dist.map_blocks``, so ensembles are
reproducible under any parallel schedule.
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
    t: float,
    mu: float,
) -> np.ndarray:
    """Birth times in [0, t] of every child of every parent.

    A parent born at s starts the walk s + S_n; its children are born at
    s + S_n, or at s + S_{n-1} + eta_n when eta is given.  Each live walk
    draws one block per round, sized to overshoot its own remaining horizon
    with high probability, and one flat cumsum rebased per walk places the
    whole round.  Walks still at or below t start another round.
    """
    origins = np.asarray(parents, dtype=np.float64)
    chunks = []
    while origins.size:
        sizes = np.maximum(16, (1.25 * (t - origins) / mu).astype(np.int64) + 8)
        ends = np.cumsum(sizes)
        pos = np.cumsum(xi.sample(rng, int(ends[-1])))
        pos += np.repeat(origins - np.concatenate(([0.0], pos[ends[:-1] - 1])), sizes)
        if eta is None:
            births = pos
        else:
            prev = np.empty_like(pos)
            prev[1:] = pos[:-1]
            prev[ends - sizes] = origins
            births = prev + eta.sample(rng, pos.size)
        chunks.append(births[births <= t])
        last = pos[ends - 1]
        origins = last[last <= t]
    return np.concatenate(chunks) if chunks else np.empty(0)


def _is_exponential(law: Law) -> bool:
    return isinstance(law, SmoothLaw) and law.family == "exp"


def simulate_generations(config: SimConfig, replica: int) -> SimOutcome:
    """Simulate one replica: counts Y_k(t) for k = 1..K, optional path/times.

    Generation 1 is the offspring of one root at time 0, and every
    generation is the offspring of the one before, so only births inside
    [0, t] are materialized.  For the final generation (k >= 2) of an
    exponential standard walk the counts are drawn directly (the number of
    walk points in a window of length w is Poisson(rate * w)), which is an
    exact shortcut, not an approximation.
    """
    rng = RngStream(config.seed, config.stream_offset + replica).generator()
    t, law, eta, grid = config.horizon, config.law, config.eta, config.grid
    mu = law.moments().mean
    counts = np.zeros(config.levels, dtype=np.int64)
    path = None if grid is None else np.zeros((config.levels, grid.size), dtype=np.int64)
    poisson_last = config.levels > 1 and path is None and eta is None and _is_exponential(law)
    gen = np.zeros(1)
    gen1 = None
    for k in range(config.levels - poisson_last):
        gen = _children(rng, law, eta, gen, t, mu)
        counts[k] = gen.size
        if path is not None:
            path[k] = np.searchsorted(np.sort(gen), grid, side="right")
        if k == 0 and config.retain_gen1:
            gen1 = gen
    if poisson_last:
        counts[-1] = rng.poisson((t - gen) * law.params["rate"]).sum()
    return SimOutcome(counts, path, gen1)


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


def _count_rows(block: int, replicas: range, config: SimConfig) -> np.ndarray:
    return np.array([simulate_generations(config, r).counts for r in replicas])


def monte_carlo(
    config: SimConfig,
    workers: int | None = None,
    table: "RenewalTable | ExponentialRenewal | None" = None,
) -> MonteCarloSummary:
    """Run the ensemble and reduce it; a pure function of (config, seed).

    Replica r always owns stream (seed, stream_offset + r), so the summary
    is identical under any worker count or scheduling order.
    """
    if config.replicas < 2:
        raise ValueError("ensemble needs at least two replicas")
    counts = map_blocks(_count_rows, config.replicas, 1, workers, config)
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


def _decomposition_rows(block: int, replicas: range, config: SimConfig, k: int, v_eval) -> np.ndarray:
    sims = (simulate_generations(config, r) for r in replicas)
    t = config.horizon
    parts = (decompose_fluctuation(s.gen1_times, float(s.counts[k - 1]), k, t, v_eval) for s in sims)
    return np.array([astuple(p) for p in parts])


def decomposition_ensemble(
    config: SimConfig,
    k: int,
    v_eval: "RenewalTable | ExponentialRenewal",
    workers: int | None = None,
) -> np.ndarray:
    """Per-replica (I_k, J_k, Y_k - V_k) rows, replicas in index order."""
    if not config.retain_gen1:
        config = replace(config, retain_gen1=True)
    if k < 2 or k > config.levels:
        raise ValueError("decomposition level must satisfy 2 <= k <= K")
    return map_blocks(_decomposition_rows, config.replicas, 1, workers, config, k, v_eval)
