"""Discretized Brownian paths and the weighted integrals of the remainder
analysis: B1 with polynomial weight (t-x)^{k-1} and B2 weighted by
f_k(t) = V_{k-1}(t) - t^{k-1}/((k-1)! mu^{k-1}).

Stochastic sums use the left-point (Ito) rule, under which the discrete
isometry Var(sum g dW) = h * sum g^2 is exact, making the closed-form
variance identities sharp test targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import RngStream, draw_rows, map_blocks
from .renewal import MAX_TABLE_ENTRIES, ExponentialRenewal, RenewalTable, lattice_site, leading_term

#: Replicas per block of the Gaussian ensembles; the block fixes the draws.
BLOCK_ROWS = 128


@dataclass
class BmPath:
    """Brownian values on a uniform grid: values[j] = W(j h)."""

    h: float
    values: np.ndarray


def check_step(t_max: float, h: float) -> None:
    """Refuse a path step h and horizon t_max unless 0 < h <= t_max < inf."""
    if not 0 < h <= t_max < math.inf:
        raise ValueError("need h > 0 and t_max >= h, both finite")


def sample_bm(t_max: float, h: float, stream: RngStream) -> BmPath:
    """Cumulative sum of centered Gaussian increments of variance h."""
    check_step(t_max, h)
    rng = stream.generator()
    steps = int(round(t_max / h))
    w = np.empty(steps + 1, dtype=np.float64)
    w[0] = 0.0
    np.cumsum(rng.normal(0.0, math.sqrt(h), steps), out=w[1:])
    return BmPath(h, w)


def _cells_below(t: float, h: float) -> int:
    """Grid cells of step h below t, a t that rounds to just below a grid point on it."""
    return int(lattice_site(t / h))


def _weights(weight, t: float, h: float) -> tuple[np.ndarray, float]:
    """weight(t - x_j) at the left points x_j = j h of the grid cells below t, and
    the sum's exact variance h * sum g^2, refused, before any draw, unless finite."""
    if (cells := _cells_below(t, h)) > MAX_TABLE_ENTRIES:
        raise ValueError(f"step too small: {cells} grid cells below t would exceed the memory guard")
    with np.errstate(over="ignore", invalid="ignore"):
        g = weight(t - h * np.arange(cells, dtype=np.float64))
        if not math.isfinite(variance := h * float(np.dot(g, g))):
            raise ValueError(f"the weighted sum's variance h * sum g^2 = {variance} is not a finite float")
    return g, variance


@dataclass(frozen=True)
class FkTable:
    """Evaluator for f_k(t) = V_{k-1}(t) - t^{k-1}/((k-1)! mu^{k-1}), read from
    the level expectations: an exact lattice table, where V_{k-1} steps, or the
    exponential closed form, where V_{k-1} is its leading term and f_k is +0.0.
    """

    k: int
    levels: RenewalTable | ExponentialRenewal

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("f_k needs k >= 2")

    def evaluate(self, s):
        return self.levels.at(self.k - 1, s) - leading_term(self.k - 1, self.levels.mu, s)


def _check_grid(fk: FkTable, h: float, t: float) -> None:
    """A lattice weight must step on the path grid and cover [0, t]."""
    table = fk.levels
    if isinstance(table, RenewalTable):
        ratio = table.span / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid mismatch: lattice span not a multiple of the path step")
        if table.horizon * table.span + 1e-9 < t:
            raise ValueError("grid mismatch: table does not cover [0, t]")


def b2k(path: BmPath, fk: FkTable, t: float) -> float:
    """sum_j f_k(t - x_j) dW_j over the grid cells below t (left points x_j);
    the step grid must sit on the path grid."""
    _check_grid(fk, path.h, t)
    # -lattice_site(-x) is the number of cells that cover [0, t]
    if not 0 <= t < math.inf or -lattice_site(-t / path.h) > path.values.size - 1:
        raise ValueError("t outside path horizon")
    g, _ = _weights(fk.evaluate, t, path.h)
    return float(np.dot(g, np.diff(path.values[: g.size + 1])))


def variance_b2k(fk: FkTable, n: float) -> float:
    """integral of f_k^2 over [0, n]: exact per lattice cell, zero for exponential.

    On [md, (m+1)d) the integrand is (v_m - x^{k-1}/c)^2 with constant v_m,
    so each cell, the last one cut at n, integrates in closed form.
    """
    if not 0 <= n < math.inf:
        raise ValueError("upper limit must be finite and nonnegative")
    table = fk.levels
    if isinstance(table, ExponentialRenewal):
        return 0.0
    d = table.span
    cells = int(-lattice_site(-n / d))  # the cells that cover [0, n]
    if cells > table.horizon:
        raise ValueError("table does not cover [0, n]")
    k = fk.k
    c = math.factorial(k - 1) * table.mu ** (k - 1)
    lo = np.arange(cells, dtype=np.float64) * d
    hi = lo + d
    width = np.full(cells, d)
    if lattice_site(n / d) < cells:  # n inside the last cell
        hi[-1], width[-1] = n, n - lo[-1]
    v = table.level(k - 1)[:cells]
    a = (hi**k - lo**k) / k
    b = (hi ** (2 * k - 1) - lo ** (2 * k - 1)) / (2 * k - 1)
    cell = v * v * width - 2.0 * v * a / c + b / (c * c)
    return math.fsum(cell.tolist())


def b1k_weights(k: int, t: float, h: float) -> tuple[np.ndarray, float]:
    """The weights (t - x_j)^{k-1} of a ``b1k_ensemble`` value, and its exact variance."""
    if k < 1:
        raise ValueError("need k >= 1")
    check_step(t, h)
    return _weights(lambda lag: lag ** (k - 1), t, h)


def b2k_weights(fk: FkTable, t: float, h: float) -> tuple[np.ndarray, float]:
    """The weights f_k(t - x_j) of a ``b2k_ensemble`` value, and its exact variance."""
    check_step(t, h)
    _check_grid(fk, h, t)
    return _weights(fk.evaluate, t, h)


def b1k_ensemble(k: int, t: float, h: float, replicas: int, stream: RngStream) -> np.ndarray:
    """Independent values of sum_j (t - x_j)^{k-1} dW_j over the grid cells
    below t, in blocks of BLOCK_ROWS on the substreams of ``stream``."""
    return map_blocks(_weighted_sums, stream, replicas, BLOCK_ROWS, b1k_weights(k, t, h)[0], h)


def b2k_ensemble(fk: FkTable, t: float, h: float, replicas: int, stream: RngStream) -> np.ndarray:
    """Independent ``b2k`` values, in blocks of BLOCK_ROWS on the substreams of ``stream``."""
    return map_blocks(_weighted_sums, stream, replicas, BLOCK_ROWS, b2k_weights(fk, t, h)[0], h)


def _weighted_sums(rng: np.random.Generator, rows: int, weights: np.ndarray, h: float) -> np.ndarray:
    """sum_j weights_j dW_j for each of ``rows`` replicas, drawn by
    ``dist.draw_rows`` a chunk at a time from ``rng``, which draws what one
    (rows, weights.size) array draws."""
    # per-row reduction instead of BLAS keeps results thread-count independent
    return draw_rows(lambda rng, r: (rng.normal(0.0, math.sqrt(h), (r, weights.size)) * weights).sum(axis=1),
                     rng, rows, weights.size)
