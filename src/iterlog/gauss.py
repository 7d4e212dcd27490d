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

from .dist import RngStream, map_blocks, row_chunks
from .renewal import ExponentialRenewal, RenewalTable, lattice_site, leading_term

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


def _weights(weight, t: float, h: float) -> np.ndarray:
    """weight(t - x_j) at the left points x_j = j h of the grid cells below t."""
    return weight(t - h * np.arange(_cells_below(t, h), dtype=np.float64))


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
    if t < 0 or -lattice_site(-t / path.h) > path.values.size - 1:
        raise ValueError("t outside path horizon")
    g = _weights(fk.evaluate, t, path.h)
    return float(np.dot(g, np.diff(path.values[: g.size + 1])))


def variance_b2k(fk: FkTable, n: float) -> float:
    """integral of f_k^2 over [0, n]: exact per lattice cell, zero for exponential.

    On [md, (m+1)d) the integrand is (v_m - x^{k-1}/c)^2 with constant v_m,
    so each cell integrates in closed form.
    """
    if n < 0:
        raise ValueError("upper limit must be nonnegative")
    table = fk.levels
    if isinstance(table, ExponentialRenewal):
        return 0.0
    d = table.span
    cells = int(round(n / d))
    if abs(cells * d - n) > 1e-9 * max(1.0, n):
        raise ValueError("upper limit must sit on the lattice grid")
    if cells > table.horizon:
        raise ValueError("table does not cover [0, n]")
    k = fk.k
    c = math.factorial(k - 1) * table.mu ** (k - 1)
    m = np.arange(cells, dtype=np.float64)
    lo = m * d
    hi = lo + d
    v = table.level(k - 1)[:cells]
    a = (hi**k - lo**k) / k
    b = (hi ** (2 * k - 1) - lo ** (2 * k - 1)) / (2 * k - 1)
    cell = v * v * d - 2.0 * v * a / c + b / (c * c)
    return math.fsum(cell.tolist())


def b1k_ensemble(k: int, t: float, h: float, replicas: int, stream: RngStream) -> np.ndarray:
    """Independent values of sum_j (t - x_j)^{k-1} dW_j over the grid cells
    below t, in blocks of BLOCK_ROWS on the substreams of ``stream``."""
    if k < 1:
        raise ValueError("need k >= 1")
    check_step(t, h)
    weights = _weights(lambda lag: lag ** (k - 1), t, h)
    return map_blocks(_weighted_sums, stream, replicas, BLOCK_ROWS, weights, h)


def b2k_ensemble(fk: FkTable, t: float, h: float, replicas: int, stream: RngStream) -> np.ndarray:
    """Independent ``b2k`` values, in blocks of BLOCK_ROWS on the substreams of ``stream``."""
    check_step(t, h)
    _check_grid(fk, h, t)
    return map_blocks(_weighted_sums, stream, replicas, BLOCK_ROWS, _weights(fk.evaluate, t, h), h)


def _weighted_sums(rng: np.random.Generator, rows: int, weights: np.ndarray, h: float) -> np.ndarray:
    """sum_j weights_j dW_j for each of ``rows`` replicas, drawn
    ``row_chunks(rows, weights.size)`` at a time from ``rng``, which draws what
    one (rows, weights.size) array draws."""
    # per-row reduction instead of BLAS keeps results thread-count independent
    return np.concatenate([
        (rng.normal(0.0, math.sqrt(h), (r, weights.size)) * weights).sum(axis=1)
        for r in row_chunks(rows, weights.size)
    ])
