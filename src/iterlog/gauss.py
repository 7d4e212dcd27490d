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
from .renewal import RenewalTable, lattice_site

#: Replicas per block of the Gaussian ensembles; the block fixes the draws.
BLOCK_ROWS = 128


@dataclass
class BmPath:
    """Brownian values on a uniform grid: values[j] = W(j h)."""

    h: float
    values: np.ndarray


def _check_step(t_max: float, h: float) -> None:
    if not (h > 0 and t_max >= h):
        raise ValueError("need h > 0 and t_max >= h")


def sample_bm(t_max: float, h: float, stream: RngStream) -> BmPath:
    """Cumulative sum of centered Gaussian increments of variance h."""
    _check_step(t_max, h)
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
    """Evaluator for f_k(t) = V_{k-1}(t) - t^{k-1}/((k-1)! mu^{k-1}).

    Lattice kind wraps an exact renewal table (step-constant V_{k-1});
    exponential kind is identically zero because the level expectations
    are exactly polynomial there.
    """

    k: int
    mu: float
    kind: str
    span: float = 0.0
    values: np.ndarray | None = None  # V_{k-1}(nd) grid when kind == "lattice"

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("f_k needs k >= 2")
        if self.kind not in ("lattice", "exponential"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "lattice" and (self.values is None or self.span <= 0):
            raise ValueError("lattice table needs a span and grid values")

    @classmethod
    def from_renewal(cls, table: RenewalTable, k: int) -> "FkTable":
        return cls(k, table.mu, "lattice", table.span, table.level(k - 1))

    @classmethod
    def exponential(cls, k: int, rate: float = 1.0) -> "FkTable":
        return cls(k, 1.0 / rate, "exponential")

    @property
    def horizon(self) -> float:
        if self.kind == "lattice":
            return (self.values.size - 1) * self.span
        return math.inf

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "exponential":
            return np.zeros_like(s)
        idx = lattice_site(s / self.span).astype(np.int64)
        if np.any(idx < 0) or np.any(idx >= self.values.size):
            raise ValueError("argument outside table horizon")
        c = math.factorial(self.k - 1) * self.mu ** (self.k - 1)
        return self.values[idx] - s ** (self.k - 1) / c


def _check_grid(fk: FkTable, h: float, t: float) -> None:
    """A lattice weight must step on the path grid and cover [0, t]."""
    if fk.kind == "lattice":
        ratio = fk.span / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid mismatch: lattice span not a multiple of the path step")
        if fk.horizon + 1e-9 < t:
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
    if fk.kind == "exponential":
        return 0.0
    d = fk.span
    cells = int(round(n / d))
    if abs(cells * d - n) > 1e-9 * max(1.0, n):
        raise ValueError("upper limit must sit on the lattice grid")
    if cells > fk.values.size - 1:
        raise ValueError("table does not cover [0, n]")
    k = fk.k
    c = math.factorial(k - 1) * fk.mu ** (k - 1)
    m = np.arange(cells, dtype=np.float64)
    lo = m * d
    hi = lo + d
    v = fk.values[:cells]
    a = (hi**k - lo**k) / k
    b = (hi ** (2 * k - 1) - lo ** (2 * k - 1)) / (2 * k - 1)
    cell = v * v * d - 2.0 * v * a / c + b / (c * c)
    return math.fsum(cell.tolist())


def b1k_ensemble(
    k: int, t: float, h: float, replicas: int, stream: RngStream, workers: int | None = None
) -> np.ndarray:
    """Independent values of sum_j (t - x_j)^{k-1} dW_j over the grid cells
    below t; see ``_weighted_sums`` for the streams."""
    _check_step(t, h)
    args = (_weights(lambda lag: lag ** (k - 1), t, h), h, stream.seed, stream.index)
    return map_blocks(_weighted_sums, replicas, BLOCK_ROWS, workers, *args)


def b2k_ensemble(
    fk: FkTable, t: float, h: float, replicas: int, stream: RngStream, workers: int | None = None
) -> np.ndarray:
    """Independent ``b2k`` values; see ``_weighted_sums`` for the streams."""
    _check_step(t, h)
    _check_grid(fk, h, t)
    args = (_weights(fk.evaluate, t, h), h, stream.seed, stream.index)
    return map_blocks(_weighted_sums, replicas, BLOCK_ROWS, workers, *args)


def _weighted_sums(b: int, rows: range, weights, h: float, seed: int, index: int) -> np.ndarray:
    """sum_j weights_j dW_j for each replica of block b, drawn on substream b
    of (seed, index): block 0 repeats the stream's first draws.  The rows are
    drawn ``row_chunks(len(rows), weights.size)`` at a time from that one
    generator, which draws what one (len(rows), weights.size) array draws."""
    rng = RngStream(seed, index, b).generator()
    # per-row reduction instead of BLAS keeps results thread-count independent
    return np.concatenate([
        (rng.normal(0.0, math.sqrt(h), (r, weights.size)) * weights).sum(axis=1)
        for r in row_chunks(len(rows), weights.size)
    ])
