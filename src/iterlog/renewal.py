"""Exact lattice renewal calculus.

Builds the level tables V_k(nd) and their perturbed variants V*_k by one
recurrence, V_k (1 - P) = Q V_{k-1} from V_0 = 1/(1 - z), with Q the pmf of
the perturbation law eta or the step law's own P; the closed forms the checks
compare them with (the leading term, the LIL normalization, and
``expansion_constants``, the dict of a level's constants that check c3 reads
and ``renewal --format json`` prints) and the subadditivity sweep.  Sums add
nonnegative doubles in one fixed order, independent of BLAS threads, integer
exact for deterministic laws; against exact integers the tables, standard or
perturbed, are within 3.4e-15 relative for n <= 1000 and 1.9e-13 for
n <= 16000.  The renewal sequence u_n, ``perturbed_table`` and the
Stieltjes ``convolve_levels`` remain for the benchmark harness only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import LatticeLaw, Moments

#: Refuse tables whose K*(N+1) entry count exceeds this cap.
MAX_TABLE_ENTRIES = 100_000_000


@dataclass
class RenewalTable:
    """Arrays V_k(nd) for k = 1..K on the grid n = 0..N, of the plain walk
    or of the perturbed V*_k chain: ``values[k-1, n]`` is V_k(nd)."""

    span: float
    values: np.ndarray  # shape (K, N+1)
    mu: float

    @property
    def levels(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1] - 1

    def level(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.levels:
            raise ValueError(f"level {k} not in table (K={self.levels})")
        return self.values[k - 1]

    def at(self, k: int, t):
        """V_k(t) for t in [0, horizon*d], a float or an array; a t within a
        relative 1e-9 below a site is on it."""
        with np.errstate(invalid="ignore"):  # a NaN or infinite t is a NaN site, refused below
            sites = lattice_site(np.divide(t, self.span))
        if not np.all((sites >= 0) & (sites <= self.horizon)):
            raise ValueError(f"t={t} outside table horizon")
        return self.level(k)[sites.astype(np.int64)]


def lattice_site(x):
    """floor(x) for a time over a span, a float or an array, except that an x
    within 1e-9 (1 + |x|) below a site is on it: the rounding of t / d grows
    with the site index, past any fixed margin.  Returns floats."""
    return (x + 1e-9 * (1.0 + abs(x))) // 1


def check_guard(levels: int, n: int) -> None:
    """Refuse a negative horizon or a table of more than MAX_TABLE_ENTRIES entries."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    if levels * (n + 1) > MAX_TABLE_ENTRIES:
        raise ValueError("horizon too large: table would exceed the memory guard")


def _recurrence_levels(
    law: LatticeLaw, x: np.ndarray, levels: int, eta: LatticeLaw | None = None
) -> np.ndarray:
    """Rows y_1..y_K of y_k (1 - P) = Q y_{k-1}, y_0 = x (Feller I, ch. XIII),
    where Q is eta's pmf, or the law's own when eta is None: one IIR pass per
    level, O(N M) for pmfs on M sites.  The denominator has two or more taps,
    so scipy runs its own sequential loop, not a BLAS dot."""
    # imported here: scipy.signal imports scipy.stats, ~1.4 s in all, against ~0.2 s for `import iterlog`
    from scipy.signal import lfilter

    if not isinstance(law, LatticeLaw):
        raise ValueError("exact tables need a lattice law")
    if eta is None:
        eta = law
    elif not isinstance(eta, LatticeLaw):
        raise ValueError("perturbation law must be lattice")
    elif abs(eta.span - law.span) > 1e-12 * max(law.span, eta.span):
        raise ValueError("incommensurable lattices: step and perturbation spans differ")
    b, a = np.concatenate(([0.0], eta.pmf)), np.concatenate(([1.0], -law.pmf))
    out = np.empty((levels, x.size), dtype=np.float64)
    for k in range(levels):
        x = out[k] = lfilter(b, a, x)
    return out


def renewal_sequence(law: LatticeLaw, n_max: int) -> np.ndarray:
    """The sequence u_n = P{some walk point hits site nd}, n = 0..n_max: u_0 = 1 and
    u_n = sum_{m} p_m u_{n-m}, the impulse response of 1/(1 - P) = 1 + P/(1 - P).
    Partial sums of u give U(nd), and U - 1 = V."""
    check_guard(1, n_max)
    u = _recurrence_levels(law, np.eye(1, n_max + 1)[0], 1)[0]
    u[0] = 1.0
    return u


def _convolve_stieltjes(du: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[n] = sum_{m=1..n} du[m] * v[n-m], added in order of m; du may be shorter.

    du[0] is ignored: increments of a renewal-type function start at the
    first lattice site because the underlying laws have no atom at zero.
    Shifted axpys, not np.convolve: a BLAS dot sums in a thread-dependent order.
    """
    n_max = v.size - 1
    out = np.zeros(n_max + 1, dtype=np.float64)
    for m in range(1, min(du.size, v.size)):
        out[m:] += du[m] * v[: n_max + 1 - m]
    return out


def renewal_table(law: LatticeLaw, levels: int, n_max: int, eta: LatticeLaw | None = None) -> RenewalTable:
    """Exact table of V_1..V_K on the lattice grid: V_k (1 - P) = P V_{k-1}, V_0 = 1/(1 - z);
    with a perturbation law eta on the same lattice, the V*_k chain V*_k (1 - P) = Q V*_{k-1}."""
    if levels < 1:
        raise ValueError("need at least one level")
    check_guard(levels, n_max)
    values = _recurrence_levels(law, np.ones(n_max + 1, dtype=np.float64), levels, eta)
    return RenewalTable(law.span, values, law.moments().mean)


def convolve_levels(table: RenewalTable, levels: int) -> RenewalTable:
    """Extend a table to K = levels via V_k = V_{k-1} * dV (level-1 increments),
    O(N^2) a level; ``renewal_table`` builds the same levels in O(N M), and this
    stays for the benchmark harness."""
    if levels < 1:
        raise ValueError("need at least one level")
    check_guard(levels, table.horizon)
    if levels <= table.levels:
        return table
    du = np.diff(table.values[0], prepend=0.0)
    vals = np.empty((levels, table.horizon + 1), dtype=np.float64)
    vals[: table.levels] = table.values
    for k in range(table.levels + 1, levels + 1):
        vals[k - 1] = _convolve_stieltjes(du, vals[k - 2])
    return RenewalTable(table.span, vals, table.mu)


def perturbed_table(u: np.ndarray, span: float, eta: LatticeLaw, n_max: int, mu: float) -> RenewalTable:
    """Level-1 perturbed table V*(nd) = sum_m q_m U((n-m)d), from the renewal
    sequence ``u`` of a step law on span ``span``: V* (1 - z) = Q u, one pass of
    the table kernel under the unit-step law.  ``renewal_table(law, K, N, eta)``
    builds the whole chain in one call; this form stays for the benchmark harness.
    """
    check_guard(1, n_max)
    if n_max > u.size - 1:
        raise ValueError("renewal sequence shorter than requested horizon")
    v_star = _recurrence_levels(LatticeLaw(span, np.ones(1)), u[: n_max + 1], 1, eta)
    return RenewalTable(span, v_star, mu)


@dataclass(frozen=True)
class ExponentialRenewal:
    """Closed-form level evaluator for the exponential step law: the level-k
    expectation is its leading term (rate*t)^k / k! for every t >= 0."""

    rate: float = 1.0

    @property
    def mu(self) -> float:
        return 1.0 / self.rate

    def at(self, k: int, t):
        return leading_term(k, self.mu, t)


def expansion_constants(
    k: int, m: Moments, span: float | None = None, eta_mean: float | None = None
) -> dict:
    """Closed-form constants for generation index k of a step law with moments m.

    a_k   -- normalization of the iterated-logarithm statistic,
             sigma^{-1} mu^{k+1/2} (k-1)! sqrt(2k-1); left out for a
             degenerate law (variance 0), which has none
    b     -- second-order constant of the nonlattice expansion,
             E xi^2/(2 mu^2) - 1
    d_lim -- given a span d: limit of U(nd) - nd/mu, d/(2 mu) + E xi^2/(2 mu^2)
    c_k   -- given a span d and a perturbation mean E eta: lattice
             second-order constant, d/(2 mu) + k (E xi^2/(2 mu^2) - E eta/mu).
             The induction behind it telescopes C_{k+1} = C_1 + C_k - d/(2 mu)
             (Faulhaber gives sum_{r<n} r^j - n^{j+1}/(j+1) = -n^j/2 + O(n^{j-1}),
             note the sign), so the d-coefficient stays 1 for every k; the
             exact tables pin this down, e.g. the unit-step law has
             V_k(n) = C(n, k) and normalized level-2 residual -1/2.
    """
    mu, m2 = m.mean, m.second_moment
    out = {"k": k, "mu": mu, "second_moment": m2, "sigma2": m.variance}
    if m.variance > 0:
        out["a_k"] = lil_constant(k, mu, math.sqrt(m.variance))
    out["b"] = m2 / (2.0 * mu**2) - 1.0
    if span is not None:
        out["span"] = span
        out["d_lim"] = span / (2.0 * mu) + m2 / (2.0 * mu**2)
        if eta_mean is not None:
            out["eta_mean"] = eta_mean
            out["c_k"] = span / (2.0 * mu) + k * (m2 / (2.0 * mu**2) - eta_mean / mu)
    return out


def leading_term(k: int, mu: float, t):
    """First-order growth t^k / (k! mu^k) of the level-k expectation; ``t`` may
    be a float or an array."""
    # np.any on a float costs microseconds, and the exponential levels read one float a birth
    negative = np.any(t < 0) if isinstance(t, np.ndarray) else t < 0
    if k < 1 or mu <= 0 or negative:
        raise ValueError("need k >= 1, mu > 0, t >= 0")
    return t**k / (math.factorial(k) * mu**k)


def lil_constant(k: int, mu: float, sigma: float) -> float:
    """a_k = sigma^{-1} mu^{k+1/2} (k-1)! sqrt(2k-1)."""
    if k < 1 or mu <= 0:
        raise ValueError("need k >= 1 and mu > 0")
    if sigma <= 0:
        raise ValueError("degenerate law has no LIL normalization")
    return mu ** (k + 0.5) * math.factorial(k - 1) * math.sqrt(2.0 * k - 1.0) / sigma


def subadditivity_sweep(table: RenewalTable, k_max: int) -> tuple[int, float]:
    """Exhaustive sweep of V_k(x+h) - V_k(x) <= (V(h)+1) V(x+h)^{k-1} for k <= k_max.

    Returns (violations, minimum slack), where slack is the right side minus the left side,
    over all grid pairs (x, h) with x + h within the table.  Cells are evaluated a block of
    lags at a time, cells past the table count as +inf, and NaN row minima are skipped.
    """
    from numpy.lib.stride_tricks import sliding_window_view
    from .dist import BLOCK_DRAWS
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    table.level(k_max)  # refuses a level past the table
    n, v1 = table.horizon, table.level(1)
    lags = min(n + 1, max(1, BLOCK_DRAWS // (k_max * (n + 1))))
    # rows V_1^{k-1}, each by a scalar exponent (an integer array rounds differently), and V_k
    padded = np.zeros((2, k_max, n + lags))
    padded[:, :, : n + 1] = [[v1 ** (k - 1) for k in range(1, k_max + 1)], table.values[:k_max]]
    ahead = sliding_window_view(padded, lags, axis=2).transpose(0, 1, 3, 2)  # [i, k - 1, j, y]: site y + j
    past = np.add.outer(np.arange(lags), np.arange(lags - 1)) >= lags - 1  # x + h > n, a full block's end
    row_min, violations = np.empty((k_max, n + 1)), 0
    for h0 in range(0, n + 1, lags):
        b, width = min(lags, n + 1 - h0), n + 1 - h0
        slack = (v1[h0 : h0 + b, None] + 1.0) * ahead[0, :, :b, h0:]
        slack -= ahead[1, :, :b, h0:] - padded[1, :, None, :width]
        np.copyto(slack[:, :, width - b + 1 :], np.inf, where=past[:b, lags - b :])
        if not slack.min(axis=2, out=row_min[:, h0 : h0 + b]).min() >= 0.0:  # a NaN row counts too
            violations += int(np.count_nonzero(slack < 0.0))
    row_min = row_min[~np.isnan(row_min)]  # in (k, h) order; argmin keeps the first of equal minima
    return violations, float(row_min[row_min.argmin()]) if row_min.size else math.inf


def write_table_csv(table: RenewalTable, path: str) -> None:
    """Columns n, t = n*d, V1..VK with 17-significant-digit rendering."""
    row_format = "%d,%.17g" + ",%.17g" * table.levels + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,t," + ",".join(f"V{j}" for j in range(1, table.levels + 1)) + "\n")
        for n, row in enumerate(table.values.T):  # one row at a time keeps memory flat
            fh.write(row_format % (n, n * table.span, *row.tolist()))
