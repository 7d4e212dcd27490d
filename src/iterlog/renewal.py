"""Exact lattice renewal calculus.

Builds the level tables V_k(nd) and their perturbed variants V*_k by one
recurrence, V_k (1 - P) = Q V_{k-1} from V_0 = 1/(1 - z), with Q the pmf of
the perturbation law eta or the step law's own P; the closed forms the checks
compare them with (the leading term, the expansion constants, the LIL
normalization) and the subadditivity sweep.  Sums add nonnegative doubles in
one fixed order, independent of BLAS threads, integer exact for deterministic
laws; against exact integers the tables, standard or perturbed, are within
3.4e-15 relative for n <= 1000 and 1.9e-13 for n <= 16000.  The renewal
sequence u_n, ``perturbed_table`` and the Stieltjes ``convolve_levels`` remain
for the benchmark harness only.
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
        sites = lattice_site(np.divide(t, self.span))
        if np.any(sites < 0) or np.any(sites > self.horizon):
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


@dataclass(frozen=True)
class AsymptoticConstants:
    """Closed-form constants for one generation index k.

    a_k   -- normalization of the iterated-logarithm statistic,
             sigma^{-1} mu^{k+1/2} (k-1)! sqrt(2k-1)
    b     -- second-order constant of the nonlattice expansion,
             E xi^2/(2 mu^2) - 1
    c_k   -- lattice second-order constant,
             d/(2 mu) + k (E xi^2/(2 mu^2) - E eta/mu).
             The induction behind it telescopes C_{k+1} = C_1 + C_k - d/(2 mu)
             (Faulhaber gives sum_{r<n} r^j - n^{j+1}/(j+1) = -n^j/2 + O(n^{j-1}),
             note the sign), so the d-coefficient stays 1 for every k; the
             exact tables pin this down, e.g. the unit-step law has
             V_k(n) = C(n, k) and normalized level-2 residual -1/2.
    d_lim -- limit of U(nd) - nd/mu: d/(2 mu) + E xi^2/(2 mu^2)
    """

    k: int
    mu: float
    second_moment: float
    sigma2: float
    span: float | None = None
    eta_mean: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("generation index must be >= 1")
        if self.mu <= 0:
            raise ValueError("mean must be positive")
        if self.sigma2 < 0:
            raise ValueError("variance must be nonnegative")

    @classmethod
    def from_moments(
        cls,
        k: int,
        m: Moments,
        span: float | None = None,
        eta_mean: float | None = None,
    ) -> "AsymptoticConstants":
        return cls(k, m.mean, m.second_moment, m.variance, span, eta_mean)

    @property
    def a_k(self) -> float:
        return lil_constant(self.k, self.mu, math.sqrt(self.sigma2))

    @property
    def b(self) -> float:
        return self.second_moment / (2.0 * self.mu**2) - 1.0

    @property
    def c_k(self) -> float:
        if self.span is None or self.eta_mean is None:
            raise ValueError("lattice constant needs a span and a perturbation mean")
        return self.span / (2.0 * self.mu) + self.k * (
            self.second_moment / (2.0 * self.mu**2) - self.eta_mean / self.mu
        )

    @property
    def d_lim(self) -> float:
        if self.span is None:
            raise ValueError("lattice limit needs a span")
        return self.span / (2.0 * self.mu) + self.second_moment / (2.0 * self.mu**2)

    def to_dict(self) -> dict:
        out = {
            "k": self.k,
            "mu": self.mu,
            "second_moment": self.second_moment,
            "sigma2": self.sigma2,
            "a_k": self.a_k,
            "b": self.b,
        }
        if self.span is not None:
            out["span"] = self.span
            out["d_lim"] = self.d_lim
            if self.eta_mean is not None:
                out["eta_mean"] = self.eta_mean
                out["c_k"] = self.c_k
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

    Returns (violations, minimum slack, right side minus left side) over all
    grid pairs (x, h) with x + h within the table.
    """
    n = table.horizon
    violations = 0
    min_slack = math.inf
    v1 = table.level(1)
    for k in range(1, k_max + 1):
        vk = table.level(k)
        power = v1[: n + 1] ** (k - 1)
        for h in range(0, n + 1):
            slack = (v1[h] + 1.0) * power[h:] - (vk[h : n + 1] - vk[: n + 1 - h])
            m = slack.min()
            min_slack = min(min_slack, m)
            if not m >= 0.0:  # a NaN minimum counts its row too
                violations += int((slack < 0.0).sum())
    return violations, float(min_slack)


def write_table_csv(table: RenewalTable, path: str) -> None:
    """Columns n, t = n*d, V1..VK with 17-significant-digit rendering."""
    row_format = "%d,%.17g" + ",%.17g" * table.levels + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,t," + ",".join(f"V{j}" for j in range(1, table.levels + 1)) + "\n")
        for n, row in enumerate(table.values.T):  # one row at a time keeps memory flat
            fh.write(row_format % (n, n * table.span, *row.tolist()))
