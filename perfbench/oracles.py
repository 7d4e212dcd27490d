"""Oracles for every timed operation, run outside the timed region.

Each oracle returns a list of ``Outcome``; an operation fails when any
outcome attached to it is not ok.  Tolerances are fixed here, before any
result is seen:

* exact tables: an independent generating-function recurrence
  (``scipy.signal.lfilter``) over every cell at 1e-9 relative, an exact
  ``Fraction`` recurrence on a prefix at 1e-12 relative, and the binomial
  closed form for the unit-step law at 1e-12 relative;
* the c2 ratio gate (2%) and the c3 level-1 residual gate (1e-9), as in
  ``iterlog verify``;
* Monte Carlo: the c5 CLT gates for the exponential law, a 4-standard-error
  mean gate against the exact tables for lattice laws, and bitwise equality
  of counts across worker counts;
* ``iterlog verify``: exit code 0 and every gated check passing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

TABLE_REL_TOL = 1e-9
EXACT_REL_TOL = 1e-12
RATIO_TOL = 0.02
RESIDUAL_TOL = 1e-9
MEAN_GATE_SE = 4.0
VERIFY_CHECKS = ("c1", "c2", "c3", "c4", "c6", "c7", "c8")


class Outcome(NamedTuple):
    name: str
    ok: bool
    value: float | int | str


# ---------------------------------------------------------------------------
# exact tables
# ---------------------------------------------------------------------------


def recurrence_table(step_pmf, first_pmf, levels: int, n_max: int) -> np.ndarray:
    """V_k = (Q / (1 - P)) V_{k-1} with V_0 = 1, as one IIR filter per level.

    With ``first_pmf = step_pmf`` this is the standard table V_k; with a
    perturbation pmf it is the V*_k chain.  Independent of the Stieltjes
    convolution the program uses.
    """
    from scipy.signal import lfilter

    b = np.concatenate(([0.0], np.asarray(first_pmf, dtype=np.float64)))
    a = np.concatenate(([1.0], -np.asarray(step_pmf, dtype=np.float64)))
    out = np.empty((levels, n_max + 1))
    prev = np.ones(n_max + 1)
    for k in range(levels):
        prev = out[k] = lfilter(b, a, prev)
    return out


def max_rel_err(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest |x - y| / |y|; a cell whose reference is 0 must be exactly 0."""
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if values.shape != reference.shape:
        return math.inf
    diff = np.abs(values - reference)
    zero = reference == 0.0
    if np.any(diff[zero] != 0.0):
        return math.inf
    if np.all(zero):
        return 0.0
    return float(np.max(diff[~zero] / np.abs(reference[~zero])))


def check_recurrence(name: str, values: np.ndarray, step_pmf, first_pmf=None) -> Outcome:
    first = step_pmf if first_pmf is None else first_pmf
    ref = recurrence_table(step_pmf, first, values.shape[0], values.shape[1] - 1)
    err = max_rel_err(values, ref)
    return Outcome(f"{name}.recurrence", err <= TABLE_REL_TOL, err)


def fraction_table(pmf: list[Fraction], levels: int, n_max: int) -> list[list[Fraction]]:
    """Exact V_k(n) = sum_m p_m (V_k(n-m) + V_{k-1}(n-m)), V_0 = 1, in rationals."""
    prev = [Fraction(1)] * (n_max + 1)
    out = []
    for _ in range(levels):
        cur = [Fraction(0)] * (n_max + 1)
        for n in range(1, n_max + 1):
            acc = Fraction(0)
            for m, p in enumerate(pmf[:n], start=1):
                if p:
                    acc += p * (cur[n - m] + prev[n - m])
            cur[n] = acc
        out.append(cur)
        prev = cur
    return out


def fraction_rel_err(values: np.ndarray, exact: list[list[Fraction]]) -> float:
    """Exact relative error of the table prefix covered by ``exact``."""
    worst = Fraction(0)
    for k, row in enumerate(exact):
        got = values[k, : len(row)].tolist()
        for x, e in zip(got, row):
            if e == 0:
                if x != 0.0:
                    return math.inf
                continue
            err = abs(Fraction(x) - e) / e
            if err > worst:
                worst = err
    return float(worst)


def check_fraction(name: str, values: np.ndarray, exact) -> Outcome:
    err = fraction_rel_err(values, exact)
    return Outcome(f"{name}.fraction", err <= EXACT_REL_TOL, err)


def check_binomial(name: str, values: np.ndarray) -> Outcome:
    """Unit-step law: V_k(n) = C(n, k)."""
    n = np.arange(values.shape[1])
    ref = np.array([[math.comb(int(i), k + 1) for i in n] for k in range(values.shape[0])], dtype=np.float64)
    err = max_rel_err(values, ref)
    return Outcome(f"{name}.binomial", err <= EXACT_REL_TOL, err)


def check_ratio(name: str, values: np.ndarray, mu: float) -> Outcome:
    """c2: V_k(N) k! mu^k / N^k within 2% of 1 for every level."""
    n = values.shape[1] - 1
    devs = [
        abs(float(values[k - 1, n]) * math.factorial(k) * mu**k / float(n) ** k - 1.0)
        for k in range(1, values.shape[0] + 1)
    ]
    worst = max(devs)
    return Outcome(f"{name}.c2_ratio", worst <= RATIO_TOL, worst)


def check_residual(name: str, values: np.ndarray, mu: float) -> Outcome:
    """c3: for eta = xi geometric, V*_1(n) = n / mu on the whole grid."""
    grid = np.arange(values.shape[1], dtype=np.float64)
    resid = float(np.max(np.abs(values[0] - grid / mu)))
    return Outcome(f"{name}.c3_residual", resid <= RESIDUAL_TOL, resid)


def check_sweep(name: str, result) -> Outcome:
    violations, min_slack = result
    ok = violations == 0 and min_slack >= 0.0
    return Outcome(f"{name}.violations", ok, int(violations))


def check_csv(name: str, text: str, values: np.ndarray, span: float) -> Outcome:
    """The CSV parses back to exactly the table, row by row and bit by bit."""
    lines = text.split("\n")
    k = values.shape[0]
    ok = lines[0] == "n,t," + ",".join(f"V{j}" for j in range(1, k + 1))
    rows = [line for line in lines[1:] if line]
    ok = ok and len(rows) == values.shape[1] and lines[-1] == ""
    if ok:
        parsed = np.array([[float(c) for c in row.split(",")] for row in rows])
        n = np.arange(values.shape[1], dtype=np.float64)
        ok = (
            parsed.shape == (values.shape[1], k + 2)
            and np.array_equal(parsed[:, 0], n)
            and np.array_equal(parsed[:, 1], n * span)
            and np.array_equal(parsed[:, 2:].T, values)
        )
    return Outcome(f"{name}.round_trip", bool(ok), len(rows))


# ---------------------------------------------------------------------------
# Monte Carlo ensembles
# ---------------------------------------------------------------------------


def check_clt(name: str, clt: np.ndarray) -> list[Outcome]:
    """c5 gates: CLT statistic variance in [0.9, 1.1] and |mean| <= 0.05."""
    out = []
    for k in range(1, clt.shape[1] + 1):
        var = float(clt[:, k - 1].var(ddof=1))
        mean = float(clt[:, k - 1].mean())
        out.append(Outcome(f"{name}.c5_variance_k{k}", 0.9 <= var <= 1.1, var))
        out.append(Outcome(f"{name}.c5_mean_k{k}", abs(mean) <= 0.05, mean))
    return out


def check_mean(name: str, counts: np.ndarray, exact: np.ndarray) -> list[Outcome]:
    """Ensemble mean of Y_k within 4 standard errors of the exact V_k(t)."""
    r = counts.shape[0]
    out = []
    for k in range(counts.shape[1]):
        col = counts[:, k].astype(np.float64)
        se = float(col.std(ddof=1)) / math.sqrt(r)
        z = abs(float(col.mean()) - float(exact[k])) / se if se > 0 else math.inf
        out.append(Outcome(f"{name}.mean_k{k + 1}", z <= MEAN_GATE_SE, z))
    return out


def check_same_counts(name: str, counts: np.ndarray, other: np.ndarray) -> Outcome:
    """Counts identical cell for cell; the value is the number of differing cells."""
    if counts.shape != other.shape:
        return Outcome(f"{name}.workers_1_vs_2", False, -1)
    differ = int(np.sum(counts != other))
    return Outcome(f"{name}.workers_1_vs_2", differ == 0, differ)


def span_mismatches(simulated: list[int], exact: np.ndarray) -> int:
    """Horizons n = 1.. where the simulated Y_1(n d) differs from V_1(n d)."""
    return sum(int(y != exact[n]) for n, y in enumerate(simulated, start=1))


# ---------------------------------------------------------------------------
# iterlog verify
# ---------------------------------------------------------------------------


def check_report(name: str, code: int, text: str) -> list[Outcome]:
    """Exit code 0, no FAIL line, and a gated PASS line for every fast check."""
    lines = [line for line in text.split("\n") if line]
    gated = [line.split(" ", 2)[:2] for line in lines[:-1] if line.split(" ", 1)[0] in ("PASS", "FAIL")]
    failed = [check for status, check in gated if status != "PASS"]
    covered = {check.split("_", 1)[0] for status, check in gated}
    missing = [c for c in VERIFY_CHECKS if c not in covered]
    summary_ok = bool(lines) and lines[-1].startswith("PASS suite=")
    return [
        Outcome(f"{name}.exit_code", code == 0, code),
        Outcome(f"{name}.gated_checks", not failed and not missing and summary_ok, len(failed) + len(missing)),
    ]
