"""Named verification checks binding the whole package together.

Each check compares a computed quantity against an exact table, a closed
form, or a pinned statistical tolerance, and reports target / computed /
tolerance / pass.  Reports contain no timestamps or durations, so two runs
with the same seed are byte identical regardless of worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import cmj, gauss, renewal, rrt
from .dist import STREAM_BLOCK, LatticeLaw, RngStream, SmoothLaw, geometric_lattice

#: Disjoint stream-index blocks, one per stochastic check.
_BLOCKS = {
    "c5": 1,
    "c6": 2,
    "c7a": 3,
    "c7b": 4,
    "c7c": 5,
    "c8a": 6,
    "c8c": 7,
    "r_lil": 8,
    "r_rrt": 9,
}

#: Sub-stream spacing inside a check's block.
_SUB = 1 << 20

#: Fewest expected counts in a pooled cell of the chi-square test.
MIN_POOLED = 25


def _offset(check: str, sub: int = 0) -> int:
    return _BLOCKS[check] * STREAM_BLOCK + sub * _SUB


def _unit_exp(seed: int, check: str, sub: int = 0, **options) -> cmj.SimConfig:
    """A unit-exponential ensemble on sub-stream ``sub`` of the check's own block."""
    return cmj.SimConfig(SmoothLaw("exp", {"rate": 1.0}), seed=seed, stream_offset=_offset(check, sub), **options)


@dataclass
class CheckResult:
    name: str
    passed: bool
    computed: float | int | list | dict
    target: float | int | list | str
    tolerance: float | str
    provenance: str
    gated: bool = True
    #: r_lil's (grid, stats), which ``verify --plot`` draws; no report reads it
    series: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.passed = bool(self.passed)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "series"}


@dataclass
class VerificationReport:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.gated)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            if not c.gated:
                status = "INFO"
            lines.append(
                f"{status} {c.name}: computed={_fmt(c.computed)} "
                f"target={_fmt(c.target)} tol={_fmt(c.tolerance)} [{c.provenance}]"
            )
        lines.append(f"{'PASS' if self.passed else 'FAIL'} suite={self.suite} seed={self.seed}")
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_fmt(v)}" for k, v in x.items()) + "}"
    return str(x)


def _near(name: str, computed, target, tol: float, provenance: str) -> CheckResult:
    """Passes when every |computed - target| <= tol; a NaN fails."""
    worst = np.max(np.abs(np.subtract(computed, target)))
    return CheckResult(name, worst <= tol, computed, target, tol, provenance)


def _relative(name: str, computed, target, tol: float, provenance: str, gated: bool = True) -> CheckResult:
    """Passes when |computed / target - 1| <= tol; a NaN fails."""
    return CheckResult(
        name, abs(computed / target - 1.0) <= tol, computed, target, f"{tol:.0%} relative", provenance, gated
    )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_exact_convolution(seed: int) -> list[CheckResult]:
    """Deterministic unit-step law: V_k(n) must equal C(n, k) exactly."""
    table = renewal.renewal_table(LatticeLaw(1.0, np.array([1.0])), 4, 60)
    oracle = np.array([[math.comb(n, k) for n in range(61)] for k in range(1, 5)], dtype=np.float64)
    worst = float(np.max(np.abs(table.values - oracle)))
    return [_near("c1_exact_convolution", worst, 0.0, 1e-9, "table vs binomial oracle")]


def check_elementary_ratio(seed: int) -> list[CheckResult]:
    """V_k(N) k! mu^k / N^k -> 1 at N = 4000 for the geometric law."""
    law = geometric_lattice(0.5)
    mu = law.moments().mean
    n = 4000
    table = renewal.renewal_table(law, 3, n)
    ratios = [float(table.level(k)[n]) * math.factorial(k) * mu**k / float(n) ** k for k in range(1, 4)]
    devs = [abs(r - 1.0) for r in ratios]
    return [_near("c2_elementary_ratio", devs, [0.0, 0.0, 0.0], 0.02, "exact table")]


def check_lattice_second_order(seed: int) -> list[CheckResult]:
    """Perturbed-chain expansion constants for geometric steps with eta = xi."""
    law = geometric_lattice(0.5)
    m = law.moments()
    mu = m.mean
    n = 4000
    table = renewal.renewal_table(law, 2, n, law)
    grid = np.arange(n + 1, dtype=np.float64)
    resid1 = float(np.max(np.abs(table.level(1) - grid / mu)))
    c2 = renewal.expansion_constants(2, m, law.span, mu)["c_k"]
    normalized = (table.level(2)[n] - renewal.leading_term(2, mu, n)) * mu / n
    return [
        _near("c3_constant_k1", resid1, 0.0, 1e-9, "exact perturbed table"),
        _relative("c3_constant_k2", normalized, c2, 0.02, "exact perturbed table"),
        # the originally stated target +1/4 carries a sign slip (the exact
        # tables force -1/4); kept here for the record, ungated
        _relative("c3_constant_k2_as_stated", normalized, 0.25, 0.02, "exact perturbed table", gated=False),
    ]


def check_subadditivity_sweep(seed: int) -> list[CheckResult]:
    """Zero violations of the increment bound over the full (x, h) grid."""
    out = []
    for tag, law in (
        ("geometric", geometric_lattice(0.5)),
        ("two_point", LatticeLaw(1.0, np.array([0.5, 0.5]))),
    ):
        table = renewal.renewal_table(law, 3, 2000)
        violations, min_slack = renewal.subadditivity_sweep(table, 3)
        out.append(
            CheckResult(
                f"c4_subadditivity_{tag}",
                violations == 0,
                {"violations": violations, "min_slack": min_slack},
                0,
                "zero violations",
                "exact table sweep",
            )
        )
    return out


def check_renewal_clt(seed: int) -> list[CheckResult]:
    """Sample law of a_k (Y_k - t^k/k!)/t^{k-1/2} for the unit exponential."""
    summary = cmj.monte_carlo(_unit_exp(seed, "c5", levels=3, horizon=100.0, replicas=20_000)).to_dict()
    out = []
    for k, (mean, var) in enumerate(zip(summary["clt_mean"], summary["clt_variance"]), 1):
        out += [CheckResult(f"c5_clt_variance_k{k}", 0.9 <= var <= 1.1, var, 1.0, "[0.9, 1.1]", "mc"),
                _near(f"c5_clt_mean_k{k}", mean, 0.0, 0.05, "mc")]
    return out


def check_decomposition(seed: int) -> list[CheckResult]:
    """I + J = Y - V per replica; median |I|/t^{3/2} decreasing in t."""
    v_eval = renewal.ExponentialRenewal(1.0)
    medians, identity = [], []
    for i, t in enumerate((50.0, 200.0, 400.0)):
        config = _unit_exp(seed, "c6", i, levels=2, horizon=t, replicas=200)
        parts = cmj.decomposition_ensemble(config, 2, v_eval)
        identity.append(np.max(np.abs(parts[:, 0] + parts[:, 1] - parts[:, 2])))
        medians.append(float(np.median(np.abs(parts[:, 0])) / t**1.5))
    return [
        _near("c6_identity", float(np.max(identity)), 0.0, 1e-9, "mc + closed form"),
        CheckResult("c6_subtree_trend", medians[0] > medians[1] > medians[2], medians, "strictly decreasing",
                    "order", "mc"),
    ]


def check_rrt(seed: int) -> list[CheckResult]:
    """Profile law vs enumeration, level-1 law vs the exact chain, mean vs H_n."""
    out = []
    # (a) total variation of the profile law at n = 6, trees drawn by uniform attachment
    exact = rrt.enumerate_profiles(6)
    samples = rrt.sample_profiles(6, 6, RngStream(seed, _offset("c7a")), 100_000)
    tv = rrt.total_variation(rrt.profile_pmf_from_samples(samples), exact)
    out.append(CheckResult("c7_profile_tv", tv < 0.02, tv, 0.0, 0.02, "mc vs enumeration"))

    # (b) chi-square of the level-1 count at n = 50 against its exact law
    law = rrt.enumerate_profiles(50, 1)
    grown = rrt.sample_profiles(50, 1, RngStream(seed, _offset("c7b")), 100_000)[:, 0]
    p_value = _chi2_one_sample(grown, np.array([law.get((x,), 0.0) for x in range(51)]))
    out.append(CheckResult("c7_level1_chi2", p_value > 0.01, p_value, "p > 0.01", 0.01, "mc vs exact law"))

    # (c) mean of the level-1 count at n = 100
    n, reps = 100, 10_000
    xs = rrt.sample_profiles(n, 1, RngStream(seed, _offset("c7c")), reps)[:, 0]
    harmonic = math.fsum(1.0 / j for j in range(1, n + 1))
    sd = math.sqrt(math.fsum((1.0 / j) * (1.0 - 1.0 / j) for j in range(1, n + 1)))
    dev = abs(float(xs.mean()) - harmonic) / (sd / math.sqrt(reps))
    out.append(
        CheckResult("c7_level1_mean", dev <= 4.0, dev, 0.0, "4 standard errors", "mc")
    )
    return out


def _chi2_one_sample(sample: np.ndarray, pmf: np.ndarray) -> float:
    """P-value of Pearson's test of an integer sample against the law ``pmf`` on
    0..n.  Sites pool in ascending order, a cell closing once its expected count
    reaches ``MIN_POOLED``; a tail short of that, and any value past site n, join
    the last cell.  The statistic sum (O - E)^2 / E is summed as
    ``scipy.stats.chisquare`` sums it and read against the chi-square law with
    cells - 1 degrees of freedom."""
    counts = np.bincount(sample, minlength=pmf.size)
    counts[pmf.size - 1] += counts[pmf.size :].sum()
    cells, o, e = [], 0, 0.0
    for count, mass in zip(counts[: pmf.size].tolist(), (sample.size * pmf).tolist()):
        o, e = o + count, e + mass
        if e >= MIN_POOLED:
            cells.append((o, e))
            o, e = 0, 0.0
    if len(cells) < 2:
        raise ValueError(f"the one-sample test needs 2 or more pooled cells, got {len(cells)}")
    cells[-1] = (cells[-1][0] + o, cells[-1][1] + e)
    observed, expected = np.array(cells, dtype=np.float64).T
    return _chi2_sf(len(cells) - 1, float(((observed - expected) ** 2 / expected).sum()))


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi^2 > x) with an integer ``dof`` >= 1, in closed form (Abramowitz & Stegun
    26.4.4-5): e^{-x/2} sum_{j < dof/2} (x/2)^j / j! for even dof, and for odd dof
    erfc(sqrt(x/2)) + sqrt(2x/pi) e^{-x/2} sum_{j < (dof-1)/2} x^j / (1 * 3 * ... * (2j+1)).
    The sum of positive terms is taken exactly in integers and rounded once, so the
    result is within a few ulps; a huge x gives 0.0 and a NaN gives NaN.  Past x = 1400
    a dof above about 700 overflows the sum (OverflowError); c7b pools about a dozen cells."""
    if dof < 1:
        raise ValueError(f"the chi-square law needs dof >= 1, got {dof}")
    # e^{-x/2} goes subnormal past x = 1416, so there it is applied in two normal halves
    scale, rest = (math.exp(-x / 2), 1.0) if x < 1400 else (math.exp(-x / 4),) * 2
    if not scale > 0:
        return scale
    num, den = x.as_integer_ratio()
    top, bottom = int(dof > 1), 1  # the sum as top / bottom, by Horner's rule
    for i in range(dof // 2 - 1, 0, -1):
        step = bottom * den * (2 * i + dof % 2)
        top, bottom = step + num * top, step
    if dof % 2 == 0:
        return scale * (top / bottom) * rest
    if not (z := math.sqrt(x / 2)):
        return 1.0
    # sqrt(x/2) rounds to z = zn / zd, which moves erfc by about (z^2 - x/2) e^{-x/2} / (z sqrt(pi));
    # w is sqrt(x/2) * sum plus that correction, over (2/sqrt(pi)) e^{-x/2}, to first order, rounded once
    zn, zd = z.as_integer_ratio()
    w = (2 * den * zn * zn * (bottom + top) - num * zd * zd * (bottom - top)) / (4 * den * zd * zn * bottom)
    return math.erfc(z) + 2 / math.sqrt(math.pi) * scale * w * rest


def check_gauss(seed: int) -> list[CheckResult]:
    """Variance identities for the weighted Brownian sums."""
    out = []
    # (a) Var B1 at k=2, t=10 is t^3/3
    stream = RngStream(seed, _offset("c8a"))
    values = gauss.b1k_ensemble(2, 10.0, 0.01, 10_000, stream)
    var = float(values.var(ddof=1))
    target = 1000.0 / 3.0
    out.append(_relative("c8_b1_variance", var, target, 0.03, "mc vs isometry"))

    # (b) exponential steps have zero remainder weight, so B2 vanishes
    fk = gauss.FkTable(2, renewal.ExponentialRenewal())
    b2 = float(gauss.b2k_ensemble(fk, 10.0, 0.01, 1, RngStream(seed, _offset("c8a", 1)))[0])
    out.append(
        CheckResult("c8_b2_exponential_zero", b2 == 0.0, b2, 0.0, "exact", "closed form")
    )

    # (c) geometric steps: ensemble variance vs the exact quadrature of f_2^2
    law = geometric_lattice(0.5)
    table = renewal.renewal_table(law, 1, 100)
    fk2 = gauss.FkTable(2, table)
    target_var = gauss.variance_b2k(fk2, 100.0)
    stream = RngStream(seed, _offset("c8c"))
    values = gauss.b2k_ensemble(fk2, 100.0, 0.005, 10_000, stream)
    var2 = float(values.var(ddof=1))
    out.append(_relative("c8_b2_lattice_variance", var2, target_var, 0.05, "mc vs quadrature"))
    return out


def lil_extrema_series(seed: int, replicas: int = 100):
    """Report-only: the normalized level-1 fluctuation along a geometric grid.

    The almost-sure limit band [-1, 1] is far beyond desk horizons (the
    iterated logarithm is ~2.2 even at t = 1e4), so this is descriptive.
    The replicas' grid paths run as one ``cmj.path_ensemble``, so the series
    is the same under any worker count.
    """
    grid = math.e**2 * 1.5 ** np.arange(26)
    config = _unit_exp(seed, "r_lil", levels=1, horizon=float(grid[-1]), grid=grid, replicas=replicas)
    m = config.law.moments()
    paths = cmj.path_ensemble(config)[:, 0]
    stats = np.column_stack(
        [
            cmj.lil_statistic(paths[:, j], 1, t, m, renewal.leading_term(1, m.mean, t))
            for j, t in enumerate(grid.tolist())
        ]
    )
    return grid, stats


def _extrema(name: str, values: np.ndarray, limit: str, series: tuple | None = None) -> CheckResult:
    """Report-only {min, max} of a statistic whose limit set is [-1, 1] as ``limit``
    grows; it passes when every value is finite."""
    return CheckResult(
        name,
        np.all(np.isfinite(values)),
        {"min": float(np.min(values)), "max": float(np.max(values))},
        f"[-1, 1] only as {limit} -> infinity",
        "report-only",
        "mc",
        gated=False,
        series=series,
    )


def check_lil_extrema(seed: int) -> list[CheckResult]:
    grid, stats = lil_extrema_series(seed)
    return [_extrema("r_lil_extrema", stats, "t", series=(grid, stats))]


def check_rrt_lil(seed: int) -> list[CheckResult]:
    n, reps, k = 10_000, 100, 2
    xs = rrt.sample_profiles(n, k, RngStream(seed, _offset("r_rrt")), reps)[:, k - 1]
    return [_extrema("r_rrt_lil", rrt.rrt_lil_statistic(xs, n, k), "n")]


#: name -> (builder, budget in seconds, in fast suite)
CHECKS = {
    "c1": (check_exact_convolution, 1.0, True),
    "c2": (check_elementary_ratio, 5.0, True),
    "c3": (check_lattice_second_order, 10.0, True),
    "c4": (check_subadditivity_sweep, 30.0, True),
    "c5": (check_renewal_clt, 300.0, False),
    "c6": (check_decomposition, 60.0, True),
    "c7": (check_rrt, 120.0, True),
    "c8": (check_gauss, 120.0, True),
    "r_lil": (check_lil_extrema, 600.0, False),
    "r_rrt": (check_rrt_lil, 600.0, False),
}


def run_check(name: str, seed: int) -> list[CheckResult]:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; available: {sorted(CHECKS)}")
    builder, _, _ = CHECKS[name]
    return builder(seed)


def run_suite(suite: str, seed: int) -> VerificationReport:
    """Run the fast (exact + light MC) or full (everything) suite."""
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    report = VerificationReport(suite, seed)
    for name, (builder, _, in_fast) in CHECKS.items():
        if suite == "fast" and not in_fast:
            continue
        report.checks.extend(builder(seed))
    return report
