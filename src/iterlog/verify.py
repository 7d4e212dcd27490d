"""Named verification checks binding the whole package together.

Each check compares a computed quantity against an exact table, a closed
form, or a pinned statistical tolerance, and reports target / computed /
tolerance / pass.  Reports contain no timestamps or durations, so two runs
with the same seed are byte identical regardless of worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sp_stats

from . import cmj, gauss, renewal, rrt
from .dist import STREAM_BLOCK, LatticeLaw, RngStream, SmoothLaw, geometric_lattice, map_blocks

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

#: Fewest pooled counts in a cell of the two-sample chi-square table.
MIN_POOLED = 25


def _offset(check: str, sub: int = 0) -> int:
    return _BLOCKS[check] * STREAM_BLOCK + sub * _SUB


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "computed": self.computed,
            "target": self.target,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
            "gated": self.gated,
        }


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


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_exact_convolution(seed: int) -> list[CheckResult]:
    """Deterministic unit-step law: V_k(n) must equal C(n, k) exactly."""
    law = LatticeLaw(1.0, np.array([1.0]))
    table = renewal.renewal_table(law, 4, 60)
    worst = 0.0
    for k in range(1, 5):
        vk = table.level(k)
        oracle = np.array([math.comb(n, k) for n in range(61)], dtype=np.float64)
        worst = max(worst, float(np.max(np.abs(vk - oracle))))
    return [
        CheckResult(
            "c1_exact_convolution", worst <= 1e-9, worst, 0.0, 1e-9, "table vs binomial oracle"
        )
    ]


def check_elementary_ratio(seed: int) -> list[CheckResult]:
    """V_k(N) k! mu^k / N^k -> 1 at N = 4000 for the geometric law."""
    law = geometric_lattice(0.5)
    mu = law.moments().mean
    n = 4000
    table = renewal.renewal_table(law, 3, n)
    devs = []
    for k in range(1, 4):
        ratio = float(table.level(k)[n]) * math.factorial(k) * mu**k / float(n) ** k
        devs.append(abs(ratio - 1.0))
    worst = max(devs)
    return [
        CheckResult(
            "c2_elementary_ratio", worst <= 0.02, devs, [0.0, 0.0, 0.0], 0.02, "exact table"
        )
    ]


def check_lattice_second_order(seed: int) -> list[CheckResult]:
    """Perturbed-chain expansion constants for geometric steps with eta = xi."""
    law = geometric_lattice(0.5)
    m = law.moments()
    mu = m.mean
    n = 4000
    table = renewal.renewal_table(law, 2, n, law)

    grid = np.arange(n + 1, dtype=np.float64)
    resid1 = float(np.max(np.abs(table.level(1) - grid / mu)))
    ok1 = resid1 <= 1e-9

    c2 = renewal.expansion_constants(2, m, law.span, mu)["c_k"]
    normalized = (table.level(2)[n] - renewal.leading_term(2, mu, n)) * mu / n
    dev2 = abs(normalized / c2 - 1.0)
    ok2 = dev2 <= 0.02
    return [
        CheckResult("c3_constant_k1", ok1, resid1, 0.0, 1e-9, "exact perturbed table"),
        CheckResult(
            "c3_constant_k2", ok2, normalized, c2, "2% relative", "exact perturbed table"
        ),
        # the originally stated target +1/4 carries a sign slip (the exact
        # tables force -1/4); kept here for the record, ungated
        CheckResult(
            "c3_constant_k2_as_stated",
            abs(normalized / 0.25 - 1.0) <= 0.02,
            normalized,
            0.25,
            "2% relative",
            "exact perturbed table",
            gated=False,
        ),
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
    config = cmj.SimConfig(
        SmoothLaw("exp", {"rate": 1.0}),
        levels=3,
        horizon=100.0,
        seed=seed,
        replicas=20_000,
        stream_offset=_offset("c5"),
    )
    summary = cmj.monte_carlo(config)
    out = []
    for k in range(1, 4):
        var = float(summary.clt[:, k - 1].var(ddof=1))
        mean = float(summary.clt[:, k - 1].mean())
        out.append(
            CheckResult(
                f"c5_clt_variance_k{k}", 0.9 <= var <= 1.1, var, 1.0, "[0.9, 1.1]", "mc"
            )
        )
        out.append(
            CheckResult(f"c5_clt_mean_k{k}", abs(mean) <= 0.05, mean, 0.0, 0.05, "mc")
        )
    return out


def check_decomposition(seed: int) -> list[CheckResult]:
    """I + J = Y - V per replica; median |I|/t^{3/2} decreasing in t."""
    v_eval = renewal.ExponentialRenewal(1.0)
    medians = []
    worst_identity = 0.0
    for i, t in enumerate((50.0, 200.0, 400.0)):
        config = cmj.SimConfig(
            SmoothLaw("exp", {"rate": 1.0}),
            levels=2,
            horizon=t,
            seed=seed,
            replicas=200,
            stream_offset=_offset("c6", i),
        )
        parts = cmj.decomposition_ensemble(config, 2, v_eval)
        identity = np.abs(parts[:, 0] + parts[:, 1] - parts[:, 2])
        worst_identity = max(worst_identity, float(identity.max()))
        medians.append(float(np.median(np.abs(parts[:, 0])) / t**1.5))
    decreasing = medians[0] > medians[1] > medians[2]
    return [
        CheckResult(
            "c6_identity", worst_identity <= 1e-9, worst_identity, 0.0, 1e-9, "mc + closed form"
        ),
        CheckResult(
            "c6_subtree_trend",
            decreasing,
            medians,
            "strictly decreasing",
            "order",
            "mc",
        ),
    ]


def check_rrt(seed: int) -> list[CheckResult]:
    """Profile law vs enumeration, level-1 law vs Bernoulli sums, mean vs H_n."""
    out = []
    # (a) total variation of the profile law at n = 6, trees drawn by uniform attachment
    exact = rrt.enumerate_profiles(6)
    samples = map_blocks(rrt.profile_rows, RngStream(seed, _offset("c7a")), 100_000, 1000, 6, 6)
    tv = rrt.total_variation(rrt.profile_pmf_from_samples(samples), exact)
    out.append(CheckResult("c7_profile_tv", tv < 0.02, tv, 0.0, 0.02, "mc vs enumeration"))

    # (b) two-sample chi-square for the level-1 count at n = 50
    grown = rrt.sample_profiles(50, 1, RngStream(seed, _offset("c7b")), 100_000)[:, 0]
    bern = rrt.bernoulli_level1_sample(50, RngStream(seed, _offset("c7b", 1)), 100_000)
    p_value = _chi2_two_sample(grown, bern)
    out.append(
        CheckResult("c7_level1_chi2", p_value > 0.01, p_value, "p > 0.01", 0.01, "mc vs mc")
    )

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


def _chi2_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    lo = int(min(x.min(), y.min()))
    hi = int(max(x.max(), y.max()))
    edges = np.arange(lo, hi + 2)
    cx, _ = np.histogram(x, edges)
    cy, _ = np.histogram(y, edges)
    mx, my = [], []
    ax = ay = 0
    for i in range(cx.size):
        ax += int(cx[i])
        ay += int(cy[i])
        if ax + ay >= MIN_POOLED:
            mx.append(ax)
            my.append(ay)
            ax = ay = 0
    if not mx:
        raise ValueError(f"pooled count {ax + ay} never reaches min_pooled={MIN_POOLED}")
    if ax + ay:
        mx[-1] += ax
        my[-1] += ay
    _, p, _, _ = sp_stats.chi2_contingency(np.array([mx, my]))
    return float(p)


def check_gauss(seed: int) -> list[CheckResult]:
    """Variance identities for the weighted Brownian sums."""
    out = []
    # (a) Var B1 at k=2, t=10 is t^3/3
    stream = RngStream(seed, _offset("c8a"))
    values = gauss.b1k_ensemble(2, 10.0, 0.01, 10_000, stream)
    var = float(values.var(ddof=1))
    target = 1000.0 / 3.0
    dev = abs(var / target - 1.0)
    out.append(
        CheckResult("c8_b1_variance", dev <= 0.03, var, target, "3% relative", "mc vs isometry")
    )

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
    dev2 = abs(var2 / target_var - 1.0)
    out.append(
        CheckResult(
            "c8_b2_lattice_variance", dev2 <= 0.05, var2, target_var, "5% relative", "mc vs quadrature"
        )
    )
    return out


def lil_extrema_series(seed: int, replicas: int = 100):
    """Report-only: the normalized level-1 fluctuation along a geometric grid.

    The almost-sure limit band [-1, 1] is far beyond desk horizons (the
    iterated logarithm is ~2.2 even at t = 1e4), so this is descriptive.
    The replicas' grid paths run as one ``cmj.path_ensemble``, so the series
    is the same under any worker count.
    """
    grid = math.e**2 * 1.5 ** np.arange(26)
    t_max = float(grid[-1])
    config = cmj.SimConfig(
        SmoothLaw("exp", {"rate": 1.0}),
        levels=1,
        horizon=t_max,
        grid=grid,
        seed=seed,
        replicas=replicas,
        population_cap=2e7,
        stream_offset=_offset("r_lil"),
    )
    m = config.law.moments()
    paths = cmj.path_ensemble(config)[:, 0]
    stats = np.column_stack(
        [
            cmj.lil_statistic(paths[:, j], 1, t, m, renewal.leading_term(1, m.mean, t))
            for j, t in enumerate(grid.tolist())
        ]
    )
    return grid, stats


def check_lil_extrema(seed: int) -> list[CheckResult]:
    grid, stats = lil_extrema_series(seed)
    running_max = float(np.max(stats))
    running_min = float(np.min(stats))
    finite = bool(np.all(np.isfinite(stats)))
    return [
        CheckResult(
            "r_lil_extrema",
            finite,
            {"min": running_min, "max": running_max},
            "[-1, 1] only as t -> infinity",
            "report-only",
            "mc",
            gated=False,
            series=(grid, stats),
        )
    ]


def check_rrt_lil(seed: int) -> list[CheckResult]:
    n, reps, k = 10_000, 100, 2
    xs = rrt.sample_profiles(n, k, RngStream(seed, _offset("r_rrt")), reps)[:, k - 1]
    values = rrt.rrt_lil_statistic(xs, n, k)
    finite = bool(np.all(np.isfinite(values)))
    return [
        CheckResult(
            "r_rrt_lil",
            finite,
            {"min": float(values.min()), "max": float(values.max())},
            "[-1, 1] only as n -> infinity",
            "report-only",
            "mc",
            gated=False,
        )
    ]


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
