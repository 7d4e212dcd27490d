"""The benchmark workloads: set-up from the seed, timed jobs, oracles.

A workload is a list of jobs run in order as one *pass*; a job may use the
results of earlier jobs of the same pass.  ``snapshot`` turns a result into
something comparable (untimed), and ``check`` runs the oracles on the
snapshots of one pass, keyed by job name.

Why these three (see README.md for the full map):

* ``tables`` -- exact tables only, no RNG and no pool; nearly all time is in
  ``renewal``, at sizes that span the horizon N and the support size M.
* ``branching`` -- a few long-horizon ensembles through ``monte_carlo``,
  where ``cmj``'s offspring kernel and ``dist`` sampling carry the run.
* ``verify_fast`` -- ``iterlog verify --suite fast`` through ``cli.main``,
  the command users run most; many short streams and pools.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from iterlog import cli, cmj, dist, renewal

TABLE_LEVELS = 3
TABLE_SIZES = (1000, 4000, 16000)
#: Prefix checked against exact rationals; the oracle's cost grows fast with N.
FRACTION_N = 600
#: Denominator of the seeded dyadic pmfs, so every pmf entry is exact in binary.
PMF_DENOMINATOR = 16

#: Replicas per ensemble: the exponential ensemble is sized so the c5 gates
#: sit at least 4 standard errors from their bounds.
REPLICAS = {"exp": 8000, "geom": 2000, "geom_eta": 1000}
#: The ensemble rerun at one worker for the bitwise determinism oracle.
DETERMINISM_JOB = "geom_eta"

#: Lattice-span probe: deterministic steps of a non-dyadic span.
SPAN_PROBE_LAW = "lattice:d=0.3;p=1"
SPAN_PROBE_HORIZONS = 199


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    snapshot: Callable[[object], object] = lambda result: result


@dataclass
class Workload:
    jobs: list[Job]
    check: Callable[[dict], dict[str, list[oracles.Outcome]]]
    #: counts from a probe of a known defect, reported apart from the operations
    defect_probe: Callable[[], dict] = field(default=lambda: {})


def same(a, b) -> bool:
    """Bitwise equality of two snapshots of the same job."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, cmj.MonteCarloSummary):
        return isinstance(b, cmj.MonteCarloSummary) and np.array_equal(a.counts, b.counts)
    return a == b


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _read_and_remove(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def _dyadic_pmf(rng: np.random.Generator, size: int) -> list[int]:
    """Positive numerators summing to PMF_DENOMINATOR."""
    cuts = np.sort(rng.choice(np.arange(1, PMF_DENOMINATOR), size - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [PMF_DENOMINATOR]))).tolist()


def _lattice_spec(numerators: list[int]) -> str:
    return "lattice:d=1;p=" + ",".join(repr(a / PMF_DENOMINATOR) for a in numerators)


def tables(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pmf3_num = _dyadic_pmf(rng, 3)
    pmf3 = dist.parse_law(_lattice_spec(pmf3_num))
    two_point = dist.parse_law(_lattice_spec(_dyadic_pmf(rng, 2)))
    unit = dist.parse_law("lattice:d=1;p=1")
    geom = dist.parse_law("geom:p=0.5")
    geom_mu = geom.moments().mean
    csv_path = out_dir / f"tables-seed{seed}.csv"
    largest = f"pmf3_n{TABLE_SIZES[-1]}"
    k = TABLE_LEVELS

    def table(law, n):
        return lambda prev: renewal.renewal_table(law, k, n)

    def perturbed(prev):
        n = 8000
        u = renewal.renewal_sequence(geom, n)
        chain = renewal.perturbed_table(u, geom.span, geom, n, geom_mu)
        return renewal.convolve_levels(chain, k)

    def write_csv(prev):
        renewal.write_table_csv(prev[largest], str(csv_path))
        return csv_path

    values = lambda result: result.values  # noqa: E731
    jobs = [Job(f"pmf3_n{n}", table(pmf3, n), values) for n in TABLE_SIZES]
    jobs += [
        Job("unit_n1000", table(unit, 1000), values),
        Job("geom_n4000", table(geom, 4000), values),
        Job("perturbed_n8000", perturbed, values),
        Job("two_point_n4000", table(two_point, 4000), values),
        Job("sweep_n4000", lambda prev: renewal.subadditivity_sweep(prev["two_point_n4000"], k)),
        Job("csv_n16000", write_csv, _read_and_remove),
    ]

    def check(snap: dict) -> dict:
        exact = oracles.fraction_table(
            [Fraction(a, PMF_DENOMINATOR) for a in pmf3_num], k, FRACTION_N
        )
        out = {}
        for n in TABLE_SIZES:
            name = f"pmf3_n{n}"
            out[name] = [
                oracles.check_recurrence(name, snap[name], pmf3.pmf),
                oracles.check_fraction(name, snap[name], exact),
            ]
        out[largest].append(oracles.check_ratio(largest, snap[largest], pmf3.moments().mean))
        out["unit_n1000"] = [
            oracles.check_recurrence("unit_n1000", snap["unit_n1000"], unit.pmf),
            oracles.check_binomial("unit_n1000", snap["unit_n1000"]),
        ]
        out["geom_n4000"] = [
            oracles.check_recurrence("geom_n4000", snap["geom_n4000"], geom.pmf),
            oracles.check_ratio("geom_n4000", snap["geom_n4000"], geom_mu),
        ]
        out["perturbed_n8000"] = [
            oracles.check_recurrence("perturbed_n8000", snap["perturbed_n8000"], geom.pmf, geom.pmf),
            oracles.check_residual("perturbed_n8000", snap["perturbed_n8000"], geom_mu),
        ]
        out["two_point_n4000"] = [
            oracles.check_recurrence("two_point_n4000", snap["two_point_n4000"], two_point.pmf)
        ]
        out["sweep_n4000"] = [oracles.check_sweep("sweep_n4000", snap["sweep_n4000"])]
        out["csv_n16000"] = [
            oracles.check_csv("csv_n16000", snap["csv_n16000"], snap[largest], pmf3.span)
        ]
        return out

    return Workload(jobs, check)


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------


def branching_configs(seed: int) -> dict[str, cmj.SimConfig]:
    exp = dist.parse_law("exp:rate=1")
    geom = dist.parse_law("geom:p=0.5")
    block = dist.STREAM_BLOCK
    return {
        "exp": cmj.SimConfig(exp, 3, 100.0, seed=seed, replicas=REPLICAS["exp"]),
        "geom": cmj.SimConfig(
            geom, 3, 60.0, seed=seed, replicas=REPLICAS["geom"], stream_offset=block
        ),
        "geom_eta": cmj.SimConfig(
            geom, 3, 60.0, eta=geom, seed=seed, replicas=REPLICAS["geom_eta"], stream_offset=2 * block
        ),
    }


def span_probe(seed: int) -> int:
    """Deterministic steps of span 0.3 simulated at t = n * 0.3 against the exact table.

    Exposes the float lattice arithmetic of the walk (a birth on a lattice
    site rounds past the horizon).  Returns the number of mismatching
    horizons among n = 1..SPAN_PROBE_HORIZONS.
    """
    law = dist.parse_law(SPAN_PROBE_LAW)
    exact = renewal.renewal_table(law, 1, SPAN_PROBE_HORIZONS).values[0]
    simulated = [
        int(cmj.simulate_generations(cmj.SimConfig(law, 1, n * law.span, seed=seed), 0).counts[0])
        for n in range(1, SPAN_PROBE_HORIZONS + 1)
    ]
    return oracles.span_mismatches(simulated, exact)


def branching(seed: int, out_dir: Path) -> Workload:
    configs = branching_configs(seed)
    geom = configs["geom"].law
    mu = geom.moments().mean

    def ensemble(config):
        return lambda prev: cmj.monte_carlo(config)

    jobs = [Job(name, ensemble(config)) for name, config in configs.items()]

    def check(snap: dict) -> dict:
        n = int(round(configs["geom"].horizon / geom.span))
        v = renewal.renewal_table(geom, 3, n).values[:, n]
        u = renewal.renewal_sequence(geom, n)
        chain = renewal.convolve_levels(renewal.perturbed_table(u, geom.span, geom, n, mu), 3)
        out = {
            "exp": oracles.check_clt("exp", snap["exp"].clt),
            "geom": oracles.check_mean("geom", snap["geom"].counts, v),
            "geom_eta": oracles.check_mean("geom_eta", snap["geom_eta"].counts, chain.values[:, n]),
        }
        serial = cmj.monte_carlo(configs[DETERMINISM_JOB], workers=1).counts
        out[DETERMINISM_JOB].append(
            oracles.check_same_counts(DETERMINISM_JOB, snap[DETERMINISM_JOB].counts, serial)
        )
        return out

    return Workload(
        jobs,
        check,
        defect_probe=lambda: {
            "span_probe_mismatches": span_probe(seed),
            "span_probe_horizons": SPAN_PROBE_HORIZONS,
        },
    )


# ---------------------------------------------------------------------------
# verify_fast
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``iterlog <argv>`` in this process: (exit code, captured stdout)."""
    saved = sys.argv
    sys.argv = ["iterlog", *argv]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return code, buf.getvalue()


def verify_fast(seed: int, out_dir: Path) -> Workload:
    argv = ["verify", "--suite", "fast", "--seed", str(seed)]
    jobs = [Job("verify_fast", lambda prev: run_cli(argv))]

    def check(snap: dict) -> dict:
        code, text = snap["verify_fast"]
        return {"verify_fast": oracles.check_report("verify_fast", code, text)}

    return Workload(jobs, check)


WORKLOADS = {"tables": tables, "branching": branching, "verify_fast": verify_fast}
