"""Command-line front end: reproducible experiments, CSV/JSON/SVG reports.

Subcommands: moments, renewal, simulate, mc, rrt, gauss, verify.  A JSON
config file can mirror any flag; explicit flags win, and a file is checked as
the flags are.  Each subcommand writes only its own formats.  Exit codes: 0 ok,
1 a gated verification check failed, 2 usage error.

All numeric CSV output uses 17 significant digits so files round-trip and
identical (config, seed) pairs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import cmj, gauss, renewal, rrt
from .dist import LatticeLaw, RngStream, parse_kv, parse_law
from .plot import Series, emit_plot

_G17 = "{:.17g}".format

#: Values of the fields whose flags take one of a fixed set.
_CHOICES = {"fmt": ("csv", "json", "text", "svg"), "suite": ("fast", "full")}

#: Options a subcommand's option makes it ignore: given together (by flag or
#: config file) they are refused; given alone, the ignored ones resolve to None.
_OVERRIDES = {("verify", "checks"): ("suite",), ("rrt", "enumerate_n"): ("n", "replicas", "seed")}

#: Formats a subcommand writes, its default first (simulate and rrt: see ``_formats``).
_FORMATS = {"moments": ("json",), "renewal": ("csv", "json"), "mc": ("csv", "json"),
            "gauss": ("csv", "json"), "verify": ("text", "json")}


@dataclass
class ExperimentConfig:
    """Resolved invocation: everything needed to reproduce an experiment."""

    subcommand: str
    law: str | None = None
    eta: str | None = None
    k: int = 1
    levels: int = 3
    t: float = 100.0
    n: int = 100
    h: float = 0.01
    replicas: int = 100
    seed: int = 0
    grid: str | None = None
    out: str | None = None
    fmt: str | None = None  # None until resolved: the subcommand's default
    suite: str = "fast"
    checks: str | None = None
    plot: str | None = None
    enumerate_n: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _formats(cfg: ExperimentConfig) -> tuple[str, ...]:
    """Formats the resolved subcommand writes, its default first."""
    if cfg.subcommand == "simulate":
        return ("csv", "svg") if cfg.grid else ("json",)
    if cfg.subcommand == "rrt":
        return ("csv",) if cfg.enumerate_n is None else ("json",)
    return _FORMATS[cfg.subcommand]


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    """Merge CLI flags over config-file values over built-in defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    cfg = ExperimentConfig(args.subcommand)
    if not isinstance(file_cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for name, value in file_cfg.items():
        if name not in vars(cfg):
            raise ValueError(f"unknown config key {name!r}")
        if name in _CHOICES and value is not None and value not in _CHOICES[name]:
            raise ValueError(f"config {name} must be one of {', '.join(_CHOICES[name])}, got {value!r}")
    given = set()  # set by a flag or by a non-null config value
    for name in vars(cfg):
        if name == "subcommand":
            continue
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name)
        if value is not None:
            setattr(cfg, name, value)
            given.add(name)
    for (command, name), ignored in _OVERRIDES.items():
        if command != cfg.subcommand or name not in given:
            continue
        clash = [f"--{o}" for o in ignored if o in given]
        if clash:
            flag = "--enumerate" if name == "enumerate_n" else f"--{name}"
            raise ValueError(f"{flag} ignores {', '.join(clash)}; give one or the other")
        for o in ignored:  # so a dumped config reloads without the clash
            setattr(cfg, o, None)
    formats = _formats(cfg)
    if cfg.fmt is None:
        cfg.fmt = formats[0]
    elif cfg.fmt not in formats:
        raise ValueError(f"{cfg.subcommand} writes {' or '.join(formats)}, not {cfg.fmt}")
    return cfg


#: Keys of each grid kind with their defaults; a linear grid needs its start and stop.
_GRID_KEYS = {"geometric": {"start": math.e**2, "base": 1.5, "count": 10.0},
              "linear": {"start": None, "stop": None, "count": 10.0}}


def _parse_grid(spec: str) -> np.ndarray:
    kind, _, body = spec.partition(":")
    if kind not in _GRID_KEYS:
        raise ValueError(f"unknown grid kind {kind!r}")
    given = parse_kv(body)
    unknown = given.keys() - _GRID_KEYS[kind].keys()
    if unknown:
        raise ValueError(f"{kind} grid takes {', '.join(_GRID_KEYS[kind])}, not {', '.join(sorted(unknown))}")
    kv = _GRID_KEYS[kind] | {key: float(val) for key, val in given.items()}
    for key, val in kv.items():
        if val is None:
            raise ValueError(f"{kind} grid needs {key}=")
    count = kv["count"]
    if count < 1 or not count.is_integer():
        raise ValueError(f"grid count must be a whole number >= 1, got {count:g}")
    if kind == "geometric":
        return kv["start"] * kv["base"] ** np.arange(int(count))
    return np.linspace(kv["start"], kv["stop"], int(count))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_moments(cfg: ExperimentConfig) -> int:
    if cfg.levels < 1:
        raise ValueError("need K >= 1")
    law = parse_law(cfg.law)
    m = law.moments()
    out = {"mu": m.mean, "m2": m.second_moment, "var": m.variance}
    if m.variance > 0:
        out["a"] = [renewal.lil_constant(k, m.mean, m.sigma) for k in range(1, cfg.levels + 1)]
    _emit(_json(out), cfg.out)
    return 0


def _cmd_renewal(cfg: ExperimentConfig) -> int:
    law = parse_law(cfg.law)
    eta = parse_law(cfg.eta) if cfg.eta else None
    # json prints only constants, which do not depend on N; a one-site table refuses the same input
    n = min(cfg.n, 0) if cfg.fmt == "json" else cfg.n
    renewal.check_guard(cfg.levels, cfg.n)
    if eta:
        chain = renewal.perturbed_table(renewal.renewal_sequence(law, n), law.span, eta, n, law.moments().mean)
        table = renewal.convolve_levels(chain, cfg.levels)
    else:
        table = renewal.renewal_table(law, cfg.levels, n)
    if cfg.fmt == "json":
        m = law.moments()
        eta_mean = eta.moments().mean if eta else None
        consts = [
            renewal.AsymptoticConstants.from_moments(k, m, span=law.span, eta_mean=eta_mean).to_dict()
            for k in range(1, cfg.levels + 1)
        ]
        _emit(_json({"constants": consts}), cfg.out)
        return 0
    if not cfg.out:
        raise ValueError("CSV table needs --out")
    renewal.write_table_csv(table, cfg.out)
    return 0


def _sim_config(cfg: ExperimentConfig) -> cmj.SimConfig:
    grid = _parse_grid(cfg.grid) if cfg.grid else None
    return cmj.SimConfig(
        parse_law(cfg.law),
        levels=cfg.levels,
        horizon=cfg.t,
        eta=parse_law(cfg.eta) if cfg.eta else None,
        grid=grid,
        seed=cfg.seed,
        replicas=cfg.replicas,
    )


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    config = _sim_config(cfg)
    sim = cmj.simulate_generations(config, 0)
    if cfg.fmt == "svg":
        if not cfg.out:
            raise ValueError("SVG output needs --out")
        series = [
            Series(config.grid, sim.path[k], f"generation {k + 1}")
            for k in range(config.levels)
        ]
        emit_plot(series, cfg.out, title="generation counts", x_label="t", y_label="count")
        return 0
    if config.grid is not None:
        lines = ["t," + ",".join(f"Y{k}" for k in range(1, config.levels + 1))]
        for j, t in enumerate(config.grid):
            lines.append(",".join([_G17(t)] + [str(int(sim.path[k, j])) for k in range(config.levels)]))
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        _emit(_json({"t": config.horizon, "counts": [int(c) for c in sim.counts]}), cfg.out)
    return 0


def _cmd_mc(cfg: ExperimentConfig) -> int:
    # a grid adds nothing to the summary and would walk the last generation
    config = _sim_config(replace(cfg, grid=None))
    summary = cmj.monte_carlo(config)
    if cfg.fmt == "json":
        _emit(_json(summary.to_dict()), cfg.out)
        return 0
    t = config.horizon
    lines = ["replica,k,t,Y,clt_stat,lil_stat"]
    for r in range(config.replicas):
        for k in range(1, config.levels + 1):
            y = int(summary.counts[r, k - 1])
            clt = _G17(summary.clt[r, k - 1]) if summary.clt is not None else ""
            lil = _G17(summary.lil[r, k - 1]) if summary.lil is not None else ""
            lines.append(f"{r},{k},{_G17(t)},{y},{clt},{lil}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_rrt(cfg: ExperimentConfig) -> int:
    if cfg.enumerate_n is not None:
        pmf = rrt.enumerate_profiles(cfg.enumerate_n, cfg.levels)
        encoded = {",".join(str(v) for v in key): p for key, p in sorted(pmf.items())}
        _emit(_json(encoded), cfg.out)
        return 0
    if cfg.replicas < 1:
        raise ValueError("need replicas >= 1")
    n = cfg.n
    lines = ["n,k,X,statistic"]
    for counts in rrt.sample_profiles(n, cfg.levels, RngStream(cfg.seed, 0), cfg.replicas):
        for k, x in enumerate(counts.tolist(), 1):
            stat = _G17(rrt.rrt_lil_statistic(float(x), n, k)) if n > rrt.MIN_STAT_N else ""
            lines.append(f"{n},{k},{x},{stat}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_gauss(cfg: ExperimentConfig) -> int:
    k, t, h = cfg.k, cfg.t, cfg.h
    if k < 2:
        raise ValueError("the weighted integrals need k >= 2")
    if cfg.fmt == "json" and cfg.replicas < 2:
        raise ValueError("ensemble needs at least two replicas")
    levels = renewal.ExponentialRenewal()
    if cfg.law:
        law = parse_law(cfg.law)
        if isinstance(law, LatticeLaw):
            levels = renewal.renewal_table(law, max(1, k - 1), int(math.ceil(t / law.span)))
        elif law.family == "exp":
            levels = renewal.ExponentialRenewal(law.params["rate"])
        else:
            raise ValueError("remainder weight needs a lattice or exponential law")
    fk = gauss.FkTable(k, levels)
    b1 = gauss.b1k_ensemble(k, t, h, cfg.replicas, RngStream(cfg.seed, 0))
    b2 = gauss.b2k_ensemble(fk, t, h, cfg.replicas, RngStream(cfg.seed, 1))
    if cfg.fmt == "json":
        out = {
            "k": k,
            "t": t,
            "h": h,
            "b1_variance": float(b1.var(ddof=1)),
            "b1_variance_target": t ** (2 * k - 1) / (2 * k - 1),
            "b2_variance": float(b2.var(ddof=1)),
            "b2_variance_target": gauss.variance_b2k(fk, t),
        }
        _emit(_json(out), cfg.out)
        return 0
    lines = ["replica,t,B1k,B2k"]
    for r in range(cfg.replicas):
        lines.append(f"{r},{_G17(t)},{_G17(b1[r])},{_G17(b2[r])}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_verify(cfg: ExperimentConfig) -> int:
    # imported here: verify loads scipy.stats (~1 s), which no other command needs
    from . import verify

    if cfg.checks is not None:
        report = verify.VerificationReport("custom", cfg.seed)
        for name in cfg.checks.split(","):
            report.checks.extend(verify.run_check(name.strip(), cfg.seed))
    else:
        report = verify.run_suite(cfg.suite, cfg.seed)
    text = report.to_json() if cfg.fmt == "json" else report.to_text()
    _emit(text, cfg.out)
    if cfg.plot:
        ran = [c.series for c in report.checks if c.series is not None]
        grid, stats = ran[0] if ran else verify.lil_extrema_series(cfg.seed)
        series = [
            Series(grid, stats.max(axis=0), "running max"),
            Series(grid, stats.min(axis=0), "running min"),
        ]
        emit_plot(
            series,
            cfg.plot,
            title="level-1 fluctuation band on a geometric grid",
            x_label="log10 t",
            y_label="normalized statistic",
            ref_lines=(-1.0, 1.0),
            log_x=True,
        )
    return 0 if report.passed else 1


_COMMANDS = {
    "moments": _cmd_moments,
    "renewal": _cmd_renewal,
    "simulate": _cmd_simulate,
    "mc": _cmd_mc,
    "rrt": _cmd_rrt,
    "gauss": _cmd_gauss,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterlog",
        description="Renewal tables, branching-generation Monte Carlo, tree profiles",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file mirroring flags; flags override")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=_CHOICES["fmt"])
        p.add_argument("--seed", type=int)
        p.add_argument("--dump-config", dest="dump_config", help="write the resolved config JSON")
        return p

    p = add("moments", help="closed-form moments and statistic constants of a law")
    p.add_argument("--law", required=True)
    p.add_argument("--K", dest="levels", type=int)

    p = add("renewal", help="exact lattice tables and expansion constants")
    p.add_argument("--law", required=True)
    p.add_argument("--eta", help="perturbation law (same lattice)")
    p.add_argument("--K", dest="levels", type=int)
    p.add_argument("--N", dest="n", type=int)

    p = add("simulate", help="one replica of the branching process")
    p.add_argument("--law", required=True)
    p.add_argument("--eta")
    p.add_argument("--K", dest="levels", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--grid", help="geometric:start=..,base=..,count=.. or linear:start=..,stop=..,count=..")

    p = add("mc", help="Monte Carlo ensemble of generation counts")
    p.add_argument("--law", required=True)
    p.add_argument("--eta")
    p.add_argument("--K", dest="levels", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--replicas", type=int)

    p = add("rrt", help="random recursive tree profiles (n = non-root vertices)")
    p.add_argument("--n", type=int)
    p.add_argument("--K", dest="levels", type=int)
    p.add_argument("--replicas", type=int)
    p.add_argument("--enumerate", dest="enumerate_n", type=int, help="exact pmf by enumeration")

    p = add("gauss", help="weighted Brownian sums and variance identities")
    p.add_argument("--law", help="lattice or exponential law for the remainder weight")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--replicas", type=int)

    p = add("verify", help="run the named verification checks")
    p.add_argument("--suite", choices=_CHOICES["suite"])
    p.add_argument("--checks", help="comma list of check names instead of a suite")
    p.add_argument("--plot", help="also write the fluctuation-band SVG to this path")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _resolve(args)
        if getattr(args, "dump_config", None):
            with open(args.dump_config, "w", encoding="utf-8") as fh:
                fh.write(_json(cfg.to_dict()))
        return _COMMANDS[args.subcommand](cfg)
    except (ValueError, OSError) as exc:
        print(f"iterlog: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
