"""Command-line front end: reproducible experiments, CSV/JSON/SVG reports.

Subcommands: moments, renewal, simulate, mc, rrt, gauss, verify.  Each
subcommand's parser declares its options once: flag, type, default and
choices.  A JSON ``--config`` file is read as flags: each non-null key (an
option's dest, as ``--dump-config`` writes it) becomes ``--flag=value`` right
after the subcommand name, so the parser checks file values as it checks
flags, and a flag on the command line wins.  A key the subcommand has no
option for is refused (a ``grid`` for ``mc``; a ``seed`` for ``moments`` or
``renewal``, which draw nothing and take no ``--seed``), and ``--dump-config``
writes exactly the subcommand's options.  Each subcommand writes only its own
formats.  Exit codes: 0 ok, 1 a gated verification check failed, 2 usage error.

All numeric CSV output uses 17 significant digits so files round-trip and
identical (config, seed) pairs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cmj, gauss, renewal, rrt
from .dist import LatticeLaw, RngStream, parse_kv, parse_law
from .plot import Series, emit_plot

_G17 = "{:.17g}".format

#: A subcommand's option that makes it ignore others, with their defaults: given
#: together (by flag or config file) they are refused; given alone, the ignored
#: ones stay None, and without it they take these defaults.
_OVERRIDES = {"verify": ("checks", {"suite": "fast"}),
              "rrt": ("enumerate_n", {"n": 100, "replicas": 100, "seed": 0})}

#: Formats a subcommand writes, its default first (simulate and rrt: see ``_formats``).
_FORMATS = {"moments": ("json",), "renewal": ("csv", "json"), "simulate": ("json", "csv", "svg"),
            "mc": ("csv", "json"), "rrt": ("csv", "json"), "gauss": ("csv", "json"),
            "verify": ("text", "json")}


def _keys(command: argparse.ArgumentParser) -> dict[str, str]:
    """A subcommand's config keys, each with its flag: the dests of its options
    other than help, --config and --dump-config."""
    return {a.dest: a.option_strings[-1] for a in command._actions
            if a.dest not in ("help", "config", "dump_config")}


def _with_config(commands: dict[str, argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """``argv`` with its ``--config`` file's values as flags after the subcommand name."""
    if not argv or argv[0] not in commands:
        return argv
    pre = argparse.ArgumentParser(prog=f"iterlog {argv[0]}", usage=argparse.SUPPRESS, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    with open(path, "r", encoding="utf-8") as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise ValueError("config file must hold a JSON object")
    keys = _keys(commands[argv[0]])
    tokens = []
    for key, value in body.items():
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        if value is not None:
            tokens.append(f"{keys[key]}={value if isinstance(value, str) else json.dumps(value)}")
    return argv[:1] + tokens + argv[1:]


def _formats(cfg: argparse.Namespace) -> tuple[str, ...]:
    """Formats the parsed subcommand writes, its default first."""
    if cfg.subcommand == "simulate":
        return ("csv", "svg") if cfg.grid else ("json",)
    if cfg.subcommand == "rrt":
        return ("csv",) if cfg.enumerate_n is None else ("json",)
    return _FORMATS[cfg.subcommand]


def _resolve(cfg: argparse.Namespace, keys: dict[str, str]) -> None:
    """Apply the subcommand's override and its default format to the parsed options."""
    name, ignored = _OVERRIDES.get(cfg.subcommand, (None, {}))
    if name is not None and getattr(cfg, name) is not None:
        clash = [keys[o] for o in ignored if getattr(cfg, o) is not None]
        if clash:
            raise ValueError(f"{keys[name]} ignores {', '.join(clash)}; give one or the other")
    else:
        for o, default in ignored.items():
            if getattr(cfg, o) is None:
                setattr(cfg, o, default)
    formats = _formats(cfg)
    if cfg.fmt is None:
        cfg.fmt = formats[0]
    elif cfg.fmt not in formats:
        raise ValueError(f"{cfg.subcommand} writes {' or '.join(formats)}, not {cfg.fmt}")


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


def _cmd_moments(cfg: argparse.Namespace) -> int:
    if cfg.levels < 1:
        raise ValueError("need K >= 1")
    law = parse_law(cfg.law)
    m = law.moments()
    out = {"mu": m.mean, "m2": m.second_moment, "var": m.variance}
    if m.variance > 0:
        out["a"] = [renewal.lil_constant(k, m.mean, m.sigma) for k in range(1, cfg.levels + 1)]
    _emit(_json(out), cfg.out)
    return 0


def _cmd_renewal(cfg: argparse.Namespace) -> int:
    law = parse_law(cfg.law)
    eta = parse_law(cfg.eta) if cfg.eta else None
    # json prints only constants, which do not depend on N; a one-site table refuses the same input
    n = min(cfg.n, 0) if cfg.fmt == "json" else cfg.n
    renewal.check_guard(cfg.levels, cfg.n)
    table = renewal.renewal_table(law, cfg.levels, n, eta)
    if cfg.fmt == "json":
        m = law.moments()
        eta_mean = eta.moments().mean if eta else None
        consts = [renewal.expansion_constants(k, m, law.span, eta_mean) for k in range(1, cfg.levels + 1)]
        _emit(_json({"constants": consts}), cfg.out)
        return 0
    if not cfg.out:
        raise ValueError("CSV table needs --out")
    renewal.write_table_csv(table, cfg.out)
    return 0


def _sim_config(cfg: argparse.Namespace, **extra) -> cmj.SimConfig:
    eta = parse_law(cfg.eta) if cfg.eta else None
    return cmj.SimConfig(parse_law(cfg.law), cfg.levels, cfg.t, eta, seed=cfg.seed, **extra)


def _cmd_simulate(cfg: argparse.Namespace) -> int:
    config = _sim_config(cfg, grid=_parse_grid(cfg.grid) if cfg.grid else None)
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


def _cmd_mc(cfg: argparse.Namespace) -> int:
    config = _sim_config(cfg, replicas=cfg.replicas)
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


def _cmd_rrt(cfg: argparse.Namespace) -> int:
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


def _cmd_gauss(cfg: argparse.Namespace) -> int:
    k, t, h = cfg.k, cfg.t, cfg.h
    if k < 2:
        raise ValueError("the weighted integrals need k >= 2")
    if cfg.fmt == "json" and cfg.replicas < 2:
        raise ValueError("ensemble needs at least two replicas")
    gauss.check_step(t, h)  # before a lattice table of t / span sites is built
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


def _cmd_verify(cfg: argparse.Namespace) -> int:
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``iterlog`` parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="iterlog",
        description="Renewal tables, branching-generation Monte Carlo, tree profiles",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file mirroring flags; flags override")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS[name])
        p.add_argument("--dump-config", dest="dump_config", help="write the resolved config JSON")
        return p

    p = add("moments", help="closed-form moments and statistic constants of a law")
    p.add_argument("--law", required=True)
    p.add_argument("--K", dest="levels", type=int, default=3)

    p = add("renewal", help="exact lattice tables and expansion constants")
    p.add_argument("--law", required=True)
    p.add_argument("--eta", help="perturbation law (same lattice)")
    p.add_argument("--K", dest="levels", type=int, default=3)
    p.add_argument("--N", dest="n", type=int, default=100)

    p = add("simulate", help="one replica of the branching process")
    p.add_argument("--law", required=True)
    p.add_argument("--eta")
    p.add_argument("--K", dest="levels", type=int, default=3)
    p.add_argument("--t", type=float, default=100.0)
    p.add_argument("--grid", help="geometric:start=..,base=..,count=.. or linear:start=..,stop=..,count=..")
    p.add_argument("--seed", type=int, default=0)

    p = add("mc", help="Monte Carlo ensemble of generation counts")
    p.add_argument("--law", required=True)
    p.add_argument("--eta")
    p.add_argument("--K", dest="levels", type=int, default=3)
    p.add_argument("--t", type=float, default=100.0)
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("rrt", help="random recursive tree profiles (n = non-root vertices)")
    p.add_argument("--n", type=int)  # --n, --replicas, --seed: defaults in _OVERRIDES
    p.add_argument("--K", dest="levels", type=int, default=3)
    p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--enumerate", dest="enumerate_n", type=int, help="exact pmf by enumeration")

    p = add("gauss", help="weighted Brownian sums and variance identities")
    p.add_argument("--law", help="lattice or exponential law for the remainder weight")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t", type=float, default=100.0)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify", help="run the named verification checks")
    p.add_argument("--suite", choices=("fast", "full"))  # default in _OVERRIDES
    p.add_argument("--checks", help="comma list of check names instead of a suite")
    p.add_argument("--plot", help="also write the fluctuation-band SVG to this path")
    p.add_argument("--seed", type=int, default=0)
    return parser, sub.choices


def run(argv: list[str]) -> int:
    parser, commands = build_parser()
    try:
        cfg = parser.parse_args(_with_config(commands, argv))
        keys = _keys(commands[cfg.subcommand])
        _resolve(cfg, keys)
        if cfg.dump_config:
            with open(cfg.dump_config, "w", encoding="utf-8") as fh:
                fh.write(_json({key: getattr(cfg, key) for key in keys}))
        return _COMMANDS[cfg.subcommand](cfg)
    except SystemExit as exc:  # argparse's usage errors, and --help
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"iterlog: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
