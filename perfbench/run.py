#!/usr/bin/env python3
"""Run one iterlog benchmark workload and print one JSON result line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/iterlog`` and
``BENCHMARK.json``.  With ``--trace 0`` the workload's jobs run as whole
passes until ``--seconds`` have elapsed and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced pass and one traced pass run, then
the layer probes; the per-layer metrics are printed and the spans are
written to ``perfbench/out/``.  Every result is checked by an oracle
outside the timed region.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run context.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found next to {BENCH_DIR.name}/")
    return json.loads(path.read_text(encoding="utf-8"))


def import_iterlog() -> None:
    """Put this checkout's ``src`` first on the path and insist on using it."""
    package = SRC / "iterlog"
    if not (package / "__init__.py").is_file():
        die(f"no iterlog sources at {package.relative_to(ROOT)}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import iterlog

    if Path(iterlog.__file__).resolve().parent != package.resolve():
        die(f"imported iterlog from {iterlog.__file__}, not from this checkout")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_child(args) -> None:
    """Import iterlog (through its CLI module), parse laws, build configs; report when done."""
    start = time.perf_counter()
    import_iterlog()
    import iterlog.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    print(json.dumps({"done": time.monotonic(), "import_s": import_s}))


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time SETUP_REPEATS fresh processes from spawn to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            die("set-up failed in a fresh process")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(report["done"] - start)
        imports.append(report["import_s"])
    return setup, imports


# ---------------------------------------------------------------------------
# passes and oracles
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations; one operation is one job in one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, op: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{op}: {why}")


def run_pass(workload, tracer=None) -> tuple[dict, dict, dict]:
    """Run every job once; returns (results, seconds per job, errors)."""
    results, errors, seconds = {}, {}, {}
    for job in workload.jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                results[job.name] = job.run(results)
            else:
                results[job.name] = tracer.call(f"bench.{job.name}", job.run, results)
        except Exception:  # noqa: BLE001 -- a failing job is counted, the run goes on
            errors[job.name] = traceback.format_exc()
        seconds[job.name] = time.perf_counter() - start
    return results, seconds, errors


def snapshots(workload, results: dict, errors: dict) -> dict:
    snaps = {}
    for job in workload.jobs:
        if job.name in errors:
            continue
        try:
            snaps[job.name] = job.snapshot(results[job.name])
        except Exception:  # noqa: BLE001
            errors[job.name] = traceback.format_exc()
    return snaps


def check_first(workload, snaps: dict, errors: dict, ledger: Ledger) -> dict:
    """Full oracles on the first pass; a job without an outcome counts as failed."""
    outcomes = {}
    if not errors:
        try:
            outcomes = workload.check(snaps)
        except Exception:  # noqa: BLE001
            errors["oracle"] = traceback.format_exc()
    for job in workload.jobs:
        checks = outcomes.get(job.name, [])
        bad = [f"{o.name}={o.value}" for o in checks if not o.ok]
        if job.name in errors:
            ledger.record(job.name, False, "raised")
        else:
            ledger.record(job.name, bool(checks) and not bad, ", ".join(bad) or "not checked")
    return outcomes


def check_repeat(workload, first: dict, snaps: dict, errors: dict, ledger: Ledger) -> None:
    """A later pass must reproduce the first bit for bit."""
    import workloads

    for job in workload.jobs:
        ok = job.name not in errors and job.name in first and workloads.same(first[job.name], snaps[job.name])
        ledger.record(job.name, ok, "raised" if job.name in errors else "differs from the first pass")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_context(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "iterlog_threads": os.environ["ITERLOG_THREADS"],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def measure(workload, seconds: float, ledger: Ledger) -> tuple[list[dict], dict, dict]:
    """Passes until ``seconds`` have elapsed (at least one).

    Returns the job times of each pass, the first pass's snapshots and its
    errors; every later pass is checked against the first here.
    """
    times, first, first_errors = [], None, {}
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        results, job_seconds, errors = run_pass(workload)
        times.append(job_seconds)
        snaps = snapshots(workload, results, errors)
        if first is None:
            first, first_errors = snaps, errors
        else:
            check_repeat(workload, first, snaps, errors, ledger)
    return times, first, first_errors


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    threads = len(os.sched_getaffinity(0))
    os.environ["ITERLOG_THREADS"] = str(threads)
    if args.setup_only:
        setup_child(args)
        return 0

    import_iterlog()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    setup_times, import_times = measure_setup(args)

    import metrics
    import probes
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    ledger = Ledger()
    tracer = None
    if args.trace:
        times, first, first_errors = measure(workload, 0.0, ledger)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            results, traced, errors = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        check_repeat(workload, first, snapshots(workload, results, errors), errors, ledger)
        del results
    else:
        times, first, first_errors = measure(workload, args.seconds, ledger)
    rss = peak_rss_mb()
    outcomes = check_first(workload, first, first_errors, ledger)
    extra = workload.defect_probe()
    probe_values = probes.run(args.seed, threads) if args.trace else {}

    for job, text in first_errors.items():
        sys.stderr.write(f"perfbench: {job} raised\n{text}")
    for line in ledger.failed:
        sys.stderr.write(f"perfbench: failed {line}\n")

    if args.trace:
        values = metrics.per_layer(
            tracer.spans, probe_values, outcomes, extra,
            import_s=statistics.median(import_times),
            overhead_s=sum(traced.values()) - metrics.wall_s(times),
            failed=len(ledger.failed), attempted=ledger.attempted,
        )
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": metrics.wall_s(times), "setup_s": statistics.median(setup_times), "peak_rss_mb": rss}
        wanted = spec["end_to_end"]
    try:
        result = metrics.result_line(wanted, values, len(ledger.failed), ledger.attempted)
    except KeyError as exc:
        die(f"metrics not measured: {exc}")
    context = run_context(args)
    record = {"context": context, "pass_seconds": times, "defect_probe": extra, "failures": ledger.failed,
              "oracles": {job: [o._asdict() for o in group] for job, group in outcomes.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl", context)
    print(json.dumps({"context": context, "defect_probe": extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
