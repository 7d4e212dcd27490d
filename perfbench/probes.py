"""Layer probes: small fixed measurements of ``dist`` and ``cmj``.

They run in every traced run, after the traced pass and with tracing off,
so each of these per-layer metrics has a value on every workload.  Each
probe reports the median over repeats.
"""

from __future__ import annotations

import itertools
import statistics
import time

from iterlog import cmj, dist

from workloads import branching_configs, span_probe

REPEATS = 5
STREAMS_PER_REPEAT = 2000
#: batch size -> calls per repeat, so each repeat draws at least ~1e5 values
DRAW_BATCHES = {64: 2000, 65536: 4}
REPLICA_PROBE = 100
EFFICIENCY_REPLICAS = 512
#: Repeats of the 1- and 2-worker ensembles; the first pool of a process starts slowly.
EFFICIENCY_REPEATS = 3
POOL_PROBE_REPLICAS = 64


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stream_setup_us(seed: int) -> float:
    """First ``generator()`` call of a fresh stream: SeedSequence + Philox."""
    base = itertools.count()

    def make():
        for _ in range(STREAMS_PER_REPEAT):
            dist.RngStream(seed, next(base)).generator()

    return _median_time(make) / STREAMS_PER_REPEAT * 1e6


def draw_ns(law, seed: int, batch: int) -> float:
    rng = dist.RngStream(seed, 1).generator()
    calls = DRAW_BATCHES[batch]

    def draw():
        for _ in range(calls):
            law.sample(rng, batch)

    return _median_time(draw) / (calls * batch) * 1e9


def replica_us(config: cmj.SimConfig) -> float:
    """Median serial ``simulate_generations`` time over the first replicas."""
    times = []
    for r in range(REPLICA_PROBE):
        start = time.perf_counter()
        cmj.simulate_generations(config, r)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def ensemble_s(config: cmj.SimConfig, workers: int, repeats: int) -> float:
    return _median_time(lambda: cmj.monte_carlo(config, workers=workers), repeats)


def run(seed: int, workers: int) -> dict:
    """Every probe metric, keyed by its per-layer name."""
    configs = branching_configs(seed)
    exp = configs["exp"].law
    out = {"dist.stream_setup_us": stream_setup_us(seed)}
    for tag, law in (("exp", exp), ("lattice", configs["geom"].law)):
        for batch in DRAW_BATCHES:
            out[f"dist.draw_ns.{tag}.b{batch}"] = draw_ns(law, seed, batch)

    for name, config in configs.items():
        out[f"cmj.replica_us.{name}"] = replica_us(config)

    big = cmj.SimConfig(exp, 3, 100.0, seed=seed, replicas=EFFICIENCY_REPLICAS)
    serial = ensemble_s(big, 1, EFFICIENCY_REPEATS)
    parallel = ensemble_s(big, workers, EFFICIENCY_REPEATS)
    out["cmj.parallel_efficiency"] = serial / (workers * parallel)

    short = cmj.SimConfig(exp, 1, 5.0, seed=seed, replicas=POOL_PROBE_REPLICAS)
    out["cmj.pool_overhead_s"] = ensemble_s(short, workers, REPEATS) - ensemble_s(short, 1, REPEATS)

    out["cmj.span_probe_mismatches"] = span_probe(seed)
    return out
