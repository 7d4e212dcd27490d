"""In-memory span recorder that wraps iterlog's public functions.

A traced pass installs wrappers on module attributes (and on the sampling
methods of the law classes), records one span per call -- name, start,
end, parent -- and restores the originals afterwards.  Nothing in
``src/`` changes; spans live in a list until ``write`` dumps them as JSON
lines.  Calls made inside forked pool workers run the original function
without recording, so a pool shows up as the parent-side span of the call
that started it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time


class Tracer:
    """Span recorder; ``spans[i] = [id, parent, name, start_ns, end_ns, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(args, kwargs, result)`` adds counters."""
        if os.getpid() != self._pid:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if count is not None:
            span[5] = count(args, kwargs, result)
        return result

    # -- installing wrappers -----------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def wrap_item(self, table: dict, key, name: str) -> None:
        """Wrap the callable in the first slot of ``table[key]`` (a tuple)."""
        entry = table[key]
        original = entry[0]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        table[key] = (traced,) + tuple(entry[1:])
        self._restore.append((table, key, entry))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span (times in ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end, counts in self.spans:
                row = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


def duration(span: list) -> float:
    return (span[4] - span[3]) / 1e9


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def _size(result) -> int:
    return int(result.values.size)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    ``plot`` is left out on purpose: it only runs under ``verify --plot``.
    """
    from iterlog import cli, cmj, dist, gauss, renewal, rrt, verify

    for attr in ("parse_law", "geometric_lattice"):
        tracer.wrap(dist, attr, f"dist.{attr}")
    tracer.wrap(dist.RngStream, "generator", "dist.RngStream.generator")
    tracer.wrap(dist.LatticeLaw, "sample", "dist.LatticeLaw.sample")
    tracer.wrap(dist.SmoothLaw, "sample", "dist.SmoothLaw.sample")

    cells = lambda a, k, r: {"cells": _size(r)}  # noqa: E731
    tracer.wrap(renewal, "renewal_table", "renewal.renewal_table", cells)
    tracer.wrap(renewal, "perturbed_table", "renewal.perturbed_table", cells)
    tracer.wrap(
        renewal,
        "convolve_levels",
        "renewal.convolve_levels",
        lambda a, k, r: {"cells": _size(r) - _size(a[0])},
    )
    tracer.wrap(renewal, "renewal_sequence", "renewal.renewal_sequence")
    tracer.wrap(renewal, "subadditivity_sweep", "renewal.subadditivity_sweep")
    tracer.wrap(renewal, "write_table_csv", "renewal.write_table_csv")

    tracer.wrap(cmj, "simulate_generations", "cmj.simulate_generations")
    tracer.wrap(
        cmj,
        "monte_carlo",
        "cmj.monte_carlo",
        lambda a, k, r: {"births": int(r.counts.sum()), "replicas": int(r.config.replicas)},
    )
    tracer.wrap(
        cmj,
        "decomposition_ensemble",
        "cmj.decomposition_ensemble",
        lambda a, k, r: {"replicas": int(r.shape[0])},
    )

    tracer.wrap(rrt, "grow_yule", "rrt.grow_yule", lambda a, k, r: {"vertices": int(r.n)})
    tracer.wrap(rrt, "grow_discrete", "rrt.grow_discrete", lambda a, k, r: {"vertices": int(r.n)})
    tracer.wrap(
        rrt,
        "sample_profiles",
        "rrt.sample_profiles",
        _bound(rrt.sample_profiles, lambda b, r: {"vertices": int(b["n"] * b["replicas"])}),
    )
    tracer.wrap(rrt, "bernoulli_level1_sample", "rrt.bernoulli_level1_sample")
    tracer.wrap(rrt, "enumerate_profiles", "rrt.enumerate_profiles")

    tracer.wrap(gauss, "sample_bm", "gauss.sample_bm", lambda a, k, r: {"normals": int(r.values.size - 1)})
    for attr in ("b1k_ensemble", "b2k_ensemble"):
        normals = _bound(
            getattr(gauss, attr),
            lambda b, r: {"normals": int(b["replicas"]) * int(round(b["t"] / b["h"]))},
        )
        tracer.wrap(gauss, attr, f"gauss.{attr}", normals)
    tracer.wrap(gauss, "b2k", "gauss.b2k")
    tracer.wrap(gauss, "variance_b2k", "gauss.variance_b2k")

    for name in verify.CHECKS:
        tracer.wrap_item(verify.CHECKS, name, f"verify.{name}")
    tracer.wrap(verify, "run_suite", "verify.run_suite")

    tracer.wrap(cli, "main", "cli.main")


def _bound(fn, count):
    """Counter hook that sees the call's arguments by parameter name."""
    signature = inspect.signature(fn)
    return lambda a, k, r: count(signature.bind(*a, **k).arguments, r)
