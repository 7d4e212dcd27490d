"""Random recursive trees: uniform attachment and the Yule embedding.

Vertex count convention: n is the number of NON-ROOT vertices, born at
epochs tau_1 < ... < tau_n, so the tree holds n+1 vertices and the level
counts satisfy sum_k X_n(k) = n.  Every tree is a parent array that one level
kernel reads on a block of trees, capped where its caller stops: the profile
samplers find levels 1..K only, the growers every level.  The Yule grower also
records the birth epochs, making the profile the generation count of the
exponential branching process sampled at tau_n.  The profile statistic is
``cmj.lil_statistic`` for the unit exponential law read at t = log n.

The exact profile law is a Markov chain on the level counts (Drmota, Random
Trees, 2009, ch. 6): vertex m joins level l with probability c_{l-1}/m
(c_0 = 1, the root), levels past K sharing one implied slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmj import lil_statistic
from .dist import Moments, RngStream, draw_rows
from .renewal import MAX_TABLE_ENTRIES, leading_term

#: The profile statistic needs log log log n > 0.
MIN_STAT_N = math.exp(math.e)

#: Moments of the unit exponential law, whose Yule process grows the tree.
UNIT_EXP = Moments(1.0, 2.0)

#: Most states the profile chain may walk, summed over its n steps.
MAX_CHAIN_STATES = 2**18


@dataclass
class ProfileTrace:
    """Growth history of one tree: per-vertex levels, optional epochs.

    ``levels[m]`` is the level of the m-th vertex (index 0 is the root at
    level 0), so ``counts_at(m)`` reads the counts X_m(k) after any step m.
    ``epochs`` holds the birth epochs tau_1 < ... < tau_n of a Yule-grown
    tree and is None for one grown by the discrete rule.
    """

    levels: np.ndarray
    max_level: int
    epochs: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.levels.size - 1

    def counts(self, k_max: int | None = None) -> np.ndarray:
        """Final level counts X_n(1..k_max)."""
        return self.counts_at(self.n, k_max)

    def counts_at(self, m: int, k_max: int | None = None) -> np.ndarray:
        """Level counts after the first m non-root vertices."""
        if not 0 <= m <= self.n:
            raise ValueError("m outside growth history")
        if (k := self.max_level if k_max is None else k_max) < 1:
            raise ValueError("need k_max >= 1")
        return _profiles(self.levels[None, : m + 1], k)[0]


def _levels(parents: np.ndarray, depth: int) -> np.ndarray:
    """Levels (rows, n+1), root in column 0, capped at ``depth + 1``, where vertex m of a
    row attaches to ``int(parents[:, m-1])``.  A vertex is at level >= k exactly when its
    parent is at level >= k-1, so from the marks "not a root" each of at most depth + 1
    rounds adds the marks to the levels and gathers them through the flat parent index."""
    rows, n = parents.shape
    up = np.zeros((rows, n + 1), dtype=np.intp)
    up[:, 1:] = parents
    del parents  # callers pass a temporary: free it before the rounds
    up += np.arange(0, rows * (n + 1), n + 1)[:, None]
    up = up.ravel()
    mark = np.ones(up.size, dtype=bool)
    mark[:: n + 1] = False
    lv = np.zeros(up.size, dtype=np.int32)
    for _ in range(depth + 1):
        lv += mark
        if not (mark := mark[up]).any():
            break
    return lv.reshape(rows, n + 1)


def _check_block(n: int, rows: int, k_max: int) -> None:
    if n < 1 or rows < 1:
        raise ValueError("need n >= 1 and replicas >= 1")
    if k_max < 1:
        raise ValueError("need k_max >= 1")


def _parents(n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Parent arrays (rows, n) of ``rows`` trees: vertex m attaches to floor(u * m)."""
    m = np.arange(1, n + 1, dtype=np.float64)
    return np.multiply(rng.random((rows, n)), m, out=np.empty((rows, n), np.int32), casting="unsafe")


def grow_discrete(n: int, k_max: int, stream: RngStream) -> ProfileTrace:
    """Uniform attachment: vertex m+1 picks its parent uniformly among 1..m."""
    _check_block(n, 1, k_max)
    return ProfileTrace(_levels(_parents(n, stream.generator(), 1), n)[0].astype(np.int64), k_max)


def grow_yule(n: int, k_max: int, stream: RngStream) -> ProfileTrace:
    """Continuous-time growth: each vertex births offspring at unit rate.

    Equivalent to uniform attachment with epoch gaps Exp(current size); the
    epochs make the profile the branching-generation count sampled at tau_n."""
    _check_block(n, 1, k_max)
    rng = stream.generator()
    epochs = np.cumsum(rng.exponential(1.0, n) / np.arange(1, n + 1))
    return ProfileTrace(_levels(_parents(n, rng, 1), n)[0].astype(np.int64), k_max, epochs)


def sample_profiles(n: int, k_max: int, stream: RngStream, replicas: int) -> np.ndarray:
    """Final profiles (X_n(1..k_max)) of many independent trees, one row each,
    whose levels the kernel finds only up to k_max + 1.  ``dist.draw_rows``
    grows the trees a chunk at a time from the stream's one generator, so the
    draws are those of one (replicas, n) block, and writes each chunk's profiles
    in place, so memory beyond the output stays flat in ``replicas``."""
    _check_block(n, replicas, k_max)
    if n > MAX_TABLE_ENTRIES:
        raise ValueError(f"tree too large: n = {n} would exceed the memory guard")
    return draw_rows(lambda rng, r: _profiles(_levels(_parents(n, rng, r), k_max), k_max),
                     stream.generator(), replicas, n)


def _profiles(levels: np.ndarray, k_max: int) -> np.ndarray:
    """X_n(1..k_max), one row per row of a levels block."""
    out = np.empty((levels.shape[0], k_max), dtype=np.int64)
    for k in range(1, k_max + 1):
        out[:, k - 1] = (levels == k).sum(axis=1)
    return out


def bernoulli_level1_sample(n: int, stream: RngStream, replicas: int) -> np.ndarray:
    """Sums of independent Bernoulli(1/m) draws, m = 1..n, one per replica: level 1
    of ``sample_profiles``, as vertex m joins the root when its uniform has u * m < 1,
    so it reads that sampler's draws and is no independent reference for the law."""
    return sample_profiles(n, 1, stream, replicas)[:, 0]


def rrt_lil_statistic(xnk, n: int, k: int):
    """(k-1)! sqrt(2k-1) (X_n(k) - (log n)^k/k!) / sqrt(2 (log n)^{2k-1} logloglog n).

    ``cmj.lil_statistic`` of the unit exponential law at t = log n, so it
    needs n > e^e; ``xnk`` may be one count or an array of counts.
    """
    if not n > MIN_STAT_N:
        raise ValueError(f"LIL statistic undefined for n <= e^e = {MIN_STAT_N:.4f}, got n = {n}")
    t = math.log(n)
    return lil_statistic(xnk, k, t, UNIT_EXP, leading_term(k, UNIT_EXP.mean, t))


def enumerate_profiles(n: int, k_max: int | None = None) -> dict[tuple, float]:
    """Exact law of (X_n(1), ..., X_n(K)), K = min(k_max, n) (n if None), by
    the level-count chain; keys ascend.  A state carries how many of the n!
    attachment sequences reach it, so each value is an exact rational rounded
    once.  The chain walks C(n+1, K+1) + sum_{j<K} C(n, j) states in all and
    refuses more than ``MAX_CHAIN_STATES``: the largest calls it takes (all
    levels at n = 18; K = 3 at n = 50) run about 2.3 s and 0.9 s on a Xeon core."""
    if n < 1:
        raise ValueError("need n >= 1")
    k = n if k_max is None else min(k_max, n)
    _check_block(n, 1, k)
    small = k <= MAX_CHAIN_STATES.bit_length()  # else sum_{j<K} C(n, j) >= 2^K - 1 is past the limit
    if not small or math.comb(n + 1, k + 1) + sum(math.comb(n, j) for j in range(1, k)) > MAX_CHAIN_STATES:
        raise ValueError(f"profile chain at n = {n}, K = {k} walks more than {MAX_CHAIN_STATES} states")
    law = {(0,) * k: 1}
    for m in range(1, n + 1):
        step = {}
        for c, ways in law.items():
            for level, parents in enumerate((1,) + c[:-1]):
                if parents:
                    key = c[:level] + (c[level] + 1,) + c[level + 1 :]
                    step[key] = step.get(key, 0) + ways * parents
            if folded := c[-1] + m - 1 - sum(c):  # parents at level K and in the implied deeper slot
                step[c] = step.get(c, 0) + ways * folded
        law = step
    total = math.factorial(n)
    return {c: ways / total for c, ways in sorted(law.items())}


def profile_pmf_from_samples(samples: np.ndarray) -> dict[tuple, float]:
    """Empirical profile pmf from a (R, K) integer sample matrix, ordered as
    ``np.unique(axis=0)`` orders rows but ranked by one int64 key with a digit per column."""
    r = samples.shape[0]
    # initial=0 keeps 0 inside each column's range, so no sample is a special case
    lo = samples.min(axis=0, initial=0)
    radix = (samples.max(axis=0, initial=0) - lo + 1).tolist()
    if math.prod(radix) > np.iinfo(np.int64).max:
        uniq, counts = np.unique(samples, axis=0, return_counts=True)
    else:
        key = np.zeros(r, dtype=np.int64)
        for j, base in enumerate(radix):
            key = key * base + (samples[:, j] - lo[j])
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        uniq = samples[first]
    return {tuple(int(x) for x in row): int(c) / r for row, c in zip(uniq, counts)}


def total_variation(p: dict[tuple, float], q: dict[tuple, float]) -> float:
    """TV distance between two pmfs on profile tuples."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
