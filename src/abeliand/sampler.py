"""Seeded Monte Carlo for the Avalanche family.

A single draw expands N i.i.d. uniforms into a count S through nested
half-open intervals: with eps_0 = 1 and c_k = eps_0 + ... + eps_k, step k
counts the uniforms falling in [1 - p*c_k, 1 - p*c_{k-1}).  Consecutive
intervals share endpoints, so they are pairwise disjoint and each uniform
is counted at most once; once a step counts nothing every later interval
is empty.  S = eps_1 + ... + eps_N is a draw from the Avalanche family.

Stream-derivation rule (the reproducibility contract): a run with seed s is
split into fixed chunks of CHUNK = 65536 draws, and chunk k uses numpy's
PCG64 bit generator seeded with SeedSequence(s, spawn_key=(k,)); the chunk's
m*N uniforms are read in row-major order, draw i taking uniforms i*N ..
i*N + N - 1.  Results therefore depend only on (params, M, seed), regardless
of how chunks are scheduled or merged.  The kernel reads each chunk in row
blocks of about BLOCK uniforms, so its memory is bounded per block, not per
chunk.  numpy is imported on the first call that draws, not with the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dist import Params

if TYPE_CHECKING:
    import numpy as np

CHUNK = 1 << 16
BLOCK = 1 << 16  # uniforms per row block of _draw_chunk (one row if N is larger)


@dataclass(frozen=True)
class EpsilonTrace:
    params: Params
    uniforms: tuple[float, ...]
    epsilons: tuple[int, ...]
    S: int


@dataclass(frozen=True)
class SampleStats:
    """Summary of M seeded draws; counts are exact, floats derived from them."""

    M: int
    seed: int
    empirical_mean: float
    empirical_variance: float
    empirical_pmf: dict[int, int]
    stderr_mean: float


def epsilon_sequence(params: Params, uniforms) -> EpsilonTrace:
    """Deterministic interval-counting trace for one batch of N uniforms.

    The loop stops as soon as a step counts zero (the remaining intervals
    are empty); the recorded sequence is identical to running all N steps.
    """
    N = params.N
    p = float(params.p)
    us = [float(u) for u in uniforms]
    if len(us) != N:
        raise ValueError(f"expected {N} uniforms, got {len(us)}")
    if any(not 0.0 <= u < 1.0 for u in us):
        raise ValueError("uniforms must lie in [0, 1)")
    eps: list[int] = []
    c_prev = 0  # eps_0 + ... + eps_{k-2}
    c_curr = 1  # eps_0 + ... + eps_{k-1}
    for k in range(1, N + 1):
        lo = 1.0 - p * c_curr
        hi = 1.0 - p * c_prev
        e = sum(1 for u in us if lo <= u < hi)
        eps.append(e)
        c_prev = c_curr
        c_curr += e
        if e == 0:
            eps.extend([0] * (N - k))
            break
    return EpsilonTrace(params, tuple(us), tuple(eps), sum(eps))


def substream(seed: int, k: int) -> np.random.Generator:
    """Generator for chunk k of a run seeded with ``seed`` (see module doc)."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))


def _draw_chunk(params: Params, rng: np.random.Generator, m: int) -> np.ndarray:
    # First-passage form of epsilon_sequence on the same floats.  With
    # t_j = 1.0 - p*j (the loop's thresholds), g(u) the least j >= 1 with
    # u >= t_j and F(x) = #{g <= x}, step k counts the uniforms with
    # c_{k-2} < g <= c_{k-1}, so c_k = 1 + F(c_{k-1}).  The c_k climb to the
    # least x >= 1 with F(x) < x, where F(x) = x - 1, so S = x - 1: one
    # histogram of g and one cumsum per row.  g = N + 1 stands for "no
    # j <= N"; F(N + 1) = N < N + 1 then ends every row.
    # g is guessed as ceil((1 - u)/p - 1/2 - 2^-54/p).  Near 1, u and t_j
    # lie on the 2^-53 grid, so u >= t_j where p*j passes 1 - u - 2^-54,
    # even if p is below one grid step and several j share one t_j; further
    # down the grid is finer and p > 1/(2N).  The other rounding errors are
    # a few 2^-53 relative, far below half a step, so the guess is g or
    # g - 1, and one check u < t_g (the loop's own comparison) lifts it
    # where needed.  A row with no uniform in [t_1, 1) has F(1) = 0 and
    # S = 0, so only the other rows are histogrammed.
    import numpy as np

    N = params.N
    p = float(params.p)
    t = 1.0 - p * np.arange(N + 1)
    shift = 0.5 + 2.0**-54 / p
    rows = max(1, BLOCK // N)
    width = N + 2
    steps = np.arange(1, N + 2)
    s = np.zeros(m, dtype=np.int64)
    for start in range(0, m, rows):
        u = rng.random((min(rows, m - start), N))
        hit = np.flatnonzero(u.max(axis=1) >= t[1])
        u = u[hit]
        r = len(hit)
        x = 1.0 - u
        x /= p
        x -= shift
        np.ceil(x, out=x)
        g = np.clip(x, 1, N, out=x).astype(np.intp)
        g += u < t.take(g)
        g += np.arange(0, r * width, width)[:, None]
        F = np.bincount(g.ravel(), minlength=r * width).reshape(r, width)
        np.cumsum(F, axis=1, out=F)
        s[start + hit] = (F[:, 1:] < steps).argmax(axis=1)
    return s


def monte_carlo(params: Params, M: int, seed: int) -> SampleStats:
    """M seeded draws, chunked per the documented substream rule.

    Counts merge by addition, so the result is independent of chunk
    execution order; the summary floats are computed once from the merged
    exact counts.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    import numpy as np

    N = params.N
    counts = np.zeros(N + 1, dtype=np.int64)
    done = 0
    k = 0
    while done < M:
        m = min(CHUNK, M - done)
        s = _draw_chunk(params, substream(seed, k), m)
        counts += np.bincount(s, minlength=N + 1)
        done += m
        k += 1
    seen = np.flatnonzero(counts)
    pmf = dict(zip(seen.tolist(), counts[seen].tolist()))
    # Python ints: an int64 sum of b*b*count would wrap past ~9.2e18.
    total = sum(b * c for b, c in pmf.items())
    total_sq = sum(b * b * c for b, c in pmf.items())
    mean = total / M
    variance = total_sq / M - mean * mean
    stderr = math.sqrt(max(variance, 0.0) / M)
    return SampleStats(M, seed, mean, variance, pmf, stderr)
