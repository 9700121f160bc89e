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
of how chunks are scheduled or merged.  tests/stream_reference.py replays
that stream in pure Python, bit for bit.

Each chunk is drawn in pieces, one contiguous run of its rows per worker
thread; the workers are the CPUs the process may run on, or one thread when
a row is longer than MAX_BLOCK uniforms, so that such a run holds one row.
A piece starting at row a builds the chunk's generator and advances it by
a*N outputs (PCG64 jumps ahead in O(log a*N) steps).  random() turns one
64-bit output into one double, so the piece reads exactly rows a, a + 1, ...
of the chunk's row-major stream, and the pieces' counts add up to the
chunk's whatever the number of workers.  The pieces overlap where numpy releases the interpreter
lock: the fill of the uniforms and the passes over whole blocks.

The kernel reads each piece in row blocks, so its memory is bounded per
worker, not per chunk.  A worker's block holds BLOCK // workers uniforms, so
that the workers together hold about BLOCK, but at least MIN_ROWS rows as
long as they fit in MAX_BLOCK uniforms: at most MAX_BLOCK uniforms (1 MiB)
a worker, or one row in all if N is larger, with temporaries of a few times
that.  The row floor keeps the screen's arrays, about K*p*N uniforms a row,
long enough for their passes to run outside the lock.

The kernel counts on the loop's own float thresholds, so every draw equals
epsilon_sequence's, but it works only on the uniforms that can end a row's
avalanche: at a screen width K, the about K*p*N uniforms of a row that lie
within K*p of 1.  K starts at FIRST_WIDTH and grows fourfold for the rows
whose avalanche runs past it; once K*p passes SCREEN_CUT (or K reaches N)
the rows left are counted over all their uniforms.  A row thus costs one
compare per uniform at each width it passes, on top of the fill of its
uniforms.  numpy and concurrent.futures are imported on the first call that
draws, not with the module.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .dist import Params

if TYPE_CHECKING:
    import numpy as np

CHUNK = 1 << 16
# The row blocks of _draw_chunk (see the module doc).  Twelve passes over the
# four benchmark points (N = 10 to 1000) in one process on a 2-vCPU VM, median
# pass, three processes each: one thread reading BLOCK uniforms a block took
# 1.23-1.27 s and peaked at 38.7-38.8 MB RSS; MIN_ROWS = 1024 took 0.72-0.77 s
# at 41.3-43.7 MB, and 512 0.78-0.81 s at 40.4-40.5 MB.  Without the floor
# two workers were slower than one thread (1.03-1.05 s against 0.77-1.10 s in
# an earlier set of runs): a block then holds 327 rows at N = 100 and 32 at
# N = 1000, too few for the pieces to overlap.  MAX_BLOCK = 2^18 took
# 0.67-0.75 s at 42.2-42.3 MB in process, but raised the benchmark's sampler
# peak by 9-16%.
BLOCK = 1 << 16
MIN_ROWS = 1024
MAX_BLOCK = 1 << 17
# _draw_chunk screens rows first at width K = FIRST_WIDTH, then at 4K, while
# K*p, the share of uniforms a screen keeps, is at most SCREEN_CUT.  Best of 7
# in process on a 2-vCPU VM, against these values: a first width of 16 slowed
# N = 100, alpha = 0.5 by 21% and one of 4 slowed N = 10^4, alpha = 0.9 by
# 10%; screening up to K*p = 1 slowed N = 10, alpha = 0.8 (K*p = 0.64) by 26%,
# where selecting the uniforms costs more than it saves.
FIRST_WIDTH = 8
SCREEN_CUT = 0.25


def _workers() -> int:
    """Threads that draw a chunk's pieces: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    # least x >= 1 with F(x) < x, where F(x) = x - 1, so S = x - 1.  g = N + 1
    # stands for "no j <= N"; F(N + 1) = N < N + 1 then ends every row.
    # g is guessed as ceil((1 - u)/p - 1/2 - 2^-54/p).  Near 1, u and t_j
    # lie on the 2^-53 grid, so u >= t_j where p*j passes 1 - u - 2^-54,
    # even if p is below one grid step and several j share one t_j; further
    # down the grid is finer and p > 1/(2N).  The other rounding errors are
    # a few 2^-53 relative, far below half a step, so the guess is g or
    # g - 1, and one check u < t_g (the loop's own comparison) lifts it
    # where needed.
    # The screen: float multiplication and subtraction are monotone, so t is
    # non-increasing, and u >= t_K holds exactly when g(u) <= K (if g <= K,
    # u >= t_g >= t_K; if u >= t_K, the least j with u >= t_j is at most K).
    # F(x) for x <= K counts only uniforms with g <= K, so the uniforms with
    # u >= t_K give it exactly, whatever the others are.  Only those get a
    # guess, which is at most g <= K, so the clip to [1, K] and the lift keep
    # it in range, and a histogram over K + 1 cells per row.  The least x <= K
    # with F(x) < x, if any, is the row's stop: S = x - 1.  A row with none
    # stops past K, so S >= K, and is screened again at 4K; each screen
    # decides the rows it can and passes on the rest.  K grows until K*p
    # passes SCREEN_CUT or K reaches N, after at most log4(N) screens, and the
    # rows left then take the unscreened histogram over N + 2 cells, in which
    # F(N + 1) = N decides every row.  That path first drops the rows with
    # no uniform in [t_1, 1), which have F(1) = 0 and S = 0.
    import numpy as np

    N = params.N
    p = float(params.p)
    t = 1.0 - p * np.arange(N + 1)
    shift = 0.5 + 2.0**-54 / p

    def first_passage(u, K):
        x = 1.0 - u
        x /= p
        x -= shift
        np.ceil(x, out=x)
        g = np.clip(x, 1, K, out=x).astype(np.intp)
        g += u < t.take(g)
        return g

    def below(g, r, width):  # F(x) < x for x = 1 .. width - 1, per row
        F = np.bincount(g.ravel(), minlength=r * width).reshape(r, width)
        np.cumsum(F, axis=1, out=F)
        return F[:, 1:] < np.arange(1, width)

    rows = max(1, min(max(BLOCK // _workers(), MIN_ROWS * N), MAX_BLOCK) // N)
    s = np.zeros(m, dtype=np.int64)
    for start in range(0, m, rows):
        u = rng.random((min(rows, m - start), N))
        live = np.arange(start, start + len(u))
        K = FIRST_WIDTH
        while len(live) and K < N and K * p <= SCREEN_CUT:
            i = np.flatnonzero(u >= t[K])
            g = first_passage(u.ravel()[i], K)
            g += i // N * (K + 1)
            b = below(g, len(u), K + 1)
            done = b.any(axis=1)
            s[live[done]] = b[done].argmax(axis=1)
            live = live[~done]
            u = u[~done]
            K *= 4
        if len(live):
            hit = np.flatnonzero(u.max(axis=1) >= t[1])
            r = len(hit)
            g = first_passage(u[hit], N)
            g += np.arange(0, r * (N + 2), N + 2)[:, None]
            s[live[hit]] = below(g, r, N + 2).argmax(axis=1)
    return s


def monte_carlo(params: Params, M: int, seed: int) -> SampleStats:
    """M seeded draws, chunked per the documented substream rule.

    Each chunk is drawn in pieces on a thread pool, closed before this
    returns.  Counts merge by addition, so the result is independent of how
    the chunks are split and scheduled; the summary floats are computed once
    from the merged exact counts.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    N = params.N
    workers = _workers() if N <= MAX_BLOCK else 1

    def piece(k, lo, hi):  # rows lo .. hi - 1 of chunk k
        rng = substream(seed, k)
        rng.bit_generator.advance(lo * N)
        return np.bincount(_draw_chunk(params, rng, hi - lo), minlength=N + 1)

    counts = np.zeros(N + 1, dtype=np.int64)
    with ThreadPoolExecutor(workers) as pool:
        for k, start in enumerate(range(0, M, CHUNK)):
            m = min(CHUNK, M - start)
            cuts = [*range(0, m, -(-m // workers)), m]
            counts += sum(pool.map(piece, repeat(k), cuts[:-1], cuts[1:]))
    seen = np.flatnonzero(counts)
    pmf = dict(zip(seen.tolist(), counts[seen].tolist()))
    # Python ints: an int64 sum of b*b*count would wrap past ~9.2e18.
    total = sum(b * c for b, c in pmf.items())
    total_sq = sum(b * b * c for b, c in pmf.items())
    mean = total / M
    variance = total_sq / M - mean * mean
    stderr = math.sqrt(max(variance, 0.0) / M)
    return SampleStats(M, seed, mean, variance, pmf, stderr)
