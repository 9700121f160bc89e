"""Seeded Monte Carlo for the Avalanche family.

A single draw expands N i.i.d. uniforms into a count S through nested
half-open intervals: with eps_0 = 1 and c_k = eps_0 + ... + eps_k, step k
counts the uniforms falling in [1 - p*c_k, 1 - p*c_{k-1}).  Consecutive
intervals share endpoints, so they are pairwise disjoint and each uniform
is counted at most once; once a step counts nothing every later interval
is empty.  S = eps_1 + ... + eps_N is a draw from the Avalanche family.

Stream-derivation rule (the reproducibility contract): a run with seed s is
split into fixed chunks of CHUNK = 65536 draws, and chunk k uses numpy's
PCG64 bit generator seeded with SeedSequence(s, spawn_key=(k,)), drawing
its uniforms as one (m, N) matrix.  Results therefore depend only on
(params, M, seed), regardless of how chunks are scheduled or merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Params

CHUNK = 1 << 16


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
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))


def _draw_chunk(params: Params, rng: np.random.Generator, m: int) -> np.ndarray:
    # Vectorized copy of epsilon_sequence across m draws: same float
    # arithmetic, same half-open comparisons, one (m, N) uniform matrix.
    N = params.N
    p = float(params.p)
    u = rng.random((m, N))
    c_prev = np.zeros(m)
    c_curr = np.ones(m)
    total = np.zeros(m, dtype=np.int64)
    for _ in range(N):
        lo = 1.0 - p * c_curr
        hi = 1.0 - p * c_prev
        e = ((u >= lo[:, None]) & (u < hi[:, None])).sum(axis=1)
        total += e
        c_prev = c_curr
        c_curr = c_curr + e
        if not e.any():
            break
    return total


def monte_carlo(params: Params, M: int, seed: int) -> SampleStats:
    """M seeded draws, chunked per the documented substream rule.

    Counts merge by addition, so the result is independent of chunk
    execution order; the summary floats are computed once from the merged
    exact counts.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
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
    values = np.arange(N + 1, dtype=np.int64)
    total = int((values * counts).sum())
    total_sq = int((values * values * counts).sum())
    mean = total / M
    variance = total_sq / M - mean * mean
    stderr = math.sqrt(max(variance, 0.0) / M)
    pmf = {int(b): int(c) for b, c in enumerate(counts) if c}
    return SampleStats(M, seed, mean, variance, pmf, stderr)
