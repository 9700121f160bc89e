import hashlib
import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import stream_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from abeliand import sampler
from abeliand.dist import Params, avalanche_mean, pmf_table, rounded_avalanche_mean
from abeliand.sampler import (
    CHUNK,
    epsilon_sequence,
    monte_carlo,
    substream,
)
from abeliand.verify import _chi2_sf


def test_hand_trace_three_steps():
    trace = epsilon_sequence(Params.stable(3, p=0.2), [0.95, 0.85, 0.5])
    assert trace.epsilons == (2, 1, 0)
    assert trace.S == 3


def test_hand_trace_single_uniform():
    trace = epsilon_sequence(Params.stable(1, p=0.3), [0.5])
    assert trace.epsilons == (0,)
    assert trace.S == 0


def test_hand_trace_two_steps():
    trace = epsilon_sequence(Params.stable(2, p=0.25), [0.80, 0.10])
    assert trace.epsilons == (1, 0)
    assert trace.S == 1


def test_trace_rejects_bad_uniforms():
    params = Params.stable(2, p=0.25)
    with pytest.raises(ValueError):
        epsilon_sequence(params, [0.5])
    with pytest.raises(ValueError):
        epsilon_sequence(params, [0.5, 1.0])
    with pytest.raises(ValueError):
        epsilon_sequence(params, [-0.1, 0.5])


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_trace_invariants_random_batches(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        params = Params.stable(n, alpha=float(rng.uniform(0.05, 0.95)))
        us = rng.random(n).tolist()
        trace = epsilon_sequence(params, us)
        assert trace.S == sum(trace.epsilons)
        assert 0 <= trace.S <= n
        # absorbing zero
        if 0 in trace.epsilons:
            first = trace.epsilons.index(0)
            assert all(e == 0 for e in trace.epsilons[first:])
        # consecutive intervals share endpoints so they are disjoint; each
        # uniform in the union must be counted exactly once overall
        p = float(params.p)
        cums = [1]
        for e in trace.epsilons:
            cums.append(cums[-1] + e)
        bounds = [1.0] + [1.0 - p * c for c in cums]
        intervals = list(zip(bounds[1 : n + 1], bounds[:n]))
        hits = sum(1 for u in us if any(lo <= u < hi for lo, hi in intervals))
        assert hits == trace.S


def test_monte_carlo_single_draw():
    stats = monte_carlo(Params.stable(5, p=0.1), 1, 42)
    assert stats.M == 1
    assert len(stats.empirical_pmf) == 1
    assert sum(stats.empirical_pmf.values()) == 1


def test_monte_carlo_deterministic_and_exact_counts():
    params = Params.stable(4, p=0.2)
    a = monte_carlo(params, 5000, 31)
    b = monte_carlo(params, 5000, 31)
    assert a == b
    assert sum(a.empirical_pmf.values()) == a.M
    assert set(a.empirical_pmf) <= set(range(5))
    c = monte_carlo(params, 5000, 32)
    assert c != a  # different stream


def test_chunked_path_matches_reference_trace():
    # pins the documented substream rule: chunk 0 reads its M*N uniforms in
    # row-major order from PCG64 seeded with SeedSequence(seed, spawn_key=(0,))
    params = Params.stable(6, p=0.11)
    M, seed = 400, 2024
    stats = monte_carlo(params, M, seed)
    u = substream(seed, 0).random((M, params.N))
    expected = {}
    for row in u:
        s = epsilon_sequence(params, row.tolist()).S
        expected[s] = expected.get(s, 0) + 1
    assert stats.empirical_pmf == expected


def test_chunk_boundary_straddling():
    params = Params.stable(3, p=0.2)
    m = CHUNK + 77
    stats = monte_carlo(params, m, 5)
    assert sum(stats.empirical_pmf.values()) == m
    again = monte_carlo(params, m, 5)
    assert stats == again


def test_stats_definitions():
    stats = monte_carlo(Params.stable(3, p=0.25), 20000, 11)
    mean = sum(b * c for b, c in stats.empirical_pmf.items()) / stats.M
    var = sum(b * b * c for b, c in stats.empirical_pmf.items()) / stats.M - mean**2
    assert stats.empirical_mean == pytest.approx(mean, abs=0)
    assert stats.empirical_variance == pytest.approx(var, rel=1e-12)
    assert stats.stderr_mean == pytest.approx(math.sqrt(var / stats.M), rel=1e-12)


def test_empirical_mean_near_lemma_value():
    # N=1 is a single threshold draw: S = 1 exactly when u >= 1 - p
    for N, p, mean in ((2, Fraction(1, 4), 0.625), (1, Fraction(3, 10), 0.3)):
        stats = monte_carlo(Params.stable(N, p=float(p)), 200_000, 42)
        assert set(stats.empirical_pmf) <= set(range(N + 1))
        assert abs(stats.empirical_mean - mean) <= 4 * stats.stderr_mean
        assert float(avalanche_mean(Params.exact(N, p=p))) == mean


def test_distribution_close_to_exact_table():
    exact = Params.exact(5, alpha=Fraction(1, 2))
    table = pmf_table("avalanche", exact)
    stats = monte_carlo(Params.stable(5, alpha=0.5), 200_000, 42)
    tv = 0.5 * sum(
        abs(stats.empirical_pmf.get(b, 0) / stats.M - float(q))
        for b, q in zip(table.support, table.probs_exact)
    )
    assert tv < 0.01


def _pooled_chi2(counts, probs, M):
    """Chi-square statistic and cells, with support points pooled in order
    until each cell expects at least 5 draws; a short last cell joins the one
    before it."""
    cells = []  # [observed, expected]
    for b, q in enumerate(probs):
        if not cells or cells[-1][1] >= 5:
            cells.append([0, 0.0])
        cells[-1][0] += counts.get(b, 0)
        cells[-1][1] += M * q
    if len(cells) > 1 and cells[-1][1] < 5:
        observed, expected = cells.pop()
        cells[-1][0] += observed
        cells[-1][1] += expected
    scale = M / math.fsum(e for _, e in cells)
    chi2 = math.fsum((o - e * scale) ** 2 / (e * scale) for o, e in cells)
    return chi2, len(cells)


@pytest.mark.parametrize("N, alpha", [(100, 0.99), (1000, 0.9)])
def test_law_matches_float_table(N, alpha):
    """The kernel's law at the benchmark's sampler points, seed 42: a pooled
    chi-square against the float Avalanche table, and the mean against the
    exact mean at the same float p.  A law-level test holds any kernel that
    draws from the Avalanche law, whatever stream it reads."""
    params = Params.stable(N, alpha=alpha)
    stats = monte_carlo(params, CHUNK, 42)
    table = pmf_table("avalanche", params)
    chi2, cells = _pooled_chi2(stats.empirical_pmf, table.probs_float, stats.M)
    pvalue = _chi2_sf(chi2, cells - 1)
    assert pvalue >= 1e-4, (chi2, cells)
    exact_mean = rounded_avalanche_mean(Params.exact(N, p=Fraction(params.p)))
    assert abs(stats.empirical_mean - exact_mean) <= 4 * stats.stderr_mean


def test_monte_carlo_rejects_bad_args():
    params = Params.stable(3, p=0.2)
    with pytest.raises(ValueError):
        monte_carlo(params, 0, 42)
    with pytest.raises(ValueError):
        substream(-1, 0)


# sha256 of the monte_carlo count vector (comma-joined counts for b = 0..N)
# for a fixed table of (N, alpha, M, seed): pins the stream contract, so a
# kernel rewrite has to reproduce every draw bit for bit.  Checked with numpy
# 2.4.6; tests/stream_reference.py replays the uniforms without numpy.
STREAM_DIGESTS = [
    (1, 0.3, 20_000, 1, "dc26688c49a4244728b0c54dd00fd0948e5b4653500deace30c76f675495f124"),
    (2, 0.5, 20_000, 2, "36399ae9d088c7a7195eb23a289aa819886f177b90b04a9764a2bb41f68d35af"),
    (3, 0.6, CHUNK + 77, 5, "575564c9725e33fe32a829546062fa8e86418f67196b93adcc1f314ba11e5324"),
    (20, 1e-7, 20_000, 3, "dc54fad7daabface143a565bf5008d632fdce160e00541b656eabce34068600d"),
    (20, 0.999999, 20_000, 4, "ecce84639584a603838186b3c0a4f0f03a076e3b466a690178d5ea2f4a79d69c"),
    (100, 0.99, 4096, 7, "c62402bb22b7da074f8b4ca7cb739e943685d14a1123b84e46245ee12aadbb29"),
    (1000, 0.9, 2048, 42, "41dfd4ef64860e685108bf34af63175ae1daffce1a9ddf29db9f1772fca09731"),
]


def _count_digest(N, alpha, M, seed):
    stats = monte_carlo(Params.stable(N, alpha=alpha), M, seed)
    counts = ",".join(str(stats.empirical_pmf.get(b, 0)) for b in range(N + 1))
    return hashlib.sha256(counts.encode()).hexdigest()


@pytest.mark.parametrize("N, alpha, M, seed, digest", STREAM_DIGESTS)
def test_count_vector_digests(N, alpha, M, seed, digest):
    assert _count_digest(N, alpha, M, seed) == digest


@pytest.fixture
def fast_switching():
    """A short interpreter switch interval, so threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_pieces_do_not_change_the_draws(monkeypatch, fast_switching):
    """One, three and eight workers (more than the cores) split each chunk
    differently and must give the same counts."""
    threads = threading.active_count()
    params = Params.stable(50, alpha=0.9)
    results = []
    for workers in (1, 3, 8):
        monkeypatch.setattr(sampler, "_workers", lambda: workers)
        results.append([monte_carlo(params, M, 9) for M in (1, 2, CHUNK + 77, 2 * CHUNK)])
        for *row, digest in STREAM_DIGESTS:
            assert _count_digest(*row) == digest, (workers, row)
        # the pool's threads are joined before monte_carlo returns
        assert threading.active_count() == threads
    assert results[0] == results[1] == results[2]


def test_rows_longer_than_max_block_take_one_worker(monkeypatch):
    """Past MAX_BLOCK uniforms a row, each chunk is one piece on one worker,
    so the run holds one row, not one per CPU; the draws do not change.
    About 1 s: at 64 uniforms a block the digest rows are read a row or a
    few at a time."""
    monkeypatch.setattr(sampler, "_workers", lambda: 8)
    monkeypatch.setattr(sampler, "MAX_BLOCK", 64)
    calls = []
    draw_chunk = sampler._draw_chunk

    def counting(params, rng, m):
        calls.append(m)
        return draw_chunk(params, rng, m)

    monkeypatch.setattr(sampler, "_draw_chunk", counting)
    monte_carlo(Params.stable(100, alpha=0.9), 1000, 3)
    assert calls == [1000]
    calls.clear()
    monte_carlo(Params.stable(50, alpha=0.9), 1000, 3)  # rows within MAX_BLOCK
    assert calls == [125] * 8
    for *row, digest in STREAM_DIGESTS:
        assert _count_digest(*row) == digest, row


class _RowFeed:
    """Stub generator: hands out crafted rows, records each request size."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.used = 0
        self.sizes = []

    def random(self, shape):
        r, n = shape
        self.sizes.append(r * n)
        out = self.rows[self.used : self.used + r]
        self.used += r
        assert out.shape == (r, n)
        return out.copy()


def _edge_rows(params, count, seed):
    """Rows built from the loop's thresholds, their float neighbours and 0."""
    N = params.N
    t = 1.0 - float(params.p) * np.arange(N + 2)
    pool = np.concatenate([t, np.nextafter(t, 2.0), np.nextafter(t, -1.0), [0.0]])
    pool = np.unique(pool[(pool >= 0.0) & (pool < 1.0)])
    rng = np.random.default_rng(seed)
    rows = [t[1 : N + 1], np.nextafter(t[1 : N + 1], -1.0), np.nextafter(t[1 : N + 1], 2.0)]
    rows += [rng.choice(pool, N) for _ in range(count)]
    return [np.clip(row, 0.0, np.nextafter(1.0, 0.0)) for row in rows]


@pytest.mark.parametrize(
    "N, p",
    [
        (1, 0.3),
        (2, 0.45),
        (7, 0.11),
        (7, 6e-17),  # thresholds closer than their rounding error
        (30, 3e-16),
        (7, 2.0**-40),
        (40, 0.999999 / 40),
        (40, 1e-7 / 40),
        (200, 0.9 / 200),
        # rows that pass the first screen width, widen and cross the K*p cut;
        # the exact-threshold rows have S = N and widen all the way
        (300, 0.999999 / 300),
        (1000, 0.9 / 1000),
        (1000, 0.3 / 1000),
        # p between half a grid step and one (the floats below 1 are 2^-53
        # apart): thresholds closer than one step, several t_j on one float
        *[(N, m * 2.0**-54) for m in (1.01, 1.25, 1.5, 1.75, 1.99) for N in (2, 7, 30, 64, 200)],
    ],
)
def test_draw_chunk_on_threshold_edges(monkeypatch, N, p):
    monkeypatch.setattr(sampler, "MAX_BLOCK", 64)
    params = Params.stable(N, p=p)
    rows = _edge_rows(params, 150, seed=N)
    feed = _RowFeed(rows)
    s = sampler._draw_chunk(params, feed, len(rows))
    assert s.tolist() == [epsilon_sequence(params, row).S for row in rows]
    assert feed.used == len(rows)
    # the memory bound: no request exceeds MAX_BLOCK (one row if N is larger)
    assert max(feed.sizes) <= max(sampler.MAX_BLOCK, N)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 60),
    log_alpha=st.floats(math.log(1e-7), math.log(0.999999)),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 300),
)
def test_draw_chunk_matches_reference_trace(N, log_alpha, seed, m):
    params = Params.stable(N, alpha=min(math.exp(log_alpha), 0.999999))
    # 64-uniform blocks: every example reads its chunk in several blocks,
    # which must join up into the one (m, N) row-major read below
    with mock.patch.object(sampler, "MAX_BLOCK", 64):
        s = sampler._draw_chunk(params, substream(seed, 0), m)
    rows = substream(seed, 0).random((m, N))
    assert s.tolist() == [epsilon_sequence(params, row).S for row in rows]


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(61, 400),
    log_gap=st.floats(math.log(1e-6), math.log(0.99)),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
)
def test_screened_draw_chunk_matches_reference_trace(N, log_gap, seed, m):
    """Rows long enough to widen the screen, with alpha up to 1 - 1e-6,
    where rows pass several widths; the default BLOCK, so each block holds
    whole rows."""
    params = Params.stable(N, alpha=1.0 - math.exp(log_gap))
    s = sampler._draw_chunk(params, substream(seed, 0), m)
    rows = substream(seed, 0).random((m, N))
    assert s.tolist() == [epsilon_sequence(params, row).S for row in rows]


def test_moment_sums_do_not_wrap(monkeypatch):
    # every draw at b = N = 2^22 over M = 2^19 draws: sum b^2 * count is
    # 2^63, one past the int64 range
    N, M = 1 << 22, 1 << 19
    monkeypatch.setattr(sampler, "_draw_chunk", lambda params, rng, m: np.full(m, N))
    stats = monte_carlo(Params.stable(N, alpha=0.5), M, 0)
    assert stats.empirical_pmf == {N: M}
    assert stats.empirical_mean == N
    assert stats.empirical_variance == 0.0


@pytest.mark.parametrize("seed, k", [(0, 0), (42, 0), (2024, 3), (2**70 + 12345, 7), (123456789, 2**40 + 5)])
def test_substream_matches_stream_reference(seed, k):
    assert substream(seed, k).random(1000).tolist() == stream_reference.substream(seed, k).random(1000)


def test_stream_reference_replays_a_pinned_count_vector():
    # the STREAM_DIGESTS row for N = 2, drawn with no numpy in the stream
    N, alpha, M, seed, digest = STREAM_DIGESTS[1]
    params = Params.stable(N, alpha=alpha)
    us = stream_reference.substream(seed, 0).random(M * N)
    counts = [0] * (N + 1)
    for i in range(0, M * N, N):
        counts[epsilon_sequence(params, us[i : i + N]).S] += 1
    assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest


@pytest.mark.parametrize("delta", [0, 1, 2**32 + 3, 65535 * 10**6])
@pytest.mark.parametrize("seed, k", [(42, 0), (2024, 3)])
def test_advance_matches_stream_reference(seed, k, delta):
    # 65535 * 10^6: the offset of a chunk's last row at N = 10^6
    rng = substream(seed, k)
    rng.bit_generator.advance(delta)
    ref = stream_reference.substream(seed, k)
    ref.advance(delta)
    assert rng.random(1000).tolist() == ref.random(1000)


@pytest.mark.parametrize("N, m, a", [(1, 100, 37), (7, 1000, 999), (13, 500, 0), (1000, 300, 150)])
def test_advanced_rows_match_the_whole_chunk_read(N, m, a):
    # one 64-bit output per double: rows a .. m - 1 of a chunk start a*N
    # outputs into its stream
    rng = substream(5, 2)
    rng.bit_generator.advance(a * N)
    assert np.array_equal(rng.random((m - a, N)), substream(5, 2).random((m, N))[a:])
