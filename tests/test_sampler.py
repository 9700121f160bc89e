import math
from fractions import Fraction

import numpy as np
import pytest

from abeliand.dist import Params, avalanche_mean, pmf_table
from abeliand.sampler import (
    CHUNK,
    epsilon_sequence,
    monte_carlo,
    substream,
)


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
    # pins the documented substream rule: chunk 0 draws an (M, N) matrix
    # from PCG64 seeded with SeedSequence(seed, spawn_key=(0,))
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


def test_monte_carlo_rejects_bad_args():
    params = Params.stable(3, p=0.2)
    with pytest.raises(ValueError):
        monte_carlo(params, 0, 42)
    with pytest.raises(ValueError):
        substream(-1, 0)
