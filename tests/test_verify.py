"""The sampler suite's chi-square gate: its closed-form tail against an
mpmath oracle, and its draws of the Monte Carlo stream."""

import collections
import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeliand import dist, sampler, verify
from abeliand.dist import Params
from abeliand.verify import _chi2_sf

# Stated accuracy of the tail: relative error below TAIL_RTOL wherever the
# tail exceeds TAIL_FLOOR, for k <= 60 and x <= 400.  The worst case seen is
# about 2e-14, at k = 1 and x near 400, where erfc's argument carries the
# rounding of sqrt(x/2).
TAIL_RTOL = 1e-13
TAIL_FLOOR = 1e-300

GATE = 1e-4  # suite_sampler rejects a point whose p-value is below this


def _oracle_sf(x: float, k: int):
    """P(chi2_k >= x) = Q(k/2, x/2) at 50 digits, from the float x itself."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, regularized=True)


@settings(max_examples=400, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=60),
    log_x=st.floats(min_value=math.log(1e-6), max_value=math.log(400.0)),
)
def test_chi2_tail_matches_mpmath(k, log_x):
    x = math.exp(log_x)
    want = _oracle_sf(x, k)
    got = _chi2_sf(x, k)
    if want > TAIL_FLOOR:
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(got) - want) <= TAIL_RTOL * want, (k, x, got)


def test_chi2_tail_edges():
    assert _chi2_sf(0.0, 1) == 1.0
    assert _chi2_sf(0.0, 10) == 1.0
    assert _chi2_sf(1e6, 3) == 0.0
    assert _chi2_sf(2.0, 2) == math.exp(-1.0)


def _ulps_from(x: float, n: int) -> float:
    towards = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, towards)
    return x


def test_chi2_gate_decides_like_the_oracle_at_its_quantile():
    # The suite's degrees of freedom are N = 3, 5, 10.  Statistics 2..8 ulps
    # either side of the GATE quantile must fall on the oracle's side.
    for k in (3, 5, 10):
        with mpmath.workdps(50):
            quantile = float(
                mpmath.findroot(lambda x: _oracle_sf(x, k) - mpmath.mpf(GATE), 4.0 * k)
            )
        for n in (*range(-8, -1), *range(2, 9)):
            x = _ulps_from(quantile, n)
            passes = _chi2_sf(x, k) >= GATE
            assert passes == (_oracle_sf(x, k) >= GATE), (k, n)
            assert passes == (n < 0), (k, n)  # x really straddles the quantile


def _skew_n3(monkeypatch):
    """Make the N=3 point move 1% of its draws from b=1 to b=0 and b=2.

    The mean and the other points are untouched, so of the sampler suite's
    checks only the chi-square one at N=3 can notice.
    """
    draw = sampler.monte_carlo

    def skewed(params, M, seed):
        stats = draw(params, M, seed)
        if params.N != 3:
            return stats
        pmf = dict(stats.empirical_pmf)
        moved = M // 100
        pmf[1] -= 2 * moved
        pmf[0] += moved
        pmf[2] += moved
        return dataclasses.replace(stats, empirical_pmf=pmf)

    monkeypatch.setattr(sampler, "monte_carlo", skewed)


def _chi2_failures(result, N):
    return [f for f in result.failures if f.startswith(f"chi-square rejects at N={N},")]


def test_jdecomp_suite_counts_a_raised_identity_as_one_failed_check(monkeypatch):
    def broken(params):
        raise ArithmeticError(f"J2 != J3 + J4 at N={params.N}")

    monkeypatch.setattr(verify.dist, "j_decomposition", broken)
    r = verify.suite_jdecomp(3)
    assert r.checks == len(r.failures) == 2 * len(verify.ALPHA_GRID)
    assert r.failures[0] == "J2 != J3 + J4 at N=2"


def test_chi2_gate_rejects_skewed_counts(monkeypatch):
    (clean,) = verify.run_suites(["sampler"], samples=200_000, seed=7)
    assert clean.ok, clean.failures
    _skew_n3(monkeypatch)
    (skewed,) = verify.run_suites(["sampler"], samples=200_000, seed=7)
    assert skewed.checks == clean.checks == 10
    assert _chi2_failures(skewed, 3), skewed.failures
    assert skewed.failures == _chi2_failures(skewed, 3)


@pytest.mark.parametrize("seed", range(1, 6))
def test_sampler_suite_passes_at_few_draws(seed):
    # TV reads 0.0054-0.0073 here, over the 0.005 that fits 10^6 draws.
    (result,) = verify.run_suites(["sampler"], samples=20_000, seed=seed)
    assert result.ok, result.failures


def test_sampler_suite_draws_each_point_once(monkeypatch):
    draw = sampler.monte_carlo
    calls = []

    def counted(params, M, seed):
        calls.append((params.N, float(params.p), M, seed))
        return draw(params, M, seed)

    monkeypatch.setattr(sampler, "monte_carlo", counted)
    (result,) = verify.run_suites(["sampler"], samples=20_000, seed=3)
    assert result.checks == 10
    assert len(calls) == 5
    repeated = {key: n for key, n in collections.Counter(calls).items() if n > 1}
    # Only the determinism check draws twice, at N=4 on purpose.
    assert repeated == {(4, 0.2, 2000, 3): 2}


def _mean_failures(result):
    return [f for f in result.failures if f.startswith("empirical mean off by")]


def test_sampler_mean_checks_pass_at_one_draw():
    # Each mean check's standard error comes from the exact variance: the
    # empirical one is 0 at one draw, where it would fail 4 of 10 checks.
    for seed in range(20):
        (result,) = verify.run_suites(["sampler"], samples=1, seed=seed)
        assert not _mean_failures(result), (seed, result.failures)


def test_sampler_mean_checks_catch_a_shifted_sampler(monkeypatch):
    draw = sampler.monte_carlo

    def shifted(params, M, seed):
        stats = draw(params, M, seed)
        pmf = {b + 1: c for b, c in stats.empirical_pmf.items()}
        return dataclasses.replace(stats, empirical_mean=stats.empirical_mean + 1, empirical_pmf=pmf)

    monkeypatch.setattr(sampler, "monte_carlo", shifted)
    (result,) = verify.run_suites(["sampler"], samples=10_000, seed=1)
    assert len(_mean_failures(result)) == 4, result.failures


def _counted_tables(monkeypatch):
    """Record the (family, params) of every exact table verify's suites build."""
    build = dist.pmf_table
    calls = []

    def counted(family, params):
        if params.is_exact:
            calls.append((family, params))
        return build(family, params)

    monkeypatch.setattr(verify.dist, "pmf_table", counted)
    return calls


def test_one_run_builds_each_exact_table_once(monkeypatch):
    calls = _counted_tables(monkeypatch)
    results = verify.run_suites(["pmf", "moments", "shift", "jdecomp"], max_n=8)
    assert all(r.ok for r in results), [r.failures for r in results]
    sources = [dist.exact_source(family, params) for family, params in calls]
    assert len(set(sources)) == len(sources)
    grid = [Params.exact(N, alpha=alpha) for N in range(1, 9) for alpha in verify.ALPHA_GRID]
    shift = [Params.exact(N, p=alpha / (N + 1)) for N in range(1, 9) for alpha in verify.ALPHA_GRID]
    wanted = {dist.exact_source(f, params) for params in grid for f in dist.FAMILIES}
    wanted |= {dist.exact_source("shifted", params) for params in shift}
    assert set(sources) == wanted
    # the pmf suite asks for shifted after avalanche at every grid point: it
    # reads avalanche's table, one generator input
    built = {(family, params) for family, params in calls}
    assert {("avalanche", params) for params in grid} <= built
    assert not {("shifted", params) for params in grid} & built


def test_each_run_builds_its_own_tables(monkeypatch):
    (clean,) = verify.run_suites(["pmf"], max_n=3)
    assert clean.ok, clean.failures
    build = dist.pmf_table

    def doubled_first_entry(family, params):
        table = build(family, params)
        if not params.is_exact:
            return table
        probs = (2 * table.probs_exact[0],) + table.probs_exact[1:]
        return dist.PmfTable(family, params, table.support, probs, None)

    monkeypatch.setattr(verify.dist, "pmf_table", doubled_first_entry)
    (broken,) = verify.run_suites(["pmf"], max_n=3)
    assert broken.checks == clean.checks
    assert len(broken.failures) == 3 * 3 * len(verify.ALPHA_GRID)
    assert all(" pmf sum != 1 at " in f for f in broken.failures)
