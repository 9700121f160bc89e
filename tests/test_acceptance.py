"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Exact criteria assert rational equality (tolerance zero); float
criteria assert the stated tolerances; timed criteria assert their stated
budgets.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from abeliand import dist, sampler, verify
from abeliand.dist import Params
from abeliand.stirling import (
    check_bound_f,
    check_lemma_P,
    check_product_bound,
    falling_factorial,
    stirling_row,
    unsigned_stirling,
    unsigned_stirling_subset_oracle,
)

ALPHAS = [Fraction(k, 10) for k in range(1, 10)]
SWEEP_N = range(2, 26)
RECORDED_SEED = 42


@contextmanager
def report(line):
    try:
        yield
    except Exception:
        print(f"FAIL {line}")
        raise
    print(f"PASS {line}")


def test_criterion_1_second_moment_identity():
    with report("criterion 1: exact second-moment identity on the N<=25 sweep"):
        t0 = time.perf_counter()
        for N in SWEEP_N:
            for alpha in ALPHAS:
                params = Params.exact(N, alpha=alpha)
                assert dist.abelian_second_moment(params) == dist.brute_force_moment(
                    "abelian", params, 2
                )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_normalization():
    with report("criterion 2: exact and float PMF normalization"):
        for N in SWEEP_N:
            for alpha in ALPHAS:
                params = Params.exact(N, alpha=alpha)
                for family in dist.FAMILIES:
                    assert sum(dist.pmf_table(family, params).probs_exact) == 1
        for N, tol in ((10**3, 1e-10), (10**5, 1e-8)):
            params = Params.stable(N, alpha=0.5)
            for family in dist.FAMILIES:
                table = dist.pmf_table(family, params)
                assert abs(math.fsum(table.probs_float) - 1.0) < tol


def test_criterion_3_mean_formulas():
    with report("criterion 3: mean formulas match brute force on the sweep"):
        for N in SWEEP_N:
            for alpha in ALPHAS:
                params = Params.exact(N, alpha=alpha)
                assert dist.abelian_mean(params) == dist.brute_force_moment(
                    "abelian", params, 1
                )
                assert dist.avalanche_mean(params) == dist.brute_force_moment(
                    "avalanche", params, 1
                )


def test_criterion_4_j_decomposition():
    with report("criterion 4: J-decomposition identities, exact, N<=20"):
        for N in range(2, 21):
            for alpha in ALPHAS:
                params = Params.exact(N, alpha=alpha)
                jd = dist.j_decomposition(params)
                assert jd.J2 == jd.J3 + jd.J4
                assert jd.J4 == jd.J5 + jd.J6
                assert jd.C * (jd.J1 - jd.J2) == dist.brute_force_moment(
                    "abelian", params, 2
                )


def test_criterion_5_variance_limit():
    with report("criterion 5: variance approaches alpha/(1-alpha)^3"):
        t0 = time.perf_counter()
        for alpha in (0.3, 0.5, 0.7):
            rows = dist.convergence_table(alpha, [100, 1000, 10000])
            errs = [row.abs_error for row in rows]
            assert errs[0] > errs[1] > errs[2], f"not decreasing at alpha={alpha}"
            if alpha == 0.5:
                assert errs[-1] < 0.05
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"tables took {elapsed:.1f}s"


def test_criterion_6_stirling_suites():
    with report("criterion 6: Stirling oracle and row identities"):
        for i in range(1, 13):
            for j in range(1, i + 1):
                assert unsigned_stirling_subset_oracle(i, j) == unsigned_stirling(i, j)
        for i in range(61):
            coeffs = stirling_row(i).coeffs
            assert coeffs[i] == 1
            if i >= 1:
                assert coeffs[i - 1] == -i * (i + 1) // 2
            for x in range(1, 11):
                unsigned_sum = sum(abs(c) * x**j for j, c in enumerate(coeffs))
                assert unsigned_sum == falling_factorial(x + i, i)


def test_criterion_7_lemma_bounds():
    with report("criterion 7: f-bound, P/h decomposition, product bound"):
        for i in range(41):
            for j in range(i + 1):
                assert check_bound_f(i, j).holds
        for N in range(4, 41):
            for i in range(1, N - 2):
                cert = check_lemma_P(i, N)
                assert cert.equality_holds
                if cert.strong_gate:
                    assert cert.inequalities_hold
        for N in range(1, 201):
            for i in range(math.isqrt(2 * N - 1) + 1):
                assert check_product_bound(i, N).holds


def test_criterion_8_sampler_fidelity():
    with report("criterion 8: 1e6-draw sampler fidelity at N=10, p=0.08"):
        t0 = time.perf_counter()
        exact = Params.exact(10, p=Fraction("0.08"))
        stats = sampler.monte_carlo(Params.stable(10, p=0.08), 10**6, RECORDED_SEED)
        table = dist.pmf_table("avalanche", exact)
        tv = verify.total_variation(stats.empirical_pmf, stats.M, table)
        assert tv < 0.005, f"TV distance {tv:.5f}"
        gap = abs(stats.empirical_mean - float(dist.avalanche_mean(exact)))
        assert gap <= 4 * stats.stderr_mean
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"sampling took {elapsed:.1f}s"


def _run_cli(*argv):
    # the child imports the same abeliand as this process, installed or not
    src = str(pathlib.Path(dist.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "ABELIAND_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "abeliand", *argv],
        capture_output=True,
        env=env,
        check=False,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_byte_identical_determinism():
    """About 1.7 s: four child processes, two sampling 10^5 draws and two 2*10^5 per sampler point."""
    with report("criterion 9: verify and sample runs are byte-identical"):
        sample_args = ("sample", "--N", "10", "--p", "0.08", "--M", "100000",
                       "--seed", str(RECORDED_SEED))
        code_a, out_a = _run_cli(*sample_args)
        code_b, out_b = _run_cli(*sample_args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert json.loads(out_a)["seed"] == RECORDED_SEED

        verify_args = ("verify", "--suite", "stirling", "--suite", "limit",
                       "--suite", "sampler", "--samples", "200000",
                       "--seed", str(RECORDED_SEED))
        code_a, out_a = _run_cli(*verify_args)
        code_b, out_b = _run_cli(*verify_args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.startswith(b"PASS stirling")
