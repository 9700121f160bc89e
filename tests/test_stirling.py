import os
import pathlib
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import abeliand
from abeliand.stirling import (
    E2_LOWER,
    bound_f,
    check_bound_f,
    check_lemma_P,
    check_product_bound,
    falling_factorial,
    horner,
    poly_P,
    poly_h,
    stirling_row,
    unsigned_stirling,
    unsigned_stirling_subset_oracle,
)


def test_falling_factorial_basics():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(3, 3) == 6
    assert falling_factorial(3, 4) == 0  # factor (x-3) vanishes
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


@pytest.mark.parametrize(
    "i, coeffs",
    [
        (0, (1,)),
        (1, (-1, 1)),
        (2, (2, -3, 1)),
        (3, (-6, 11, -6, 1)),
        (4, (24, -50, 35, -10, 1)),
    ],
)
def test_stirling_rows(i, coeffs):
    row = stirling_row(i)
    assert row.i == i
    assert row.coeffs == coeffs


@pytest.mark.parametrize("i", range(0, 61))
def test_row_expands_falling_factorial(i):
    # evaluating the row polynomial at integer points pins every coefficient
    coeffs = stirling_row(i).coeffs
    for x in range(i + 2):
        value = sum(c * x**j for j, c in enumerate(coeffs))
        assert value == falling_factorial(x - 1, i)


@pytest.mark.parametrize("i", range(0, 61))
def test_unsigned_rows_expand_rising_side(i):
    coeffs = stirling_row(i).coeffs
    for x in range(1, 11):
        value = sum(abs(c) * x**j for j, c in enumerate(coeffs))
        assert value == falling_factorial(x + i, i)


@pytest.mark.parametrize("i", range(0, 61))
def test_diagonal_and_subdiagonal(i):
    coeffs = stirling_row(i).coeffs
    assert coeffs[i] == 1
    if i >= 1:
        assert coeffs[i - 1] == -i * (i + 1) // 2


def test_unsigned_stirling_values():
    assert unsigned_stirling(2, 1) == 3
    assert unsigned_stirling(4, 1) == 50
    assert all(unsigned_stirling(i, i) == 1 for i in range(30))
    assert all(unsigned_stirling(i, j) >= 0 for i in range(15) for j in range(i + 1))
    with pytest.raises(ValueError):
        unsigned_stirling(3, 4)


def test_subset_oracle_values():
    assert unsigned_stirling_subset_oracle(2, 1) == 3
    assert unsigned_stirling_subset_oracle(3, 3) == 1
    assert unsigned_stirling_subset_oracle(3, 1) == 11


@pytest.mark.parametrize("i", range(1, 13))
def test_subset_oracle_matches_rows(i):
    for j in range(1, i + 1):
        assert unsigned_stirling_subset_oracle(i, j) == unsigned_stirling(i, j)


def test_subset_oracle_rejects_bad_args():
    # the oracle serves any i: only invalid (i, j) are refused
    assert all(unsigned_stirling_subset_oracle(15, j) == unsigned_stirling(15, j) for j in range(1, 16))
    with pytest.raises(ValueError):
        unsigned_stirling_subset_oracle(4, 0)
    with pytest.raises(ValueError):
        unsigned_stirling_subset_oracle(3, 4)


def test_poly_P_values():
    assert poly_P(0) == (2,)
    assert poly_P(1) == (-6, 11)
    assert horner(poly_P(1), 4) == 38
    assert type(horner(poly_P(1), 4)) is int  # integer coefficients at an integer N
    assert len(poly_P(5)) - 1 == 5


def test_poly_h_values():
    assert horner(poly_h(1), 4) == 32
    assert type(horner(poly_h(1), 4)) is int
    assert horner(poly_h(0), 3) == 0  # root at (i+2)(i+3)/2
    assert poly_h(1)[-1] == -1
    assert len(poly_h(4)) - 1 == 6


def test_bound_f_values():
    assert bound_f(0) == 6
    assert bound_f(1) == 22
    assert bound_f(2) == 88
    assert all(bound_f(i) > 0 for i in range(60))


def test_check_lemma_P_small():
    cert = check_lemma_P(1, 4)
    assert cert.p_at_N == 38 and cert.falling_part == 6 and cert.h_part == 32
    assert cert.equality_holds
    assert not cert.strong_gate and cert.inequalities_hold is None
    assert cert.ok


def test_check_lemma_P_gated():
    cert = check_lemma_P(4, 8)
    assert cert.equality_holds and cert.strong_gate and cert.inequalities_hold
    assert cert.p_at_N == 431024
    assert cert.falling_part == 5040 and cert.h_part == 425984


def test_check_lemma_P_rejects_bad_args():
    with pytest.raises(ValueError):
        check_lemma_P(2, 4)  # N - 3 < i
    with pytest.raises(ValueError):
        check_lemma_P(0, 10)


@pytest.mark.parametrize("n", range(4, 41))
def test_lemma_P_sweep(n):
    for i in range(1, n - 2):
        cert = check_lemma_P(i, n)
        assert cert.equality_holds
        if cert.strong_gate:
            assert cert.inequalities_hold


def test_check_bound_f_examples():
    cert = check_bound_f(2, 1)
    assert cert.lhs == 50 and cert.rhs == 264 and cert.holds
    cert = check_bound_f(0, 0)
    assert cert.lhs == 2 and cert.rhs == 6 and cert.holds
    with pytest.raises(ValueError):
        check_bound_f(1, 2)


@pytest.mark.parametrize("i", range(0, 41))
def test_bound_f_sweep(i):
    for j in range(i + 1):
        assert check_bound_f(i, j).holds


def test_check_product_bound():
    assert check_product_bound(0, 7).product == 1
    cert = check_product_bound(4, 10)
    assert cert.product == Fraction(11 * 12 * 13 * 14, 10**4)
    assert cert.holds
    assert check_product_bound(14, 100).holds  # 14^2 = 196 < 200
    with pytest.raises(ValueError):
        check_product_bound(15, 100)  # 15^2 = 225 >= 200


def test_product_bound_sweep():
    import math

    for n in range(1, 201):
        for i in range(math.isqrt(2 * n - 1) + 1):
            assert check_product_bound(i, n).holds


def test_e2_bound_is_under_approximation():
    # comparisons against E2_LOWER must imply the e^2 claim
    import math

    assert float(E2_LOWER) < math.e**2


def test_rows_safe_under_concurrent_growth():
    results = {}

    def worker(idx, top):
        results[idx] = [stirling_row(i).coeffs for i in range(top, -1, -1)]

    threads = [threading.Thread(target=worker, args=(k, 80 + k)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for idx, rows in results.items():
        top = 80 + idx
        assert len(rows) == top + 1
        for i, coeffs in zip(range(top, -1, -1), rows):
            assert coeffs == stirling_row(i).coeffs


def test_row_memory_is_bounded():
    """About 2 s: tracemalloc slows the child's j_decomposition at N = 600 and row 800 from 0.4 s."""
    # A fresh process, so no earlier test has left rows cached.  A store of
    # every row up to i holds O(i^3 log i) bits: 50 MB after j_decomposition
    # at N = 600 and over 69 MB for row 800.  Streamed rows hold about 1 MB.
    src = pathlib.Path(abeliand.__file__).resolve().parents[1]
    code = (
        "import tracemalloc\n"
        "from fractions import Fraction\n"
        "from abeliand import Params, j_decomposition, stirling_row\n"
        "tracemalloc.start()\n"
        "j_decomposition(Params.exact(600, alpha=Fraction(9, 10)))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
        "tracemalloc.reset_peak()\n"
        "stirling_row(800)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
        timeout=60,
    )
    jdecomp_peak, row_peak = map(int, proc.stdout.split())
    assert jdecomp_peak < 8 * 2**20
    assert row_peak < 8 * 2**20
