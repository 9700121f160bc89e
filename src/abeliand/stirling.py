"""Exact machinery for non-centered Stirling numbers of the first kind (r = 1).

Rows of coefficients s(i,j;1) are the coefficients of the falling factorial
(x-1)(x-2)...(x-i) and are generated by multiplying those linear factors out
one at a time: O(i^2) integer arithmetic, no rounding anywhere.
``stirling_rows`` streams rows 0, 1, 2, ... and holds only the current one,
so a pass over many rows (``j_decomposition`` reads rows 1..N-1 once) keeps
one row in memory.  ``stirling_row(i)`` is row i of a fresh stream behind a
bounded LRU cache, so repeated callers of a few rows pay once.

The brute-force subset formula |s(i,j;1)| = i! * sum over j-subsets
{r_1..r_j} of {1..i} of 1/(r_1...r_j) is kept only as an independent
small-i oracle; it is exponential in i.

On one low-order value: expanding (x-1)(x-2) forces s(2,0;1) = 2.  Some
summaries of this table quote 4 for that entry; the inequality certified by
``check_bound_f`` holds with either value (2 <= 6 and 4 <= 6), and this
module uses the value the definition forces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

# e^2 = 7.38905609893065... truncated after 10 digits, i.e. slightly BELOW
# the true value, so `product <= E2_LOWER` implies `product <= e^2`.
E2_LOWER = Fraction(73890560989, 10**10)


@dataclass(frozen=True)
class StirlingRow:
    """Row i of the table: coeffs[j] = s(i,j;1) for j = 0..i."""

    i: int
    coeffs: tuple[int, ...]


def horner(coeffs, x):
    """sum(c * x**j for j, c in enumerate(coeffs)) by Horner's rule; 0 if empty."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def stirling_rows():
    """Rows 0, 1, 2, ...: row k holds the coefficients of (x-1)...(x-k).

    Each row is row k-1 multiplied by (x - k); only the current row is held.
    """
    row, k = (1,), 0
    while True:
        yield row
        k += 1
        row = (-k * row[0], *(lo - k * hi for lo, hi in zip(row, row[1:])), 1)


@functools.lru_cache
def stirling_row(i: int) -> StirlingRow:
    """Exact coefficients of (x-1)(x-2)...(x-i); row 0 is [1]."""
    if i < 0:
        raise ValueError("row index must be non-negative")
    return StirlingRow(i, next(islice(stirling_rows(), i, None)))


def unsigned_stirling(i: int, j: int) -> int:
    """|s(i,j;1)| = (-1)^(i-j) * s(i,j;1)."""
    if not 0 <= j <= i:
        raise ValueError(f"need 0 <= j <= i, got i={i}, j={j}")
    c = stirling_row(i).coeffs[j]
    return -c if (i - j) % 2 else c


def unsigned_stirling_subset_oracle(i: int, j: int) -> int:
    """|s(i,j;1)| by enumerating every j-subset of {1..i}.

    Independent of the row recurrence; its cost is exponential in i.
    Requires j >= 1 (the formula is stated for i >= j > 0).
    """
    if j == 0 or j > i:
        raise ValueError(f"need i >= j > 0, got i={i}, j={j}")
    total = Fraction(0)
    for subset in combinations(range(1, i + 1), j):
        total += Fraction(1, math.prod(subset))
    value = math.factorial(i) * total
    assert value.denominator == 1
    return value.numerator


def falling_factorial(x, n: int):
    """(x)_n = x * (x-1) * ... * (x-(n-1)); the empty product 1 when n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    result = 1
    for k in range(n):
        result = result * (x - k)
    return result


def poly_P(i: int) -> tuple[int, ...]:
    """Coefficients s(i+2,j;1), j = 0..i, of the degree-i polynomial P_i.

    Row i+2 with its two highest-order coefficients dropped: ints in
    ascending degree, evaluated with ``horner``.
    """
    if i < 0:
        raise ValueError("i must be non-negative")
    return stirling_row(i + 2).coeffs[: i + 1]


def poly_h(i: int) -> tuple[int, ...]:
    """Coefficients of h_i(x) = x^(i+1) * ((i+2)(i+3)/2 - x).

    Ints in ascending degree, evaluated with ``horner``: degree i+2, leading
    coefficient -1.
    """
    if i < 0:
        raise ValueError("i must be non-negative")
    return (0,) * (i + 1) + ((i + 2) * (i + 3) // 2, -1)


def bound_f(i: int) -> int:
    """Quartic majorant f(i) = a + 2ai + ai(i-1) + 4 with a = (i+1)(i+2)."""
    if i < 0:
        raise ValueError("i must be non-negative")
    a = (i + 1) * (i + 2)
    return a + 2 * a * i + a * i * (i - 1) + 4


def split_index(N: int) -> int:
    """Least k with k^2 >= 2N: where the i^2 >= 2N gates below switch."""
    return math.isqrt(2 * N - 1) + 1


@dataclass(frozen=True)
class LemmaPCertificate:
    """Exact evidence for the decomposition and sandwich of P_i at N.

    ``equality_holds`` covers P_i(N) = (N-1)_(i+2) + h_i(N).  When
    ``strong_gate`` (i^2 >= 2N) is set, ``inequalities_hold`` additionally
    records h_i(N) > 0 and 2N^(i+3) > P_i(N) > (N-1)_(i+2) >= 0; it is None
    when the gate does not apply.
    """

    i: int
    N: int
    p_at_N: int
    falling_part: int
    h_part: int
    equality_holds: bool
    strong_gate: bool
    inequalities_hold: bool | None

    @property
    def ok(self) -> bool:
        return self.equality_holds and self.inequalities_hold is not False


@dataclass(frozen=True)
class BoundFCertificate:
    i: int
    j: int
    lhs: int  # |s(i+2,j;1)|
    rhs: int  # f(i) * |s(i,j;1)|
    holds: bool


@dataclass(frozen=True)
class ProductBoundCertificate:
    i: int
    N: int
    product: Fraction
    bound: Fraction
    holds: bool


def check_lemma_P(i: int, N: int) -> LemmaPCertificate:
    """Certify P_i(N) = (N-1)_(i+2) + h_i(N), all arithmetic exact."""
    if i < 1:
        raise ValueError("i must be >= 1")
    if N - 3 < i:
        raise ValueError(f"need N - 3 >= i, got i={i}, N={N}")
    p_at_N = horner(poly_P(i), N)
    falling_part = falling_factorial(N - 1, i + 2)
    h_part = horner(poly_h(i), N)
    equality = p_at_N == falling_part + h_part
    gate = i >= split_index(N)
    inequalities = None
    if gate:
        inequalities = (
            h_part > 0 and 2 * N ** (i + 3) > p_at_N > falling_part >= 0
        )
    return LemmaPCertificate(
        i, N, p_at_N, falling_part, h_part, equality, gate, inequalities
    )


def check_bound_f(i: int, j: int) -> BoundFCertificate:
    """Certify |s(i+2,j;1)| <= f(i) * |s(i,j;1)|, both sides exact."""
    if not 0 <= j <= i:
        raise ValueError(f"need 0 <= j <= i, got i={i}, j={j}")
    lhs = unsigned_stirling(i + 2, j)
    rhs = bound_f(i) * unsigned_stirling(i, j)
    return BoundFCertificate(i, j, lhs, rhs, lhs <= rhs)


def check_product_bound(i: int, N: int) -> ProductBoundCertificate:
    """Certify prod_{j=1..i} (1 + j/N) <= e^2 for 0 <= i < sqrt(2N).

    The sqrt gate is i < split_index(N), the exact integer form of i^2 < 2N.
    The right-hand side is E2_LOWER < e^2, so holds=True implies the real
    inequality.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not 0 <= i < split_index(N):
        raise ValueError(f"need 0 <= i < sqrt(2N), got i={i}, N={N}")
    product = Fraction(math.prod(range(N + 1, N + i + 1)), N**i)
    return ProductBoundCertificate(i, N, product, E2_LOWER, product <= E2_LOWER)
