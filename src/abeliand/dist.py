"""The Abelian and Avalanche distribution families.

Two evaluation modes share one API.  Exact mode returns
``fractions.Fraction`` values, so normalization, moment identities and the
J-term rewrite of the second moment can be asserted with equality.  It
computes in integers, with p = a/d in lowest terms.  One generator, _terms,
yields every family's entries: read at its index j, each family is
c^k C(n,j) a^j (d-(j+1)a)^(n-j-k) (j+1)^(j-1) / d^(n-k) for
c = (d-(n+1)a)/(d-na), the Avalanche law at n = N for k = 0 and the
Abelian law for n = N-1, k = 1, whose weight C/(1 - bp) only lowers the
base's exponent.  The generator strips the primes q <= n+1 of d from every
factor before its power is taken and adds each q's surplus back to the
numerator or the denominator, never both; the primes <= n+1 of d-na that
d lacks meet the numerator in one gcd taken over small integers.  So each
entry comes out in lowest terms with no Fraction arithmetic, and its only
big-integer divisions are exact ones by small integers.  It yields the
entries for a range of j: the whole support for a table, one point for
scalar pmf.  A series is one integer numerator over d^n, reduced by the
primes q <= n of d, each exactly v_q(n!) times.
Float mode evaluates PMFs in log space (log-gamma binomials, log1p) and
keeps only their exponentials: one numpy kernel per family maps a block of
support points to log terms, with Python's math.* functions mapped over the
block.  numpy is imported inside the float PMF functions, so exact mode and
the moments run without it.
Tables come back as read-only float64 arrays, filled in blocks of _BLOCK
points.  Before the kernel runs on a block, the same log term, taken with
Stirling log-factorials and numpy's log and log1p, screens out the points
whose exp underflows; pmf_table writes +0.0 there, the kernel's own value,
so a table makes math.* calls only at its nonzero entries and the few just
past them, two math.lgamma calls per kept point (0.56-0.64 s at N = 10^6
and alpha = 0.999999, where none underflows), as scalar pmf.  The screen
stops after a block whose last point j0 it cuts off, once _tail_falls
proves that every later entry is below the one before.  Read at its index
j, every table is the Avalanche law at n times a weight c/(1 - (j+1)p)^k,
and with y = p/(1 - (j+1)p) and x = (n-j)y,
P(j+1)/P(j) <= exp(1 + log x - x + y).  Where (n+1)p < 1, always so for
the Abelian family, x falls with j, so that bound at j0, with y and the
weight at their largest, bounds every later log ratio; the rule needs it
below 0 by a rounding margin.  It does not fire where (n+1)p >= 1, an
Avalanche p in (1/(N+1), 1/N), nor near alpha = 1, where nothing
underflows.  At N = 10^6 and alpha = 0.5 a table screens one block, not
10^6 points: 3-5 ms instead of 26-37 ms, best of 5.  In either mode
scalar pmf runs the table's own kernel on one point (in exact mode a
one-point range, in float mode a one-point block, unscreened), so it
returns the same value as the table.

Moments come from one falling-power series, never from a table.  Float
mode takes E(X), E(X^2) and the Abelian second-moment bracket from one
running product of the terms (n)_i p^i, one compensated fsum each; the
bracket switches to the J-term tail form for large N, where it cancels
catastrophically.  Exact mode builds the same series from one integer
generator of its partial sums and terms over d^k: the mean and bracket take
its last partial sum and E(X^2) weights its terms; the exact variance is
one integer numerator over the mean's denominator squared, in lowest terms
with no gcd where E(X^2)'s denominator divides the mean's, as the
Avalanche series' does.  rounded_avalanche_mean
brackets a prefix of the mean's series in F-bit fixed point, at a cost that
does not grow with the length of d.  J1 and the closed form of J3 are
written once, for the float tail and the exact J-term rewrite alike.
The exact rewrite evaluates each Stirling-row polynomial P_i(N) by one
integer Horner, J2's polynomial at N from it, and J2, J4, J5 and J6 each as
one integer numerator over a power of d, one gcd apiece.

The Abelian family lives on {1..N}, the Avalanche family on {0..N}, and the
shifted family Y = X + 1, the Avalanche family at shift 1, on {1..N+1}; each
is one six-field record in _TERMS, whose mean and second moment moments()
reads.  Float moments() refuses a variance that is not finite.  The shared
parameter constraint is 0 < p < 1/N; alpha = N*p is the scale-free form.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import TYPE_CHECKING, Union

from .stirling import horner, split_index, stirling_rows

if TYPE_CHECKING:
    import numpy as np

Number = Union[Fraction, float]

# Above this N the float second moment abandons the direct bracket, whose
# leading terms cancel to O(p), for the J-term tail form.
_FLOAT_TAIL_N = 1000


def _check_N(N) -> None:
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError("N must be an integer >= 1")


@dataclass(frozen=True)
class Params:
    """Validated (N, p) pair with alpha = N*p carried alongside.

    Exact mode stores p and alpha as Fractions (alpha = N*p exactly); float
    mode stores both as floats.  Use the ``exact``/``stable`` constructors
    with exactly one of p or alpha.  Built directly, p and alpha must be of
    one kind and related as those constructors relate them: alpha = p*N or
    p = alpha/N.
    """

    N: int
    p: Number
    alpha: Number

    def __post_init__(self):
        _check_N(self.N)
        if not 0 < self.p:
            raise ValueError("p must be positive")
        if not self.N * self.p < 1:
            raise ValueError(f"p must be < 1/N, got p={self.p} with N={self.N}")
        if isinstance(self.p, Fraction) != isinstance(self.alpha, Fraction):
            raise ValueError("p and alpha must both be exact or both float")
        if self.alpha != self.p * self.N and self.p != self.alpha / self.N:
            raise ValueError(f"alpha must be N*p, got p={self.p}, alpha={self.alpha} with N={self.N}")

    @classmethod
    def exact(cls, N: int, p=None, alpha=None) -> "Params":
        return cls._build(Fraction, N, p, alpha)

    @classmethod
    def stable(cls, N: int, p=None, alpha=None) -> "Params":
        return cls._build(float, N, p, alpha)

    @classmethod
    def _build(cls, number: type, N: int, p, alpha) -> "Params":
        _check_N(N)
        if (p is None) == (alpha is None):
            raise ValueError("provide exactly one of p or alpha")
        if alpha is not None:
            alpha = number(alpha)
            p = alpha / N
        else:
            p = number(p)
            alpha = p * N
        return cls(N, p, alpha)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.p, Fraction)

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"


@dataclass(frozen=True)
class PmfTable:
    family: str
    params: Params
    support: range
    probs_exact: tuple[Fraction, ...] | None
    probs_float: np.ndarray | None


@dataclass(frozen=True)
class Moments:
    mean: Number
    second_moment: Number
    variance: Number
    mode: str


@dataclass(frozen=True)
class JDecomposition:
    """Exact J-term rewrite of the Abelian second moment.

    Satisfies J2 = J3 + J4, J4 = J5 + J6 (split at the least k with
    k^2 >= 2N) and C * (J1 - J2) = second_moment, all as rational equalities.
    """

    J1: Fraction
    J2: Fraction
    J3: Fraction
    J4: Fraction
    J5: Fraction
    J6: Fraction
    C: Fraction
    second_moment: Fraction


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    variance: float | None
    limit: float
    abs_error: float | None
    error: str | None = None


def _family(family: str) -> tuple:
    """The family's _TERMS record; the one refusal of an unknown family."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _TERMS[family]


def support(family: str, N: int) -> range:
    _, shift, first, _, _, _ = _family(family)
    return range(first, N + shift + 1)


def normalization_C(params: Params) -> Number:
    """C = (1 - N*p) / (1 - (N-1)*p), in (0, 1)."""
    N, p = params.N, params.p
    return (1 - N * p) / (1 - (N - 1) * p)


if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later

    def _coprime_fraction(num: int, den: int) -> Fraction:
        """num/den for coprime num and den > 0, with no gcd taken."""
        return Fraction._from_coprime_ints(num, den)

else:

    def _coprime_fraction(num: int, den: int) -> Fraction:
        """num/den for coprime num and den > 0, with no gcd taken."""
        return Fraction(num, den, _normalize=False)


def _remove(x: int, q: int) -> tuple[int, int]:
    """(x / q^v, v) for v = v_q(x), the exponent of the prime q in the nonzero integer x."""
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return x, v


def _legendre(m: int, q: int) -> int:
    """v_q(m!) for a prime q, by Legendre's formula."""
    v = 0
    while m:
        m //= q
        v += m
    return v


def _small_prime_factors(d: int, bound: int) -> list[tuple[int, int]]:
    """(q, v_q(d)) for every prime q <= bound that divides d."""
    out = []
    for q in range(2, bound + 1):
        if q * q > d:  # d has no factor below q left, so it is 1 or a prime
            if 1 < d <= bound:
                out.append((d, 1))
            break
        if d % q == 0:  # prime: its smaller factors are already divided out
            d, v = _remove(d, q)
            out.append((q, v))
    return out


def _power_product(x: int, e: int, y: int, f: int) -> int:
    """x^e y^f by one left-to-right binary ladder over both exponents.

    It squares one accumulator, where x**e * y**f squares two and then
    multiplies them: about a fifth less work at N = 1000, alpha = 1/2.
    """
    acc = 1
    for i in range(max(e, f).bit_length() - 1, -1, -1):
        acc *= acc
        if e >> i & 1:
            acc *= x
        if f >> i & 1:
            acc *= y
    return acc


def _times_powers(x: int, primes: list[int], exponents, power) -> int:
    """x times power(q, e) = q^e for each prime q of primes whose exponent e is positive; 2^e as a shift."""
    for q, e in zip(primes, exponents):
        if e > 0:
            x = x << e if q == 2 else x * power(q, e)
    return x


def _small_parts(ms: range, primes: list[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each m in ms with the primes divided out, and its valuations at them, by one sieve over ms."""
    free = list(ms)
    columns = []
    for q in primes:
        column = [0] * len(ms)
        for i in range(-ms.start % q, len(ms), q):
            free[i], column[i] = _remove(free[i], q)
        columns.append(column)
    return free, list(zip(*columns)) if primes else [()] * len(ms)


# With p = a/d in lowest terms, n >= 1 and c = (d-(n+1)a)/(d-na), every
# family's probability at its table index j is
#   P(j) = c^k C(n,j) a^j (d-(j+1)a)^(n-j-k) (j+1)^(j-1) / d^(n-k):
# the Avalanche law at n for k = 0, and for k = 1 the Abelian law at
# N = n+1, whose weight C/(1 - bp) at b = j+1 is c/(1 - (j+1)p) and so
# only lowers the base's exponent by one.  At j = n that exponent is -k:
# for k = 1 the base d-(n+1)a cancels c's numerator, and the entry is
# a^n (n+1)^(n-1) / (d^(n-1) (d-na)); for k = 0 the base's power is 1.
#
# Only primes q <= n+1 of d and of d-na can cancel.  A prime above n+1 of
# d divides none of the numerator's integers: gcd(a, d) = 1,
# gcd(d-(j+1)a, d) = gcd(j+1, d), gcd(d-(n+1)a, d) = gcd(n+1, d), and
# C(n,j) and j+1 have no prime above n+1.  A prime q of d-na does not
# divide a, so it divides d-(j+1)a = (d-na) + (n-j-1)a only if q | n-j-1,
# never divides d-(n+1)a = (d-na) - a, and meets C(n,j) and j+1 only if
# q <= n+1.  So:
# - each q of d is stripped from every factor before its power is taken.
#   Its valuation in the numerator, summed over the factors times their
#   exponents, less its valuation in d^(n-k) (d-na)^k, is its surplus: a
#   positive surplus multiplies the numerator by q^surplus, a negative one
#   the denominator.  A table's negative surpluses repeat, so each
#   denominator is built once;
# - the primes <= n+1 of d-na that do not divide d make up `small`, which
#   holds each about once while C(n,j) and j+1 carry them often, so they
#   are not stripped: g = gcd(small, numerator) is taken over the
#   numerator's small integers and their powers mod small, divided out of
#   C(n,j) a^j c's numerator where it can be and out of the numerator
#   otherwise, and small/g joins the denominator;
# - what is left of d and of d-na, primes above n+1 only, is coprime to
#   every factor: (d's rest)^(n-k) (d-na's rest)^k is built once per call.
# So each entry comes out in lowest terms with at most one gcd, of small.
#
# The binomial starts at math.comb(n, j0), its valuations by Legendre's
# formula, and follows C(n,j) = C(n,j-1) (n-j+1)/j, its q-free part and
# valuations carried apart, so each step's one big-integer division is the
# exact one by the q-free part of j.  The q-free parts and valuations of the
# small integers (the recurrence's factors and j+1) come from one sieve
# over the hull of those the call reads: 1..n+1 for a whole table, j0+1
# alone for one point.


def _terms(n: int, p: Fraction, js: range, k: int):
    """P(j) = c^k C(n,j) a^j (d-(j+1)a)^(n-j-k) (j+1)^(j-1) / d^(n-k) for j in js, in lowest terms.

    p = a/d, c = (d-(n+1)a)/(d-na) and k is 0 or 1, with (n+k)p < 1.
    (j+1)^(j-1) is 1 at j = 0; at n = 0 the one entry is 1.  js is a
    nonempty range within 0..n.
    """
    if n == 0:
        yield _coprime_fraction(1, 1)
        return
    a, d = p.numerator, p.denominator
    d_primes = _small_prime_factors(d, n + 1)
    primes = [q for q, _ in d_primes]
    den_v = [(n - k) * e for _, e in d_primes]
    rest = (d // math.prod(q**e for q, e in d_primes)) ** (n - k)
    weight, v_weight, small = 1, [0] * len(primes), 1  # c^k's numerator, stripped
    if k:
        weight, rest_w = d - (n + 1) * a, d - n * a
        for t, q in enumerate(primes):
            weight, v_weight[t] = _remove(weight, q)
            rest_w, v = _remove(rest_w, q)
            den_v[t] += v
        small = math.prod(q**e for q, e in _small_prime_factors(rest_w, n + 1))
        rest *= rest_w // small

    j0 = js.start
    binom = math.comb(n, j0)  # without its q, and its v_q
    v_binom = [_legendre(n, q) - _legendre(j0, q) - _legendre(n - j0, q) for q in primes]
    binom //= math.prod(q**v for q, v in zip(primes, v_binom))
    a_j = a**j0
    reads = range(j0 + 1, js.stop + 1)  # j+1 for j in js, and the recurrence's divisor j
    if len(js) > 1:  # and its factor n-j+1
        reads = range(min(reads.start, n - js.stop + 2), max(reads.stop, n - j0 + 1))
    free, valuations = _small_parts(reads, primes)
    lo = reads.start
    dens: dict[tuple[int, ...], int] = {}
    power = functools.cache(pow)  # a table's surpluses take few values
    for j in js:
        if j > j0:  # C(n, j) = C(n, j-1) (n-j+1) / j
            binom = binom * free[n - j + 1 - lo] // free[j - lo]
            v_binom = [v + i - o for v, i, o in zip(v_binom, valuations[n - j + 1 - lo], valuations[j - lo])]
            a_j *= a
        top, e_top = free[j + 1 - lo], max(j - 1, 0)
        surplus = [vb + e_top * vt - e for vb, vt, e in zip(v_binom, valuations[j + 1 - lo], den_v)]
        base, e_base, w = 1, 0, 1  # at j = n the base's power is 1 for k = 0 and cancels the weight for k = 1
        if j < n:
            base, e_base, w = d - (j + 1) * a, n - j - k, weight
            for t, q in enumerate(primes):
                base, v = _remove(base, q)
                surplus[t] += e_base * v + v_weight[t]
        head, g, h = binom * a_j * w, 1, 1
        if small > 1:  # gcd of the numerator and small, taken over its small integers
            g = math.gcd(small, head * pow(top, e_top, small) * pow(base, e_base, small))
            h = math.gcd(head, g)
            head //= h
        num = _power_product(top, e_top, base, e_base) * head
        if g > h:  # the rest of g divides the powers
            num //= g // h
        num = _times_powers(num, primes, surplus, power)
        key = tuple(-s if s < 0 else 0 for s in surplus)
        den = dens.get(key)
        if den is None:
            den = dens[key] = _times_powers(rest, primes, key, power)
        if small > 1:
            den *= small // g
        yield _coprime_fraction(num, den)


def _map(f, x: np.ndarray) -> np.ndarray:
    # The math.* functions, not numpy's: np.log, np.log1p, np.exp and
    # scipy.special.gammaln round some last bits differently.
    import numpy as np

    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


def _math_log(x: np.ndarray) -> np.ndarray:
    return _map(math.log, x)


def _math_log1p(x: np.ndarray) -> np.ndarray:
    return _map(math.log1p, x)


def _log_factorial(j: np.ndarray) -> np.ndarray:
    """log j! for an int array j, one math.lgamma per entry."""
    # j + 1.0 is exact for j < 2^53, so math.lgamma sees the same double as
    # from the int, with no int conversion per call
    return _map(math.lgamma, j + 1.0)


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_log_factorial(j: np.ndarray) -> np.ndarray:
    """A lower bound on log j!, short of it by less than 1/(12(j+1)), in numpy.

    Stirling's series for lgamma(x) at x = j+1, cut after its constant:
    lgamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + mu(x), 0 < mu(x) < 1/(12x).
    """
    import numpy as np

    x = j + 1.0
    return (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI


# Each log block takes the array primitives it runs on: log j!, log and
# log1p.  With the math.* maps it is the float kernel; with Stirling's
# log j! and numpy's log and log1p it is the screen that pmf_table uses to
# skip points whose exp underflows.


def _abelian_log_block(params: Params, b: np.ndarray, log_factorial, log, log1p) -> np.ndarray:
    """log of the Abelian PMF at an int64 array b, factor by factor.

    Every base is positive on the support: 1 - b*p >= 1 - N*p > 0.  The
    b = N term carries exponent N-b-1 = -1 and b = 1 contributes
    (b-2)*log(b) = 0, both handled by plain arithmetic here.
    """
    N, p = params.N, params.p
    log_C = math.log1p(-N * p) - math.log1p(-(N - 1) * p)
    log_binom = (math.lgamma(N) - log_factorial(b - 1)) - log_factorial(N - b)
    return (
        (log_C + log_binom)
        + (b - 1) * math.log(p)
        + (N - b - 1) * log1p(-b * p)
        + (b - 2) * log(b)
    )


def _avalanche_log_block(params: Params, b: np.ndarray, log_factorial, log, log1p) -> np.ndarray:
    """log of the Avalanche PMF at an int64 array b.

    The base of (1 - (b+1)*p)^(N-b) is taken as 1 - min(b+1, N)*p > 0: it
    differs only at b = N, where the exponent is 0.
    """
    import numpy as np

    N, p = params.N, params.p
    log_binom = (math.lgamma(N + 1) - log_factorial(b)) - log_factorial(N - b)
    lp = log_binom + b * math.log(p) + (b - 1) * log(b + 1)
    return lp + (N - b) * log1p(-np.minimum(b + 1, N) * p)


# Support points per float kernel call: bounds the kernel's temporaries.  At
# 2^14 points each temporary is 128 KB and stays in cache; on 2^16-point
# blocks the screen's numpy passes ran 2.5 times slower.
_BLOCK = 1 << 14

# pmf_table runs the float kernel only where the screen is at or above this
# cut, and writes +0.0 elsewhere, as math.exp does below about -745.13.  The
# screen exceeds the log term by the two Stirling remainders, 0 to 1/6 in
# all, and differs from the kernel's value by rounding besides: terms of
# size up to N(log(1/p) + 37), each rounded a few times, about 1e-7 at
# N = 10^6.  Screen minus kernel measured 0 to 0.163 over tables at N from 1
# to 10^6 and alpha from 1e-300 to 1 - 2^-52.  So a point cut off has a log
# term below -799.8, and the 55 units up to -745.13 leave room for the
# rounding at any N a table can hold.
_SCREEN_CUT = -800.0


# pmf_table stops screening after a block whose last point j0 the screen
# cuts off, if every later entry is below the one before: then each has a
# log term below -799.8 too, and the kernel's exp would give +0.0 there.
#
# Every table, read at its index j = b - b0, is the Avalanche law at
# n = N + s - b0, P(j) = C(n,j) p^j (1-(j+1)p)^(n-j) (j+1)^(j-1), times a
# weight c/(1-(j+1)p)^k, c constant: Abelian at n = N-1 with k = 1 (its
# C/(1 - bp) at b = j+1), Avalanche and shifted at n = N with k = 0.  With
# y = p/(1-(j+1)p) and x = (n-j)y, for j < n,
#   P(j+1)/P(j) = x (1 + 1/(j+1))^j (1-y)^(n-j-1) <= exp(1 + log x - x + y),
# as (1 + 1/(j+1))^j <= e and (1-y)^(n-j-1) <= exp(-(n-j-1)y) = exp(y - x);
# the weight's ratio is (1 + p/(1-(j+2)p))^k <= exp(kp/(1-(n+1)p)).  If
# (n+1)p < 1, always so for the Abelian family (there (n+1)p = alpha),
# x falls with j and x(0) = np/(1-p) < 1, while 1 + log x - x rises on
# (0, 1) and y rises with j.  So for every j >= j0 the log ratio is at most
#   B = 1 + log x0 - x0 + p/(1-np) + kp/(1-(n+1)p),  x0 = x(j0),
# and B < 0 makes the tail fall.
#
# Rounding.  p = num/den exactly, so x0 and each quotient in B is one
# correctly rounded int / int: x0 to a relative u = 2^-53 (it is at least
# p; below 2^-1022 the quotient keeps fewer bits but stays within a factor
# 2 of x0, so B and its computed value are both below -700), and math.log
# adds under an ulp.  With L = |log x0| and Y the computed y terms, log x0
# is off by at most 1.01u + 2uL, and x0's own rounding, the two quotients
# of Y and the four additions by at most
# u x0 + 2.01uY + u(1 + L) + u(2 + L) + u(2 + L + Y): at most
# u(7.01 + 5L + 3.01Y) in all, under 8u(1 + L + Y) = 2^-50 (1 + L + Y), with
# room for the margin's own rounding.  So a computed B below minus that
# margin proves B < 0.
def _tail_falls(n: int, j0: int, p: float, k: int) -> bool:
    """Whether each table entry past index j0 is below the one before, by the bound B < 0 above."""
    num, den = p.as_integer_ratio()
    if j0 >= n or (n + 1) * num >= den:
        return False
    x0 = (n - j0) * num / (den - (j0 + 1) * num)
    log_x0 = math.log(x0)
    y = num / (den - n * num) + k * num / (den - (n + 1) * num)
    return 1 + log_x0 - x0 + y < -(1 + abs(log_x0) + y) * 2.0**-50


def _float_block(family: str, params: Params, b: np.ndarray):
    """P(family = b) at an int64 array b, as a float64 array."""
    log_block, shift, _, _, _, _ = _TERMS[family]
    return _map(math.exp, log_block(params, b - shift, _log_factorial, _math_log, _math_log1p))


def pmf(family: str, params: Params, b: int) -> Number:
    """P(family = b): the exact generator or the float table kernel, run at one point.

    abelian:   P(Z = b) = C * binom(N-1,b-1) * p^(b-1) * (1-bp)^(N-b-1) * b^(b-2)
    avalanche: P(X = b) = binom(N,b) * p^b * (1-(b+1)p)^(N-b) * (b+1)^(b-1)
    shifted:   P(Y = b) = P(X = b-1) on the shifted support 1..N+1
    """
    sup = support(family, params.N)
    if b not in sup:
        raise ValueError(f"b={b} outside {family} support {sup[0]}..{sup[-1]}")
    if params.is_exact:
        n, p, _, k = exact_source(family, params)
        j = b - sup.start
        return next(_terms(n, p, range(j, j + 1), k))
    import numpy as np

    return _float_block(family, params, np.array([b]))[0].item()


def exact_source(family: str, params: Params) -> tuple:
    """The (n, p, range, k) that _terms runs on for pmf_table.

    Read at its index j = b - b0, the family's law is _terms at
    n = N + s - b0 with the record's weight k.  Equal sources give equal
    probabilities: the avalanche and shifted families share theirs.
    """
    _, s, b0, _, _, k = _family(family)
    n = params.N + s - b0
    return n, params.p, range(n + 1), k


def pmf_table(family: str, params: Params) -> PmfTable:
    """Whole-support table: exact Fractions, or a read-only float64 array."""
    sup = support(family, params.N)
    if params.is_exact:
        return PmfTable(family, params, sup, tuple(_terms(*exact_source(family, params))), None)
    log_block, shift, _, _, _, k = _TERMS[family]
    import numpy as np

    probs = np.zeros(len(sup))
    for start in range(0, len(sup), _BLOCK):
        b = np.arange(sup.start + start, min(sup.start + start + _BLOCK, sup.stop))
        screen = log_block(params, b - shift, _stirling_log_factorial, np.log, np.log1p)
        kept = np.flatnonzero(screen >= _SCREEN_CUT)
        probs[start + kept] = _float_block(family, params, b[kept])
        # the rows past a falling tail stay +0.0, as the kernel would give
        if screen[-1] < _SCREEN_CUT and _tail_falls(len(sup) - 1, start + len(b) - 1, params.p, k):
            break
    probs.flags.writeable = False
    return PmfTable(family, params, sup, None, probs)


def abelian_mean(params: Params) -> Number:
    """E(Z) = N / (N - (N-1)*alpha)."""
    N, alpha = params.N, params.alpha
    return N / (N - (N - 1) * alpha)


def _falling_powers(n: int, p: float):
    """Float terms (n)_i * p^i for i = 1..n, as the running product of (n-i+1)*p.

    Each factor is below alpha < 1, so the terms decrease; the series stops
    after the first term below 1e-25.
    """
    t = 1
    for i in range(1, n + 1):
        t *= (n - i + 1) * p
        yield t
        if t < 1e-25:
            return


def _falling_power_series(n: int, a: int, d: int):
    """(s_k, t_k) for k = 1..n: sum_{i<=k} (n)_i p^i and (n)_k p^k over d^k, p = a/d."""
    s, t = 0, 1
    for m in range(n, 0, -1):  # m = n-k+1 at step k
        t *= m * a  # t_k = (n-k+1) a t_(k-1)
        s = s * d + t  # s_k = d s_(k-1) + t_k
        yield s, t


def _falling_power_sum(n: int, a: int, d: int) -> Fraction:
    """s_n / d^n in lowest terms: a prime q of d divides s_n as often as its term n! a^n."""
    s = 0
    for s, _ in _falling_power_series(n, a, d):
        pass
    g = math.prod(q ** _legendre(n, q) for q, _ in _small_prime_factors(d, n))
    return _coprime_fraction(s // g, d**n // g)


def avalanche_mean(params: Params) -> Number:
    """E(X) = sum_{i=1..N} (N)_i * p^i, with (N)_i the falling factorial."""
    if params.is_exact:
        return _falling_power_sum(params.N, params.p.numerator, params.p.denominator)
    return math.fsum(_falling_powers(params.N, params.p))


def _mean_bracket(N: int, a: int, d: int, F: int) -> tuple[int, int]:
    """Integers lo <= E(X) * 2^F <= hi for p = a/d, from a prefix of the series at F bits."""
    # With u = 2^F, P = floor(a*u/d) <= p*u < P + 1.  The running products
    # lo_k = floor(lo_(k-1) (N-k+1) P / u) and hi_k = ceil(hi_(k-1) (N-k+1) (P+1) / u),
    # both u at k = 0, bracket u*t_k, t_k = (N)_k p^k: by induction
    # u*t_k = u*t_(k-1) (N-k+1) p lies between the unrounded products, and
    # the floor and the ceiling only widen that.  After step K the terms fall
    # by a factor (N-k)p <= r = (N-K)p each, so they sum to at most
    # t_K r/(1-r), which is at most hi_K c/(u - c) units for c = (N-K)(P+1)
    # as long as c < u.  The loop stops once that is at most N units, or at
    # K = N with no tail, and the upper end adds its ceiling.  (The ceiling
    # holds hi_K near 1/(1-r) units, so a bound of one unit might never be
    # met.)  The stop test passes only if c < u, that is r < 1.  At
    # 2^F > N^2 this holds for every K >= 1, as P + 1 < u/N + 1 gives
    # c < (N-1)(u/N + 1) <= u, so the loop waits only for hi_K to fall.
    u = 1 << F
    P = (a << F) // d
    lo = hi = u
    lo_sum = hi_sum = 0
    for m in range(N, 0, -1):  # m = N-k+1 at step k
        lo = lo * m * P >> F
        hi = -(-hi * m * (P + 1) >> F)
        lo_sum += lo
        hi_sum += hi
        c = (m - 1) * (P + 1)
        if hi * c <= N * (u - c):
            break
    return lo_sum, hi_sum - (-hi * c // (u - c))


def rounded_avalanche_mean(params: Params) -> float:
    """float(avalanche_mean(params)) for exact params, by Ziv's rule in fixed point.

    _mean_bracket gives lo/2^F <= E(X) <= hi/2^F.  Int / int is correctly
    rounded, as float(Fraction) is, and rounding is monotone, so if the two
    ends round to the same float every real between them does, E(X)
    included; otherwise F doubles.  F starts at 64 + 2*bitlen(N) +
    bitlen(d) - bitlen(a), where P has at least 63 + 2*bitlen(N) bits and
    2^F > N^2, so the ends agree to about 2^-60 relative whatever p is, and
    the cost is O(K) steps on integers of about 2F bits at any length of d.
    """
    if not params.is_exact:
        raise ValueError("rounded_avalanche_mean requires exact-mode params")
    N, a, d = params.N, params.p.numerator, params.p.denominator
    n = N.bit_length()
    F = 64 + 2 * n + d.bit_length() - a.bit_length()
    while True:
        lo, hi = _mean_bracket(N, a, d, F)
        if (mean := lo / (1 << F)) == hi / (1 << F):
            return mean
        # E(X) = s/d^N >= 1/d, and the midpoints between floats that can
        # bound its rounding are multiples of 2^-(bitlen(d) + 54), so E(X) is
        # a midpoint or at least 2^-((N+1) bitlen(d) + 54) from each.  The
        # bracket is narrower: step k's ends differ by under 3k(t_k/p + 1)
        # units, under 8 N^2 d units in all as E(X) <= N and 1/p <= d.  So
        # past this F only an exact tie, which needs a dyadic p, fails, and
        # the exact sum rounds it.
        if F >= (N + 2) * d.bit_length() + 2 * n + 57:
            return float(avalanche_mean(params))
        F *= 2


def abelian_second_moment(params: Params) -> Number:
    """E(Z^2) = (C/p) * [Np/(1-Np) - sum_{i=1..N-1} (N-1)_i p^i]."""
    N, p, alpha = params.N, params.p, params.alpha
    C = normalization_C(params)
    head = N * p / (1 - N * p)
    if params.is_exact:
        return C / p * (head - _falling_power_sum(N - 1, p.numerator, p.denominator))
    if N <= _FLOAT_TAIL_N:
        # fsum rounds once over all the terms: the bracket must go through it
        # whole, or the cancellation between the head and the series rounds
        # differently.
        return C / p * math.fsum([head, *(-t for t in _falling_powers(N - 1, p))])
    J1, J3 = _j1_j3(params)
    return C * (J1 - J3 - math.fsum(_float_J4_terms(N, alpha)))


def _j1_j3(params: Params) -> tuple[Number, Number]:
    """J1 = alpha^N/(p(1-alpha)) and J3 = -sum_{i=0..N-2} alpha^i (i+1)(i+2)/2, in closed form."""
    N, p, alpha = params.N, params.p, params.alpha
    one = 1 - alpha  # int literals keep params' number type
    # J3's full series is -1/(1-alpha)^3; its tail from i = N-1 telescopes
    tail = alpha ** (N - 1) * (1 / one**3 + (N - 1) * alpha / one**2 + (N - 1) * (N + 2) / (2 * one))
    return alpha**N / (p * one), -1 / one**3 + tail


def _float_J4_terms(N: int, alpha: float):
    # J4 = sum_i alpha^(i+1) * [N*(Q_i - 1) + (i+2)(i+3)/2] with
    # Q_i = prod_{k=1..i+2} (1 - k/N): the p^(i+1) (N-1)_(i+2) + p^(i+1) h_i(N)
    # split of each P_i term, computed without forming either giant factor.
    # Yielded one at a time, so math.fsum holds no list of up to N-2 terms.
    q = 1.0 - 1.0 / N
    apow = alpha
    for i in range(N - 2):  # i = 0 .. N-3
        q *= 1.0 - (i + 2.0) / N
        yield apow * (N * (q - 1.0) + 0.5 * (i + 2) * (i + 3))
        apow *= alpha
        # |bracket| <= N + (i+3)(i+4)/2 and <= 2N^2 once the sandwich bound
        # kicks in; either way the geometric tail below is negligible.
        if apow * (2.0 * N * N + (i + 3) * (i + 4) + N) / (1.0 - alpha) < 1e-18:
            return


def abelian_variance(params: Params) -> Moments:
    """moments("abelian", params), the headline quantity, under the name verify and perfbench call."""
    return moments("abelian", params)


def _avalanche_second_moment(params: Params) -> Number:
    """E(X^2) = sum_{i=1..N} (i^2 + 3i - 2)/2 * (N)_i p^i, every term positive.

    Checked against brute_force_moment, not proved.
    """
    N, p = params.N, params.p
    weights = (i * (i + 3) // 2 - 1 for i in range(1, N + 1))
    if not params.is_exact:
        return math.fsum(w * t for w, t in zip(weights, _falling_powers(N, p)))
    a, d = p.numerator, p.denominator
    num = 0
    for w, (_, t) in zip(weights, _falling_power_series(N, a, d)):
        num = num * d + w * t  # over d^k at step k, as s_k
    return Fraction(num, d**N)


# family -> (log block, shift s, first support point b0, mean, second
# moment, tail weight k): the family lives on b0..N + s, where
# P(family = b) is the exp of the log block's term at b - s; the moments are
# those at shift 0, which moments() moves by s.  At the table index
# j = b - b0 it is the Avalanche law at n = N + s - b0 times a weight
# c/(1 - (j+1)p)^k: exact mode runs _terms at (n, k), and _tail_falls reads
# the bound on that weight.  Shifted is Avalanche at s = 1.
_TERMS = {
    "abelian": (_abelian_log_block, 0, 1, abelian_mean, abelian_second_moment, 1),
    "avalanche": (_avalanche_log_block, 0, 0, avalanche_mean, _avalanche_second_moment, 0),
    "shifted": (_avalanche_log_block, 1, 1, avalanche_mean, _avalanche_second_moment, 0),
}

FAMILIES = tuple(_TERMS)


def table_moment(table: PmfTable, k: int) -> Fraction:
    """sum_b b^k P(b) over an exact table, as one integer over a common denominator.

    A table's denominators are d's part above N+1 to the N, times powers of
    d's primes up to N+1, so few are distinct: each one's entries are summed
    as integers, and the sums meet over the lcm of the denominators, with
    one gcd in all where chained Fraction additions take one per entry.
    """
    sums: dict[int, int] = {}
    for b, q in zip(table.support, table.probs_exact):
        sums[q.denominator] = sums.get(q.denominator, 0) + b**k * q.numerator
    lcm = math.lcm(*sums)
    return Fraction(sum(s * (lcm // den) for den, s in sums.items()), lcm)


def brute_force_moment(family: str, params: Params, k: int) -> Fraction:
    """k-th raw moment summed over the exact table: the oracle for every series.

    It is table_moment of pmf_table, an exact sum over the whole support that
    shares no code with the falling-power series it checks.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not params.is_exact:
        raise ValueError("brute_force_moment requires exact-mode params")
    return table_moment(pmf_table(family, params), k)


def _exact_variance(mean: Fraction, second: Fraction) -> Fraction:
    """second - mean^2 from the integer numerators over mean's denominator A squared.

    mean^2 = M^2/A^2 is in lowest terms as mean is.  Where second's
    denominator B divides A, as the Avalanche series' do, the variance is
    (S (A/B) A - M^2)/A^2, in lowest terms with no gcd: each prime of A
    divides S (A/B) A and not M^2.  Otherwise one Fraction subtraction.
    """
    M, A = mean.numerator, mean.denominator
    S, B = second.numerator, second.denominator
    r, rem = divmod(A, B)
    if rem:
        return second - _coprime_fraction(M * M, A * A)
    return _coprime_fraction(S * r * A - M * M, A * A)


def moments(family: str, params: Params) -> Moments:
    """The family's moments from its record at shift 0, moved by s; a non-finite float variance is refused."""
    _, s, _, mean_of, second_of, _ = _family(family)
    mean, second = mean_of(params), second_of(params)
    variance = _exact_variance(mean, second) if params.is_exact else second - mean * mean
    if not (params.is_exact or math.isfinite(variance)):
        raise ValueError("non-finite variance")
    return Moments(mean + s, second + 2 * s * mean + s * s, variance, params.mode)


def _power_series(coeffs, a: int, d: int, shift: int) -> Fraction:
    """sum_m coeffs[m] p^(m + shift) at p = a/d, from one integer Horner in d, one gcd in all.

    With L coefficients the sum is a^shift sum_m coeffs[m] a^m d^(L-1-m)
    over d^(shift + L - 1).
    """
    if not coeffs:
        return Fraction(0)
    scaled = [c * t for c, t in zip(coeffs, accumulate(repeat(a, len(coeffs) - 1), operator.mul, initial=1))]
    return Fraction(a**shift * horner(scaled[::-1], d), d ** (shift + len(coeffs) - 1))


def j_decomposition(params: Params) -> JDecomposition:
    """Exact J1..J6 terms of the second-moment rewrite, invariants checked.

    J4 comes through the truncated-row polynomials P_i, J2 from the same
    rows s(i, .) with their next coefficient, and J3 from the closed form
    the float tail uses, so J2 = J3 + J4 checks that closed form against
    the rows' coefficients in exact arithmetic.
    """
    if not params.is_exact:
        raise ValueError("j_decomposition requires exact-mode params")
    N, p, alpha = params.N, params.p, params.alpha
    if N < 2:
        raise ValueError("need N >= 2")

    C = normalization_C(params)
    J1, J3 = _j1_j3(params)
    # Rows 1..N-1 in one pass, one Horner each at N: row i less its top two
    # coefficients is P_(i-2) (empty at i = 1), and J2's i-th polynomial,
    # the row less its top one, adds the next coefficient times N^(i-1).
    j2_values, p_values, N_power = [], [], 1
    for i, row in enumerate(islice(stirling_rows(), 1, N), 1):
        value = horner(row[: i - 1], N)
        j2_values.append(value + row[i - 1] * N_power)
        p_values.append(value)
        N_power *= N
    del p_values[0]
    a, d = p.numerator, p.denominator
    kstar = split_index(N)
    J2 = _power_series(j2_values, a, d, 0)
    J4 = _power_series(p_values, a, d, 1)
    J5 = _power_series(p_values[:kstar], a, d, 1)
    J6 = _power_series(p_values[kstar:], a, d, kstar + 1)
    second = abelian_second_moment(params)

    if J2 != J3 + J4:
        raise ArithmeticError(f"J2 != J3 + J4 at N={N}, alpha={alpha}")
    if J4 != J5 + J6:
        raise ArithmeticError(f"J4 != J5 + J6 at N={N}, alpha={alpha}")
    if C * (J1 - J2) != second:
        raise ArithmeticError(f"C*(J1 - J2) != E[Z^2] at N={N}, alpha={alpha}")
    return JDecomposition(J1, J2, J3, J4, J5, J6, C, second)


def variance_limit(alpha) -> Fraction:
    """Large-N variance limit alpha / (1 - alpha)^3, exact."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return alpha / (1 - alpha) ** 3


def convergence_table(alpha: float, N_list) -> list[ConvergenceRow]:
    """Float-mode variance vs. the limit for each N, sorted ascending.

    Rows that fail to evaluate finitely report an error string instead of
    numbers rather than raising mid-table.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    Ns = sorted(set(int(n) for n in N_list))
    if not Ns:
        raise ValueError("N list must be nonempty")
    if Ns[0] < 2:
        raise ValueError("each N must be >= 2")
    limit = float(variance_limit(alpha))
    rows = []
    for N in Ns:
        try:
            v = abelian_variance(Params.stable(N, alpha=alpha)).variance
        except (OverflowError, ValueError) as exc:
            rows.append(ConvergenceRow(N, None, limit, None, str(exc)))
            continue
        rows.append(ConvergenceRow(N, v, limit, abs(v - limit)))
    return rows
