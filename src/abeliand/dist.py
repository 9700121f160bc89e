"""The Abelian and Avalanche distribution families.

Two evaluation modes share one API.  Exact mode returns
``fractions.Fraction`` values, so normalization, moment identities and the
J-term rewrite of the second moment can be asserted with equality.  It
computes in integers, with p = a/d in lowest terms.  An Avalanche entry at
N is a product of powers over d^N: the kernel strips the primes q <= N+1 of
d from every base before the power is taken and adds each q's surplus back
to the numerator or the denominator, never both, so the entry comes out in
lowest terms with no gcd and no big-integer division but the binomial
recurrence's exact one by b.  One generator yields the entries for a range
of b, the whole support for a table and one point for scalar pmf.  A series
is one integer numerator over d^n, reduced by the primes q <= n of d, each
exactly v_q(n!) times.  The Abelian entry is the Avalanche entry at N-1
times a ratio of small integers, P(Z_N = b) = C/(1 - bp) * P(X_(N-1) = b-1).
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
its last partial sum and E(X^2) weights its terms.  rounded_avalanche_mean
brackets a prefix of the mean's series in F-bit fixed point, at a cost that
does not grow with the length of d.  J1 and the closed form of J3 are
written once, for the float tail and the exact J-term rewrite alike.
The exact rewrite evaluates the Stirling-row polynomials P_i(N) by integer
Horner, and J2, J4, J5 and J6 each as one Horner evaluation in p.

The Abelian family lives on {1..N}, the Avalanche family on {0..N}, and the
shifted family Y = X + 1, the Avalanche family at shift 1, on {1..N+1}; each
is one seven-field record in _TERMS, whose mean and second moment moments()
reads.  Float moments() refuses a variance that is not finite.  The shared
parameter constraint is 0 < p < 1/N; alpha = N*p is the scale-free form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
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
    _, _, shift, first, _, _, _ = _family(family)
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


def _valuation(x: int, q: int) -> int:
    """Exponent of the prime q in the nonzero integer x."""
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def _small_prime_factors(d: int, bound: int) -> list[tuple[int, int]]:
    """(q, v_q(d)) for every prime q <= bound that divides d."""
    out = []
    for q in range(2, bound + 1):
        if d == 1:
            break
        if d % q == 0:  # prime: its smaller factors are already divided out
            v = _valuation(d, q)
            d //= q**v
            out.append((q, v))
    return out


# With p = a/d in lowest terms, an Avalanche probability at N is
# C(N,b) a^b x^(N-b) (b+1)^(b-1) over d^N, x = d - min(b+1, N)a.  The
# numerator shares with d^N only the primes q <= N+1 of d: gcd(a, d) = 1,
# gcd(x, d) = gcd(k, d) for x = d - ka with k <= N, and C(N,b) and b+1 have
# no prime above N+1.  So the kernel strips those q from every base before
# its power is taken, and the rest of d, d with them divided out, is coprime
# to every cofactor: the reduced denominator is rest^N, built once per
# table, times some of the q.  Each q's valuation in the numerator, summed
# over the bases times their exponents, less its N v_q(d) in d^N, is its
# surplus: a positive surplus multiplies the numerator by q^surplus, a
# negative one the denominator.  The binomial comes by the recurrence
# C(N,b) = C(N,b-1) (N-b+1)/b, its q-free part and valuations carried apart,
# so the only big-integer division is the exact one by the small q-free part
# of b, and no gcd is taken.


def _strip(x: int, primes) -> tuple[int, list[int]]:
    """x with every q of ``primes``, (q, v_q(d)) pairs, divided out, and v_q(x) for each q."""
    vs = [_valuation(x, q) for q, _ in primes]
    for (q, _), v in zip(primes, vs):
        x //= q**v
    return x, vs


def _avalanche_terms(N: int, p: Fraction, bs: range):
    """P(X = b) = C(N,b) a^b (d-(b+1)a)^(N-b) (b+1)^(b-1) / d^N for b in bs.

    The base of (d-(b+1)a)^(N-b) is taken as d - min(b+1, N)a > 0: it differs
    only at b = N, where the exponent is 0.  (b+1)^(b-1) is 1 at b = 0.
    N = 0 is allowed: its one entry is 1.  bs is a range within 0..N.
    """
    a, d = p.numerator, p.denominator
    primes = _small_prime_factors(d, N + 1)
    rest = d // math.prod(q**e for q, e in primes)
    rest_N = rest**N

    @functools.cache
    def surplus_powers(surplus: tuple[int, ...]) -> tuple[int, int]:
        # few distinct surpluses recur along a table: about 100 over 2000 entries
        up = math.prod(q**s for (q, _), s in zip(primes, surplus) if s > 0)
        down = math.prod(q**-s for (q, _), s in zip(primes, surplus) if s < 0)
        return up, down

    binom, v_binom = 1, [0] * len(primes)  # C(N, b) without its q, and its v_q
    for b in range(bs.stop):
        if b:  # C(N, b) = C(N, b-1) (N-b+1) / b
            factor, v_factor = _strip(N - b + 1, primes)
            divisor, v_divisor = _strip(b, primes)
            binom = binom * factor // divisor
            v_binom = [v + i - j for v, i, j in zip(v_binom, v_factor, v_divisor)]
        if b < bs.start:
            continue
        base, v_base = _strip(d - min(b + 1, N) * a, primes)
        top, v_top = _strip(b + 1, primes)
        e_top = max(b - 1, 0)
        num = binom * a**b * base ** (N - b) * top**e_top
        valuations = zip(primes, v_binom, v_base, v_top)
        surplus = tuple(vc + (N - b) * vx + e_top * vt - N * e for (_, e), vc, vx, vt in valuations)
        up, down = surplus_powers(surplus)
        yield _coprime_fraction(num * up, rest_N * down)


def _abelian_terms(N: int, p: Fraction, bs: range):
    """P(Z_N = b) = C/(1 - bp) * P(X_(N-1) = b-1) for b in bs.

    With p = a/d the weight C/(1 - bp) is (d-Na) d / ((d-(N-1)a)(d-ba)), a
    ratio of small integers (at b = N its (d-Na) cancels), so multiplying
    by it takes gcds of a big integer against a small one only.
    """
    a, d = p.numerator, p.denominator
    avalanche = _avalanche_terms(N - 1, p, range(bs.start - 1, bs.stop - 1))
    for b, term in zip(bs, avalanche):
        yield term * Fraction((d - N * a) * d, (d - (N - 1) * a) * (d - b * a))


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
    _, log_block, shift, _, _, _, _ = _TERMS[family]
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
        exact_terms, _, shift, _, _, _, _ = _TERMS[family]
        return next(exact_terms(params.N, params.p, range(b - shift, b - shift + 1)))
    import numpy as np

    return _float_block(family, params, np.array([b]))[0].item()


def exact_source(family: str, params: Params) -> tuple:
    """The exact generator and the (N, p, range) it runs on for pmf_table.

    Equal sources give equal probabilities: the avalanche and shifted
    families, one generator on one range, share theirs.
    """
    sup = support(family, params.N)
    exact_terms, _, shift, _, _, _, _ = _TERMS[family]
    return exact_terms, params.N, params.p, range(sup.start - shift, sup.stop - shift)


def pmf_table(family: str, params: Params) -> PmfTable:
    """Whole-support table: exact Fractions, or a read-only float64 array."""
    sup = support(family, params.N)
    if params.is_exact:
        exact_terms, *arguments = exact_source(family, params)
        return PmfTable(family, params, sup, tuple(exact_terms(*arguments)), None)
    _, log_block, shift, _, _, _, k = _TERMS[family]
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
    g = math.prod(q ** sum(n // q**j for j in range(1, n.bit_length())) for q, _ in _small_prime_factors(d, n))
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


# family -> (exact terms, log block, shift s, first support point b0, mean,
# second moment, tail weight k): the family lives on b0..N + s, where
# P(family = b) is the terms' entry, and the exp of the log block's term, at
# b - s; the moments are those at shift 0, which moments() moves by s.  At the
# table index j = b - b0 it is the Avalanche law at N + s - b0 times a weight
# c/(1 - (j+1)p)^k, which _tail_falls reads.  Shifted is Avalanche at s = 1.
_TERMS = {
    "abelian": (_abelian_terms, _abelian_log_block, 0, 1, abelian_mean, abelian_second_moment, 1),
    "avalanche": (_avalanche_terms, _avalanche_log_block, 0, 0, avalanche_mean, _avalanche_second_moment, 0),
    "shifted": (_avalanche_terms, _avalanche_log_block, 1, 1, avalanche_mean, _avalanche_second_moment, 0),
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


def moments(family: str, params: Params) -> Moments:
    """The family's moments from its record at shift 0, moved by s; a non-finite float variance is refused."""
    _, _, s, _, mean_of, second_of, _ = _family(family)
    mean, second = mean_of(params), second_of(params)
    variance = second - mean * mean
    if not (params.is_exact or math.isfinite(variance)):
        raise ValueError("non-finite variance")
    return Moments(mean + s, second + 2 * s * mean + s * s, variance, params.mode)


def j_decomposition(params: Params) -> JDecomposition:
    """Exact J1..J6 terms of the second-moment rewrite, invariants checked.

    J2 comes from the raw double sum over rows s(i, .), J3 from the closed
    form the float tail uses, and J4 through the truncated-row polynomials
    P_i, so J2 = J3 + J4 checks that closed form in exact arithmetic.
    """
    if not params.is_exact:
        raise ValueError("j_decomposition requires exact-mode params")
    N, p, alpha = params.N, params.p, params.alpha
    if N < 2:
        raise ValueError("need N >= 2")

    C = normalization_C(params)
    J1, J3 = _j1_j3(params)
    # Rows 1..N-1 in one pass: row i less its top coefficient is J2's i-th
    # polynomial, and less its top two it is P_(i-2) (empty at i = 1).
    rows = enumerate(islice(stirling_rows(), 1, N), 1)
    j2_values, p_values = zip(*((horner(row[:i], N), horner(row[: i - 1], N)) for i, row in rows))
    p_values = p_values[1:]
    J2 = horner(j2_values, p)
    kstar = split_index(N)
    J4 = p * horner(p_values, p)
    J5 = p * horner(p_values[:kstar], p)
    J6 = p ** (kstar + 1) * horner(p_values[kstar:], p)
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
