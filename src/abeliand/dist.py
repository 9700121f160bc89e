"""The Abelian and Avalanche distribution families.

Two evaluation modes share one API.  Exact mode works in
``fractions.Fraction`` throughout, so normalization, moment identities and
the J-term rewrite of the second moment can be asserted with equality.
Float mode evaluates PMFs in log space (log-gamma binomials, log1p) and
keeps only their exponentials.  One term table serves pmf and pmf_table.

Both modes take E(X) and the second-moment bracket from one running
product of the falling-power terms (n)_i p^i.  Float mode sums the bracket
with a single compensated fsum and switches to the J-term tail form for
large N, where the bracket cancels catastrophically.  The exact J-term
rewrite evaluates the Stirling-row polynomials P_i(N) by integer Horner.

The Abelian family lives on {1..N}, the Avalanche family on {0..N}, and the
shifted Avalanche family (Avalanche + 1) on {1..N+1}.  The shared parameter
constraint is 0 < p < 1/N; alpha = N*p is the scale-free form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .stirling import horner, split_index, stirling_row

FAMILIES = ("abelian", "avalanche", "shifted")

Number = Union[Fraction, float]

_BRUTE_FORCE_N_MAX = 30
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
    with exactly one of p or alpha.
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
    support: tuple[int, ...]
    probs_exact: tuple[Fraction, ...] | None
    probs_float: tuple[float, ...] | None


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


def support(family: str, N: int) -> range:
    if family == "abelian":
        return range(1, N + 1)
    if family == "avalanche":
        return range(0, N + 1)
    if family == "shifted":
        return range(1, N + 2)
    raise ValueError(f"unknown family {family!r}")


def normalization_C(params: Params) -> Number:
    """C = (1 - N*p) / (1 - (N-1)*p), in (0, 1)."""
    N, p = params.N, params.p
    return (1 - N * p) / (1 - (N - 1) * p)


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _abelian_term(params: Params):
    N, p, C = params.N, params.p, normalization_C(params)
    return lambda b: (
        C
        * math.comb(N - 1, b - 1)
        * p ** (b - 1)
        * (1 - b * p) ** (N - b - 1)
        * Fraction(b) ** (b - 2)
    )


def _abelian_log_term(params: Params):
    """b -> log of the Abelian PMF, assembled factor by factor in log space.

    Every base is positive on the support: 1 - b*p >= 1 - N*p > 0.  The
    b = N term carries exponent N-b-1 = -1 and b = 1 contributes
    (b-2)*log(b) = 0, both handled by plain arithmetic here.
    """
    N, p = params.N, params.p
    log_C = math.log1p(-N * p) - math.log1p(-(N - 1) * p)
    log_p = math.log(p)
    return lambda b: (
        log_C
        + _log_binom(N - 1, b - 1)
        + (b - 1) * log_p
        + (N - b - 1) * math.log1p(-b * p)
        + (b - 2) * math.log(b)
    )


def _avalanche_term(params: Params):
    N, p = params.N, params.p
    return lambda b: (
        math.comb(N, b)
        * p**b
        * (1 - (b + 1) * p) ** (N - b)
        * Fraction(b + 1) ** (b - 1)
    )


def _avalanche_log_term(params: Params):
    """b -> log of the Avalanche PMF.

    The factor (1 - (b+1)*p)^(N-b) is skipped when its exponent is zero
    (b = N), where its base may be <= 0 but the factor is 1 by convention.
    """
    N, p = params.N, params.p
    log_p = math.log(p)

    def term(b):
        lp = _log_binom(N, b) + b * log_p + (b - 1) * math.log(b + 1)
        if b < N:
            lp += (N - b) * math.log1p(-(b + 1) * p)
        return lp

    return term


# family -> (exact term, log term, shift): P(family = b) is term(params) at
# b - shift, for b in support(family, N) only.
_TERMS = {
    "abelian": (_abelian_term, _abelian_log_term, 0),
    "avalanche": (_avalanche_term, _avalanche_log_term, 0),
    "shifted": (_avalanche_term, _avalanche_log_term, 1),
}


def pmf(family: str, params: Params, b: int) -> Number:
    """P(family = b): the exact term, or exp of the log term in float mode."""
    sup = support(family, params.N)
    if b not in sup:
        raise ValueError(f"b={b} outside {family} support {sup[0]}..{sup[-1]}")
    exact_term, log_term, shift = _TERMS[family]
    if params.is_exact:
        return exact_term(params)(b - shift)
    return math.exp(log_term(params)(b - shift))


def abelian_pmf(params: Params, b: int) -> Number:
    """P(Z = b) = C * binom(N-1,b-1) * p^(b-1) * (1-bp)^(N-b-1) * b^(b-2)."""
    return pmf("abelian", params, b)


def avalanche_pmf(params: Params, b: int) -> Number:
    """P(X = b) = binom(N,b) * p^b * (1-(b+1)p)^(N-b) * (b+1)^(b-1)."""
    return pmf("avalanche", params, b)


def shifted_pmf(params: Params, b: int) -> Number:
    """P(Y = b) = P(X = b-1) on the shifted support 1..N+1."""
    return pmf("shifted", params, b)


def pmf_table(family: str, params: Params) -> PmfTable:
    """Whole-support table of exact or float probabilities."""
    sup = support(family, params.N)
    exact_term, log_term, shift = _TERMS[family]
    if params.is_exact:
        term = exact_term(params)
        probs = tuple(term(b - shift) for b in sup)
        return PmfTable(family, params, tuple(sup), probs, None)
    term = log_term(params)
    probs = tuple(map(math.exp, (term(b - shift) for b in sup)))
    return PmfTable(family, params, tuple(sup), None, probs)


def abelian_mean(params: Params) -> Number:
    """E(Z) = N / (N - (N-1)*alpha)."""
    N, alpha = params.N, params.alpha
    return N / (N - (N - 1) * alpha)


def _falling_powers(n: int, p: Number):
    """Terms (n)_i * p^i for i = 1..n, as the running product of (n-i+1)*p.

    Each factor is below alpha < 1, so the terms decrease.  Float p stops
    after the first term below 1e-25; exact p yields every term.
    """
    cut = 0 if isinstance(p, Fraction) else 1e-25
    t = 1
    for i in range(1, n + 1):
        t *= (n - i + 1) * p
        yield t
        if t < cut:
            return


def _total(terms, exact: bool) -> Number:
    # fsum rounds once over all the terms: the float bracket must go through
    # it whole, or the cancellation between 1/(1-Np) - 1 and the series
    # rounds differently.
    return sum(terms, start=Fraction(0)) if exact else math.fsum(terms)


def avalanche_mean(params: Params) -> Number:
    """E(X) = sum_{i=1..N} (N)_i * p^i, with (N)_i the falling factorial."""
    return _total(_falling_powers(params.N, params.p), params.is_exact)


def abelian_second_moment(params: Params) -> Number:
    """E(Z^2) = (C/p) * [1/(1-Np) - 1 - sum_{i=1..N-1} (N-1)_i p^i]."""
    N, p, alpha = params.N, params.p, params.alpha
    C = normalization_C(params)
    if params.is_exact or N <= _FLOAT_TAIL_N:
        series = (-t for t in _falling_powers(N - 1, p))
        return C / p * _total([1 / (1 - N * p), -1, *series], params.is_exact)
    J1 = alpha**N / (p * (1.0 - alpha))
    return C * (J1 - _float_J3_closed(N, alpha) - _float_J4(N, alpha))


def _float_J3_closed(N: int, alpha: float) -> float:
    # Closed partial sum of -sum_{i=0}^{N-2} alpha^i (i+1)(i+2)/2: the full
    # series is 1/(1-alpha)^3 and the tail at M = N-2 telescopes into three
    # geometric pieces.
    one = 1.0 - alpha
    tail = alpha ** (N - 1) * (
        1.0 / one**3 + (N - 1) * alpha / one**2 + (N - 1) * (N + 2) / (2.0 * one)
    )
    return -1.0 / one**3 + tail


def _float_J4(N: int, alpha: float) -> float:
    # J4 = sum_i alpha^(i+1) * [N*(Q_i - 1) + (i+2)(i+3)/2] with
    # Q_i = prod_{k=1..i+2} (1 - k/N): the p^(i+1) (N-1)_(i+2) + p^(i+1) h_i(N)
    # split of each P_i term, computed without forming either giant factor.
    terms = []
    q = (1.0 - 1.0 / N) * (1.0 - 2.0 / N)
    apow = alpha
    for i in range(N - 2):  # i = 0 .. N-3
        if i > 0:
            q *= 1.0 - (i + 2.0) / N
        terms.append(apow * (N * (q - 1.0) + 0.5 * (i + 2) * (i + 3)))
        apow *= alpha
        # |bracket| <= N + (i+3)(i+4)/2 and <= 2N^2 once the sandwich bound
        # kicks in; either way the geometric tail below is negligible.
        if apow * (2.0 * N * N + (i + 3) * (i + 4) + N) / (1.0 - alpha) < 1e-18:
            break
    return math.fsum(terms)


def abelian_variance(params: Params) -> Moments:
    """Mean, second moment and variance of the Abelian family."""
    mean = abelian_mean(params)
    second = abelian_second_moment(params)
    return Moments(mean, second, second - mean * mean, params.mode)


def brute_force_moment(family: str, params: Params, k: int) -> Number:
    """k-th raw moment by direct summation over the whole ``pmf_table``.

    The exact-mode oracle for every closed form; cost-guarded to N <= 30.
    Float mode sums the float table instead and carries no guard.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    exact = params.is_exact
    if exact and params.N > _BRUTE_FORCE_N_MAX:
        raise ValueError(f"exact brute force guarded to N <= {_BRUTE_FORCE_N_MAX}")
    table = pmf_table(family, params)
    number = Fraction if exact else float
    probs = table.probs_exact if exact else table.probs_float
    return _total((number(b) ** k * q for b, q in zip(table.support, probs)), exact)


def moments(family: str, params: Params) -> Moments:
    """Moments for any family: closed forms for Abelian, summation otherwise."""
    if family == "abelian":
        return abelian_variance(params)
    m1 = brute_force_moment(family, params, 1)
    m2 = brute_force_moment(family, params, 2)
    return Moments(m1, m2, m2 - m1 * m1, params.mode)


def j_decomposition(params: Params) -> JDecomposition:
    """Exact J1..J6 terms of the second-moment rewrite, invariants checked.

    J2 comes from the raw double sum over rows s(i, .); J4 is recomputed
    independently through the truncated-row polynomials P_i, so the returned
    object's J2 = J3 + J4 equality is a genuine cross-check, not bookkeeping.
    """
    if not params.is_exact:
        raise ValueError("j_decomposition requires exact-mode params")
    N, p, alpha = params.N, params.p, params.alpha
    if N < 2:
        raise ValueError("need N >= 2")

    C = normalization_C(params)
    J1 = alpha**N / (p * (1 - alpha))
    J2 = sum(
        (p ** (i - 1) * horner(stirling_row(i).coeffs[:i], N) for i in range(1, N)),
        start=Fraction(0),
    )
    J3 = -sum(
        (alpha**i * Fraction((i + 1) * (i + 2), 2) for i in range(N - 1)),
        start=Fraction(0),
    )
    # P_i(N): row i+2 without its two top coefficients, i = 0 .. N-3
    p_values = [horner(stirling_row(i + 2).coeffs[: i + 1], N) for i in range(N - 2)]
    J4 = p * sum((p**i * v for i, v in enumerate(p_values)), start=Fraction(0))
    kstar = split_index(N)
    J5 = p * sum(
        (p**i * v for i, v in enumerate(p_values) if i < kstar), start=Fraction(0)
    )
    J6 = p * sum(
        (p**i * v for i, v in enumerate(p_values) if i >= kstar), start=Fraction(0)
    )
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
    limit = alpha / (1.0 - alpha) ** 3
    rows = []
    for N in Ns:
        try:
            v = abelian_variance(Params.stable(N, alpha=alpha)).variance
        except (OverflowError, ValueError) as exc:
            rows.append(ConvergenceRow(N, None, limit, None, str(exc)))
            continue
        if not math.isfinite(v):
            rows.append(ConvergenceRow(N, None, limit, None, "non-finite variance"))
            continue
        rows.append(ConvergenceRow(N, v, limit, abs(v - limit)))
    return rows
