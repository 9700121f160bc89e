"""Machine-checkable identity suites behind the `verify` CLI subcommand.

Each suite walks a parameter range, counts checks, and records one message
per failure.  Exact suites assert rational equality; float suites assert
the documented tolerances.  Everything is deterministic for a fixed seed,
so two runs with identical flags print identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import dist, sampler
from .dist import Params
from .stirling import (
    check_bound_f,
    check_lemma_P,
    check_product_bound,
    falling_factorial,
    horner,
    split_index,
    stirling_row,
    unsigned_stirling,
    unsigned_stirling_subset_oracle,
)

ALPHA_GRID = tuple(Fraction(k, 10) for k in range(1, 10))

# Probabilities below this are outside double range; the float/exact
# comparison switches from relative error to a smallness assertion there.
_FLOAT_FLOOR = 1e-280


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, ok: bool, msg: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(msg)


def suite_stirling(max_i: int = 60) -> SuiteResult:
    r = SuiteResult("stirling")
    for i in range(max_i + 1):
        coeffs = stirling_row(i).coeffs
        r.check(coeffs[i] == 1, f"diagonal entry != 1 in row {i}")
        if i >= 1:
            r.check(
                coeffs[i - 1] == -i * (i + 1) // 2,
                f"subdiagonal entry wrong in row {i}",
            )
        for j, c in enumerate(coeffs):
            expected_sign = -1 if (i - j) % 2 else 1
            r.check(
                c == 0 or (c > 0) == (expected_sign > 0),
                f"sign pattern broken at row {i}, j={j}",
            )
        for x in range(i + 2):
            r.check(
                horner(coeffs, x) == falling_factorial(x - 1, i),
                f"row {i} does not expand (x-1)_({i}) at x={x}",
            )
        for x in range(1, 11):
            r.check(
                horner([abs(c) for c in coeffs], x) == falling_factorial(x + i, i),
                f"unsigned row {i} does not expand (x+{i})_({i}) at x={x}",
            )
    for i in range(1, 13):
        for j in range(1, i + 1):
            r.check(
                unsigned_stirling_subset_oracle(i, j) == unsigned_stirling(i, j),
                f"subset oracle mismatch at ({i},{j})",
            )
    return r


def suite_bounds() -> SuiteResult:
    r = SuiteResult("bounds")
    for i in range(41):
        for j in range(i + 1):
            cert = check_bound_f(i, j)
            r.check(cert.holds, f"f-bound fails at (i={i}, j={j}): {cert.lhs} > {cert.rhs}")
    for N in range(4, 41):
        for i in range(1, N - 2):
            cert = check_lemma_P(i, N)
            r.check(cert.equality_holds, f"P/h decomposition fails at (i={i}, N={N})")
            if cert.strong_gate:
                r.check(
                    bool(cert.inequalities_hold),
                    f"P sandwich fails at (i={i}, N={N})",
                )
    for N in range(1, 201):
        for i in range(split_index(N)):
            cert = check_product_bound(i, N)
            r.check(
                cert.holds,
                f"product bound fails at (i={i}, N={N}): {float(cert.product)}",
            )
    return r


class ExactTables:
    """The exact PMF tables of one run of the suites, each built once.

    Keyed by dist.exact_source, the (n, p, range, k) that the exact
    generator runs on for a table, so the avalanche and shifted families,
    one input to it, share a table.  The exact suites take one; run_suites
    makes one per run.
    """

    def __init__(self):
        self._probs: dict[tuple, tuple[Fraction, ...]] = {}

    def get(self, family: str, params: Params) -> dist.PmfTable:
        source = dist.exact_source(family, params)
        if source not in self._probs:
            self._probs[source] = dist.pmf_table(family, params).probs_exact
        return dist.PmfTable(family, params, dist.support(family, params.N), self._probs[source], None)


def suite_pmf(max_n: int = 25, tables: ExactTables | None = None) -> SuiteResult:
    r = SuiteResult("pmf")
    tables = tables or ExactTables()
    for N in range(1, max_n + 1):
        for alpha in ALPHA_GRID:
            params = Params.exact(N, alpha=alpha)
            for family in dist.FAMILIES:
                table = tables.get(family, params)
                r.check(
                    dist.table_moment(table, 0) == 1,
                    f"{family} pmf sum != 1 at N={N}, alpha={alpha}",
                )
                r.check(
                    all(q >= 0 for q in table.probs_exact),
                    f"{family} pmf has negative mass at N={N}, alpha={alpha}",
                )
    return r


def suite_moments(max_n: int = 25, tables: ExactTables | None = None) -> SuiteResult:
    r = SuiteResult("moments")
    tables = tables or ExactTables()
    for N in range(1, max_n + 1):
        for alpha in ALPHA_GRID:
            params = Params.exact(N, alpha=alpha)
            m = dist.abelian_variance(params)
            table = tables.get("abelian", params)
            r.check(
                m.mean == dist.table_moment(table, 1),
                f"abelian mean mismatch at N={N}, alpha={alpha}",
            )
            r.check(
                m.second_moment == dist.table_moment(table, 2),
                f"abelian second moment mismatch at N={N}, alpha={alpha}",
            )
            r.check(
                m.variance == m.second_moment - m.mean**2 and m.variance >= 0,
                f"abelian variance inconsistent at N={N}, alpha={alpha}",
            )
            if N <= 20:
                r.check(
                    dist.avalanche_mean(params)
                    == dist.table_moment(tables.get("avalanche", params), 1),
                    f"avalanche mean mismatch at N={N}, alpha={alpha}",
                )
    return r


def suite_shift(max_n: int = 20, tables: ExactTables | None = None) -> SuiteResult:
    # Parametrized by p = alpha/(N+1) so the (N+1)-parameter Abelian family
    # on the right-hand side of the mean identity is itself valid.
    r = SuiteResult("shift")
    tables = tables or ExactTables()
    for N in range(1, max_n + 1):
        for alpha in ALPHA_GRID:
            p = alpha / (N + 1)
            params = Params.exact(N, p=p)
            mean_y = dist.table_moment(tables.get("shifted", params), 1)
            mean_x = dist.avalanche_mean(params)
            r.check(
                mean_y == mean_x + 1,
                f"shift mean identity fails at N={N}, alpha={alpha}",
            )
            up = Params.exact(N + 1, p=p)
            C_up = dist.normalization_C(up)
            rhs = (
                dist.abelian_mean(up) / C_up
                - p * dist.abelian_second_moment(up) / C_up
            )
            r.check(
                mean_y == rhs,
                f"shift/abelian mean relation fails at N={N}, alpha={alpha}",
            )
    return r


def suite_jdecomp(max_n: int = 20, tables: ExactTables | None = None) -> SuiteResult:
    r = SuiteResult("jdecomp")
    tables = tables or ExactTables()
    for N in range(2, max_n + 1):
        for alpha in ALPHA_GRID:
            params = Params.exact(N, alpha=alpha)
            try:
                jd = dist.j_decomposition(params)
            except ArithmeticError as exc:
                r.check(False, str(exc))
                continue
            r.check(
                jd.J2 == jd.J3 + jd.J4 and jd.J4 == jd.J5 + jd.J6,
                f"J splits broken at N={N}, alpha={alpha}",
            )
            r.check(
                jd.C * (jd.J1 - jd.J2)
                == dist.table_moment(tables.get("abelian", params), 2),
                f"C*(J1-J2) != E[Z^2] at N={N}, alpha={alpha}",
            )
    return r


def _relative_gap(approx: float, exact: Fraction) -> float:
    e = float(exact)
    if e <= _FLOAT_FLOOR:
        return 0.0 if abs(approx) <= _FLOAT_FLOOR else math.inf
    return abs(approx - e) / e


def suite_float(tables: ExactTables | None = None) -> SuiteResult:
    r = SuiteResult("float")
    tables = tables or ExactTables()
    for family in dist.FAMILIES:
        for N, tol, alphas in (
            (10**3, 1e-10, (0.3, 0.5, 0.9)),
            (10**4, 1e-10, (0.5,)),
            (10**5, 1e-8, (0.5,)),
        ):
            for alpha in alphas:
                table = dist.pmf_table(family, Params.stable(N, alpha=alpha))
                gap = abs(math.fsum(table.probs_float) - 1.0)
                r.check(
                    gap <= tol,
                    f"float {family} sum off by {gap:.3e} at N={N}, alpha={alpha}",
                )
    agreement = [(n, Fraction(a, 10)) for n in (2, 10, 100) for a in (3, 5, 7)]
    agreement.append((1000, Fraction(1, 2)))
    for N, alpha in agreement:
        exact = Params.exact(N, alpha=alpha)
        approx = Params.stable(N, alpha=float(alpha))
        for family in dist.FAMILIES:
            etab = tables.get(family, exact)
            ftab = dist.pmf_table(family, approx)
            worst = max(
                _relative_gap(f, e)
                for f, e in zip(ftab.probs_float, etab.probs_exact)
            )
            r.check(
                worst <= 1e-9,
                f"float {family} pmf off by {worst:.3e} at N={N}, alpha={alpha}",
            )
        ve = dist.abelian_variance(exact).variance
        vf = dist.abelian_variance(approx).variance
        r.check(
            abs(vf - float(ve)) <= 1e-9 * float(ve),
            f"float variance off at N={N}, alpha={alpha}",
        )
    return r


def suite_limit() -> SuiteResult:
    r = SuiteResult("limit")
    for alpha in (0.3, 0.5, 0.7):
        rows = dist.convergence_table(alpha, [100, 1000, 10000])
        r.check(
            all(row.error is None for row in rows),
            f"error rows in convergence table at alpha={alpha}",
        )
        errs = [row.abs_error for row in rows]
        r.check(
            errs[0] > errs[1] > errs[2],
            f"abs_error not strictly decreasing at alpha={alpha}: {errs}",
        )
        if alpha == 0.5:
            r.check(
                errs[-1] < 0.05,
                f"abs_error {errs[-1]:.4f} >= 0.05 at N=10000, alpha=0.5",
            )
    return r


def total_variation(counts: dict[int, int], M: int, table: dist.PmfTable) -> float:
    probs = table.probs_exact or table.probs_float
    return 0.5 * math.fsum(
        abs(counts.get(b, 0) / M - float(q)) for b, q in zip(table.support, probs)
    )


def _chi2_sf(x: float, k: int) -> float:
    """Upper tail P(X >= x) of the chi-square law with k >= 1 degrees of freedom.

    Closed form for integer k, with h = x/2: for even k,
    exp(-h) * sum_{j < k/2} h^j / j!; for odd k,
    erfc(sqrt(h)) + exp(-h) * sum_{j=1}^{(k-1)/2} h^(j-1/2) / Gamma(j+1/2).
    Every term is positive, so nothing cancels.  Tested against mpmath to
    1e-13 relative for k <= 60 and x <= 400 wherever the tail exceeds 1e-300.
    """
    h = 0.5 * x
    if k % 2 == 0:
        total = term = math.exp(-h)
        for j in range(1, k // 2):
            term *= h / j
            total += term
        return total
    total = math.erfc(math.sqrt(h))
    term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    for j in range(1, (k + 1) // 2):
        total += term
        term *= h / (j + 0.5)
    return total


# The sampler suite's draws: `samples` of them at each N, p = 0.8/N.
SAMPLER_NS = (3, 5, 10)


def _mean_gap(stats: sampler.SampleStats, exact: Params) -> tuple[float, float]:
    """|empirical - exact mean| and the mean's standard error from the exact variance.

    The empirical standard error is 0 when every draw agrees, which would
    fail a correct sampler at a few draws.
    """
    variance = dist.moments("avalanche", exact).variance
    return abs(stats.empirical_mean - dist.rounded_avalanche_mean(exact)), math.sqrt(variance / stats.M)


def suite_sampler(samples: int = 1_000_000, seed: int = 42, tables: ExactTables | None = None) -> SuiteResult:
    r = SuiteResult("sampler")
    tables = tables or ExactTables()
    small = sampler.monte_carlo(Params.stable(4, p=0.2), 2000, seed)
    again = sampler.monte_carlo(Params.stable(4, p=0.2), 2000, seed)
    r.check(small == again, "monte_carlo not deterministic for a fixed seed")
    r.check(
        sum(small.empirical_pmf.values()) == small.M,
        "empirical counts do not sum to M",
    )

    # One draw per point: the N=10 point (p = 2/25) also serves the TV check.
    points = {N: Fraction(4, 5 * N) for N in SAMPLER_NS}
    draws = {
        N: sampler.monte_carlo(Params.stable(N, p=float(p)), samples, seed)
        for N, p in points.items()
    }

    exact = Params.exact(10, p=points[10])
    stats = draws[10]
    table = tables.get("avalanche", exact)
    tv = total_variation(stats.empirical_pmf, stats.M, table)
    # TV's sampling noise shrinks like 1/sqrt(M): 0.005 at 10^6 draws.
    bound = 0.005 * math.sqrt(10**6 / samples)
    r.check(tv < bound, f"TV distance {tv:.5f} >= {bound:g} at N=10, p=0.08")
    gap, stderr = _mean_gap(stats, exact)
    r.check(
        gap <= 4 * stderr,
        f"empirical mean off by {gap:.5f} (> 4 stderr) at N=10, p=0.08",
    )

    for N, p in points.items():
        ex = Params.exact(N, p=p)
        st = draws[N]
        expected = [float(q) * st.M for q in tables.get("avalanche", ex).probs_exact]
        scale = st.M / math.fsum(expected)
        chi2 = math.fsum(
            (st.empirical_pmf.get(b, 0) - e * scale) ** 2 / (e * scale)
            for b, e in enumerate(expected)
        )
        pvalue = _chi2_sf(chi2, N)  # N + 1 cells: N degrees of freedom
        r.check(
            pvalue >= 1e-4,
            f"chi-square rejects at N={N}, p=0.8/{N}: p-value {pvalue:.2e}",
        )
        mean_gap, stderr = _mean_gap(st, ex)
        r.check(
            mean_gap <= 4 * stderr,
            f"empirical mean off by {mean_gap:.5f} (> 4 stderr) at N={N}, p=0.8/{N}",
        )
    return r


def _runners(max_n: int, samples: int, seed: int, tables: ExactTables | None) -> dict:
    # Suite name -> runner, in run order.  Built per call so each runner
    # looks up its suite function when the run starts.
    return {
        "stirling": suite_stirling,
        "bounds": suite_bounds,
        "pmf": lambda: suite_pmf(max_n, tables),
        "moments": lambda: suite_moments(max_n, tables),
        "shift": lambda: suite_shift(min(max_n, 20), tables),
        "jdecomp": lambda: suite_jdecomp(min(max_n, 20), tables),
        "float": lambda: suite_float(tables),
        "limit": suite_limit,
        "sampler": lambda: suite_sampler(samples, seed, tables),
    }


SUITE_NAMES = tuple(_runners(0, 0, 0, None))


def run_suites(
    names=None,
    max_n: int = 25,
    samples: int = 1_000_000,
    seed: int = 42,
) -> list[SuiteResult]:
    # one table store a run: a later run builds its tables afresh
    runners = _runners(max_n, samples, seed, ExactTables())
    if names is None:
        names = SUITE_NAMES
    unknown = [n for n in names if n not in runners]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return [runners[n]() for n in names]
