"""Command-line front end: PMF tables, moments, limit studies, sampling,
and the verification suites.  CSV/JSON go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
The default RNG seed is 42; `--seed` wins over the ABELIAND_SEED
environment variable, which wins over the default.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from . import dist, sampler, verify
from .dist import Params

DEFAULT_SEED = 42
DEFAULT_SAMPLE_M = 100_000

_MAX_FAILURES_SHOWN = 20

# Rows per json.dumps call in JSON tables.  One call per row made float
# `pmf --output json` at N = 10^6 take 4.2 s instead of 1.6 s (2 cores,
# Python 3.11); 64 rows a call run as fast as one call for the whole table,
# and 64 exact rows at N = 2000 (~7000-digit integers) hold about 1 MB.
_JSON_BATCH = 64

# Largest N that `pmf` serves in each mode, from measurements on a 2-core
# VM (Python 3.11): the exact Abelian table at alpha = 1/2 takes 0.06-0.09 s
# at N = 1000, 0.3-0.6 s at N = 2000 and 2.5-2.9 s at N = 4000 (31, 40 and
# 79 MB).  Exact `pmf` end to end takes 0.9 s at N = 1000 and 4.6 s at
# N = 2000, of which 2.5 s is the decimal conversion of its ~7000-digit
# integers, which grows with the square of their length: the conversion,
# not the table, is most of the run.  Float `pmf` at N = 10^6 and
# alpha = 0.5 takes 1.3-1.8 s end to end in CSV or JSON and peaks at 32 MB:
# interpreter start 0.3 s and the table 0.04 s (its 3783 nonzero entries),
# the rest output formatting.  Where no entry underflows (alpha = 0.999999)
# the table takes 0.7 s of 3-5 s and the run peaks at 48 MB.  Both grow
# linearly in N.  Float `moments` of every family and `limit` keep the
# float budget.  The Avalanche and shifted series have O(sqrt N) terms near
# alpha = 1 (8 ms at N = 10^6, 1.0 s at N = 10^10, alpha = 0.999999), but
# above N = 1000 the Abelian E[Z^2] streams up to N-2 J-tail terms: about
# 1 s end to end at N = 10^6, alpha = 0.999999.  The Abelian variance holds
# a stated relative error up to N = 10^6; past it the error grows about
# linearly in N (2.2e-10 at N = 10^7, 1.3e-7 at N = 10^10, alpha = 0.5).
PMF_MAX_N = {"exact": 2000, "float": 10**6}

# Largest N*D, D the decimal digits of d in p = a/d, that exact `pmf` and
# exact `moments` serve; both refuse more with exit 2 before any work.  An
# exact value holds about N*D digits, so N alone does not bound its cost.
# End to end on the same VM: exact `pmf` takes 25-27 s and prints 70 MB at
# the pmf cap's worst point, N = 2000 and alpha = 999999/1000000 (D = 10),
# 2.4-3.6 s of it the table and 21.5 s the decimal conversion, and 2.5 s at
# N = 200, D = 100; N = 100 with D = 1001, refused, would take 24 s, 1.5 s of
# it the table.
# Every family's moments sum an N-term series of such integers, quadratic in
# N.  At N = 2*10^4, alpha = 1/2 (D = 5) they take 1.4 s end to end for the
# Abelian family and 3.9 s for the Avalanche family (2.2 s in process, most
# of it the Fractions of E(X^2) - E(X)^2); the Abelian moments take 0.6 s at
# N = 10^4 and 1.0 s at N = 9000, D = 10.  Without the cap N = 10^6 would
# run about an hour.
PMF_MAX_ND = 20_000
MOMENTS_MAX_ND = 100_000

# Largest N, and largest N*M (uniforms drawn), that `sample` serves, from
# measurements on the same VM, end to end at alpha = 0.9 and N*M = 10^8, the
# sampler on two threads: 48-51 M uniforms/s at N = 10, 81-97 M at N = 100,
# 133-164 M at N = 1000 and 103 M at N = 10^4, and 16-17 M draws/s at N = 1;
# 116-135 M at N = 10^6, where a row is longer than sampler.MAX_BLOCK and the
# sampler runs on one thread.  At the N*M cap N = 1000 takes 4.1 s and N = 1
# 57 s.  The run at N = 10^6 holds one row and its temporaries and peaks at
# 75 MB RSS, growing linearly in N.  Its exact_mean takes 9-14 ms near
# alpha = 1, at any length of d.
SAMPLE_MAX_N = 10**6
SAMPLE_MAX_UNIFORMS = 10**9

# Largest --max-n that `verify` serves, the one size budget of the brute-force
# oracles.  The exact pmf and moments sweeps grow about as N^2.4: in process on
# the same VM they take 3.2 and 2.9 s to N = 100 and 8.6 and 6.3 s to N = 150.
# A full `verify --max-n 150` takes 17-20 s end to end and peaks at 45 MB,
# under exact `pmf` at its own cap (26 s); the default 25 takes 2.3 s.
VERIFY_MAX_N = 150

# Largest --samples that `verify` serves: the sampler suite draws it three
# times, at N = 3, 5 and 10, in time linear in it.  End to end on the same VM
# the suite takes 4.9 s at 10^7 and 12.7 s at 3*10^7 (39 MB), and 20.8 s at
# 3*10^7 with the sampler on one thread, about a full `verify --max-n 150`;
# 4*10^7 took 16.6-18.0 s.
VERIFY_MAX_SAMPLES = 3 * 10**7


def _parse_ratio(text: str) -> Fraction:
    """Parse "num/den" or a decimal literal into an exact Fraction."""
    # Fraction() builds 10^|e| for a decimal exponent e: 9 s at |e| = 10^7.
    # Past |e| = 10^6 an argument of at most 128 KiB (Linux) is at least 1, or
    # its float is 0.0 and its d has over 10^5 digits: refused downstream anyway.
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)
    if exponent and int(exponent[1].replace("_", "").lstrip("0")[:8] or 0) > 10**6:
        raise ValueError(f"decimal exponents of size <= 1000000 are served, got {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a fraction or decimal") from exc
    return value


def _build_params(args, mode: str) -> tuple[Params, Params]:
    """The exact Params, checked first, and the Params in ``mode``.

    In float mode the second is the float twin of the typed --alpha or --p.
    """
    alpha = _parse_ratio(args.alpha) if args.alpha is not None else None
    p = _parse_ratio(args.p) if args.p is not None else None
    exact = Params.exact(args.N, p=p, alpha=alpha)
    return exact, exact if mode == "exact" else Params.stable(args.N, p=p, alpha=alpha)


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        seed = arg_seed
    else:
        env = os.environ.get("ABELIAND_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ValueError(f"ABELIAND_SEED must be an integer, got {env!r}") from None
        else:
            seed = DEFAULT_SEED
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def _write_json_rows(columns, rows) -> None:
    """Write the rows as one JSON array of objects, _JSON_BATCH rows at a time.

    The bytes are json.dumps([dict(zip(columns, row)) for row in rows]) and a
    newline, "[]" for no rows included, but no list of all the rows is built.
    """
    rows = iter(rows)
    sep = "["
    while batch := [dict(zip(columns, row)) for row in islice(rows, _JSON_BATCH)]:
        sys.stdout.write(sep + json.dumps(batch)[1:-1])
        sep = ", "
    sys.stdout.write("[]\n" if sep == "[" else "]\n")


def _emit_table(args, columns, rows) -> None:
    if args.output == "json":
        _write_json_rows(columns, rows)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit for the block, then restore it.

    Exact tables and moments hold integers of about N * log10(d) digits for
    p = a/d, past the default 4300-digit limit well inside the pmf budget
    (d = 4000 at N = 2000, alpha = 1/2).  Input parsing keeps the limit.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters without the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _decimal_digits(n: int) -> int:
    """len(str(n)) for an int n >= 1, without str(): 17 s at a million digits."""
    digits = int((n.bit_length() - 1) * 0.30102999566)  # <= log10 n: 0.30102999566 < log10 2
    power = 10**digits
    while n >= power:
        digits += 1
        power *= 10
    return digits


def _check_budget(command: str, quantity: str, value: int, budget: int, gloss: str = "") -> None:
    """Refuse a value over its budget, before any work, with the one message shape."""
    if value > budget:
        raise ValueError(f"{command} serves {quantity} <= {budget}{gloss}, got {quantity}={value}")


def _check_exact_size(command: str, params: Params, budget: int) -> None:
    """Refuse exact params whose N * (decimal digits of d), p = a/d, is over budget."""
    if params.is_exact:
        nd = params.N * _decimal_digits(params.p.denominator)
        _check_budget(f"{command} --mode exact", "N*D", nd, budget, ", D the digits of d in p = a/d")


def run_pmf(args) -> int:
    _check_budget(f"pmf --mode {args.mode}", "N", args.N, PMF_MAX_N[args.mode])
    _, params = _build_params(args, args.mode)
    _check_exact_size("pmf", params, PMF_MAX_ND)
    table = dist.pmf_table(args.family, params)
    # Rows are generated as they are written, in CSV and JSON alike.
    if params.is_exact:
        columns = ["b", "prob_num", "prob_den"]
        rows = (
            (b, q.numerator, q.denominator)
            for b, q in zip(table.support, table.probs_exact)
        )
    else:
        columns = ["b", "prob"]
        rows = zip(table.support, map(float, table.probs_float))
    with _unlimited_int_digits():
        _emit_table(args, columns, rows)
    return 0


def run_moments(args) -> int:
    if args.mode == "float":
        _check_budget(f"moments --family {args.family} --mode float", "N", args.N, PMF_MAX_N["float"])
    _, params = _build_params(args, args.mode)
    _check_exact_size("moments", params, MOMENTS_MAX_ND)
    m = dist.moments(args.family, params)
    fmt = str if params.is_exact else float
    columns = ["N", "alpha", "mean", "second_moment", "variance"]
    with _unlimited_int_digits():
        row = (
            args.N,
            fmt(params.alpha),
            fmt(m.mean),
            fmt(m.second_moment),
            fmt(m.variance),
        )
        _emit_table(args, columns, [row])
    return 0


def run_limit(args) -> int:
    alpha = _parse_ratio(args.alpha)
    if not 0 < alpha < 1:  # before float(), which overflows on 1e400
        raise ValueError("alpha must lie in (0, 1)")
    _check_budget("limit", "N", max(args.N), PMF_MAX_N["float"])
    rows = dist.convergence_table(float(alpha), args.N)
    columns = ["N", "variance", "limit", "abs_error"]
    out = []
    for row in rows:
        if row.error is not None:
            out.append((row.N, f"error: {row.error}", row.limit, ""))
        else:
            out.append((row.N, row.variance, row.limit, row.abs_error))
    _emit_table(args, columns, out)
    return 0


def run_sample(args) -> int:
    exact, params = _build_params(args, "float")
    seed = _resolve_seed(args.seed)
    _check_budget("sample", "N", args.N, SAMPLE_MAX_N)
    _check_budget("sample", "N*M", args.N * args.M, SAMPLE_MAX_UNIFORMS)
    stats = sampler.monte_carlo(params, args.M, seed)
    payload = {
        "family": "avalanche",
        "N": args.N,
        "p": float(params.p),
        "alpha": float(params.alpha),
        "M": stats.M,
        "seed": stats.seed,
        "empirical_mean": stats.empirical_mean,
        "empirical_variance": stats.empirical_variance,
        "stderr_mean": stats.stderr_mean,
        "empirical_pmf": {str(b): stats.empirical_pmf[b] for b in sorted(stats.empirical_pmf)},
        "exact_mean": dist.rounded_avalanche_mean(exact),
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def run_verify(args) -> int:
    for flag, value in (("--max-n", args.max_n), ("--samples", args.samples)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    _check_budget("verify", "--max-n", args.max_n, VERIFY_MAX_N)
    _check_budget("verify", "--samples", args.samples, VERIFY_MAX_SAMPLES)
    seed = _resolve_seed(args.seed)
    names = args.suite if args.suite else None
    results = verify.run_suites(names, max_n=args.max_n, samples=args.samples, seed=seed)
    for res in results:
        if res.ok:
            print(f"PASS {res.name} ({res.checks} checks)")
        else:
            print(f"FAIL {res.name} ({res.checks} checks, {len(res.failures)} failed)")
            for line in res.failures[:_MAX_FAILURES_SHOWN]:
                print(f"    {line}")
            if len(res.failures) > _MAX_FAILURES_SHOWN:
                print(f"    ... {len(res.failures) - _MAX_FAILURES_SHOWN} more")
    failed = sum(1 for res in results if not res.ok)
    if failed:
        print(f"{failed} of {len(results)} suites failed")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def _add_param_flags(parser):
    parser.add_argument("--N", type=int, required=True, help="population size N")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="alpha = N*p as a fraction string or decimal")
    group.add_argument("--p", help="p as a fraction string or decimal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abeliand",
        description="Abelian/Avalanche distribution tables, moments, limits, "
        "sampling, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pmf = sub.add_parser("pmf", help="print a PMF table")
    _add_param_flags(p_pmf)
    p_pmf.add_argument("--family", required=True, choices=dist.FAMILIES)
    p_pmf.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_pmf.add_argument("--output", choices=("csv", "json"), default="csv")
    p_pmf.set_defaults(func=run_pmf)

    p_mom = sub.add_parser("moments", help="print mean, second moment, variance")
    _add_param_flags(p_mom)
    p_mom.add_argument("--family", default="abelian", choices=dist.FAMILIES)
    p_mom.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_mom.add_argument("--output", choices=("csv", "json"), default="csv")
    p_mom.set_defaults(func=run_moments)

    p_lim = sub.add_parser(
        "limit", help="variance vs. the large-N limit alpha/(1-alpha)^3"
    )
    p_lim.add_argument("--alpha", required=True)
    p_lim.add_argument(
        "--N", type=int, nargs="+", default=[100, 1000, 10000], help="N values"
    )
    p_lim.add_argument("--output", choices=("csv", "json"), default="csv")
    p_lim.set_defaults(func=run_limit)

    p_sam = sub.add_parser("sample", help="seeded Monte Carlo of the Avalanche family")
    _add_param_flags(p_sam)
    p_sam.add_argument("--M", type=int, default=DEFAULT_SAMPLE_M, help="number of draws")
    p_sam.add_argument("--seed", type=int, default=None)
    p_sam.set_defaults(func=run_sample)

    p_ver = sub.add_parser("verify", help="run the identity/verification suites")
    p_ver.add_argument(
        "--suite",
        action="append",
        choices=verify.SUITE_NAMES,
        help="run only the named suite (repeatable; default: all)",
    )
    p_ver.add_argument(
        "--max-n",
        type=int,
        default=25,
        help=f"cap N for the exact sweeps, at most {VERIFY_MAX_N} (shift and jdecomp stop at 20)",
    )
    p_ver.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help=f"Monte Carlo draws per sampler check, at most {VERIFY_MAX_SAMPLES}",
    )
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"abeliand: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - exit codes are 0/1/2, exhaustively
        print(f"abeliand: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
