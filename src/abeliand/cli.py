"""Command-line front end: PMF tables, moments, limit studies, sampling,
and the verification suites.  CSV/JSON go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
An input refused for its cost exits 2 before any work, on one of two
limits: float mode serves N <= FLOAT_MAX_N, and each command predicts its
time from the counts on its command line at the per-unit RATES and refuses
a prediction over MAX_SECONDS, so an admitted command finishes within about
MAX_SECONDS on the reference VM.  `pmf`, `moments` and `sample` take their
(N, alpha | p) through one intake, `_params`, which checks float mode's N
first and reads the literal's text once, before its Fraction is built: a
decimal literal whose float is 0.0, or whose exact time is refused, is
refused without building 10^K.  `limit` reads its alpha the same way.

The default RNG seed is 42; `--seed` wins over the ABELIAND_SEED
environment variable, which wins over the default.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import dist, sampler, verify
from .dist import Params

DEFAULT_SEED = 42
DEFAULT_SAMPLE_M = 100_000

_MAX_FAILURES_SHOWN = 20

# Rows per write of a `pmf` table, CSV and JSON alike.  One json.dumps call
# per row made float `pmf --output json` at N = 10^6 take 4.2 s instead of
# 1.6 s (2 cores, Python 3.11), and one write per row, csv.writer's, made
# float CSV rows cost several times their table; 64 rows a call run as fast
# as one call for the whole table, and 64 exact rows at N = 2000
# (~7000-digit integers) hold about 1 MB.  The other tables are small
# (`moments` one row, `limit` at most 8170 under its time budget) and
# _emit_table writes each at once.
_BATCH = 64

# Float mode's domain: float `pmf`, float `moments` of every family, `limit`
# and `sample` serve N <= FLOAT_MAX_N and refuse more with exit 2 before any
# work.  Past it the float Abelian variance drifts about linearly in N (its
# relative error is 2.2e-10 at N = 10^7 and 1.3e-7 at N = 10^10, alpha = 0.5).
FLOAT_MAX_N = 10**6

# Every command predicts its time from the counts on its command line, before
# any work, and refuses a prediction over MAX_SECONDS with exit 2, so an
# admitted command finishes within about MAX_SECONDS on the reference VM.
MAX_SECONDS = 30

# Seconds per unit of work, each an upper envelope of end-to-end runs on the
# reference VM (2 vCPUs, Python 3.11) in the slower of its speed modes; CHANGES
# lists the runs.  The units, counted where each command checks its time:
# - uniform, draw: `sample` took 7.7e-8 s a draw at N = 1, 2.5e-7 at N = 10
#   and 9.9e-6 at N = 1000; its kernel reads uniforms about twice as fast at
#   N >= 1000 as the rate says.
# - pmf: 2.3-3.7e-12 s a unit of exact `pmf`, 24.4 s at N = 2000,
#   alpha = 999999/1000000.
# - moments: 1.9-3.2e-11 s a unit of exact Avalanche and shifted `moments`
#   since their one walk of the series (2.0-3.6e-11 before), 8.9 s at
#   N = 40000, alpha = 1/2; the Abelian ones take 0.4-0.7 of that.
# - row: a `limit` row's float Abelian variance near alpha = 1: 37 rows
#   near N = 10^6 at alpha = 0.999999 took 31.9 s; at alpha = 0.5 a row
#   takes under 1 ms.
# - suite: the dearest of verify's fixed suites (float, 0.45 s).
# - sweep: verify's pmf suite took 16.9 s at --max-n 200 and 37.2 s at 250.
RATES = dict(uniform=2.5e-8, draw=8e-8, pmf=3.7e-12, moments=4.3e-11, row=9e-7, suite=0.5, sweep=3.3e-6)


def _literal_bits(text: str, below: int) -> int:
    """Refuse a literal whose Fraction() would take unbounded time or fail on
    its digit count; else a lower bound on d.bit_length() for its value a/d,
    read off its text, or 0 if none.

    Only a literal [+]m[.f]e-k in ASCII digits, a form that every supported
    Python's Fraction() reads, is bounded, and only where it is provably in
    (0, 1/below), so that Fraction() and Params, run later, would admit it.
    Its value is M/10^K for M = int(m f) and K = k + len(f).
    """
    # Fraction() builds 10^|e| for a decimal exponent e: 9 s at |e| = 10^7.
    # Past |e| = 10^6 an argument of at most 128 KiB (Linux) is at least 1, or
    # its float is 0.0 and its d has over 10^5 digits: refused downstream anyway.
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", text)
    if exponent and int(exponent[1].replace("_", "").lstrip("0")[:8] or 0) > 10**6:
        raise ValueError(f"decimal exponents of size <= 1000000 are served, got {text!r}")
    # Fraction() reads each run of digits with int(), which refuses a run past
    # Python's int-to-str digit limit (4300 by default; 0 or absent: none).
    digits = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
    if 0 < (limit := getattr(sys, "get_int_max_str_digits", int)()) < digits:
        raise ValueError(f"numbers of <= {limit} digits are served, got {digits} digits")
    match = re.fullmatch(r"\s*\+?(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?[eE]-([0-9]+)\s*", text)
    if match is None:
        return 0
    fraction = match[2] or ""
    M = int(match[1] or 0) * 10 ** len(fraction) + int(fraction or 0)
    K = int(match[3]) + len(fraction)
    # M * below < 2^(bit lengths) <= 8^K < 10^K puts the value in (0, 1/below)
    if M == 0 or M.bit_length() + below.bit_length() > 3 * K:
        return 0
    # d = 10^K / gcd(M, 10^K) >= 10^K / M; 2^-20 is far above the rounding of the logs
    return math.floor(K * math.log2(10) - math.log2(M) - 2.0**-20) + 1


def _parse_ratio(text: str, bits: int, mode: str) -> Fraction | float:
    """The exact Fraction of "num/den" or a decimal literal, whose _literal_bits are ``bits``.

    In float mode a literal bounded past 1076 bits is below 2^-1076, so its
    float is 0.0: that is returned, and 10^K is never built.
    """
    if mode == "float" and bits > 1076:
        return 0.0
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a fraction or decimal") from exc


def _params(args, command: str, mode: str, cost) -> tuple[Params, Params]:
    """The exact Params of the typed (N, alpha | p), and the Params in ``mode``.

    Float mode refuses N over FLOAT_MAX_N first.  Exact mode refuses a
    prediction over MAX_SECONDS of cost(d.bit_length()), a (unit, count):
    a decimal literal is judged first at _literal_bits's bound, before
    Fraction() builds 10^K, since the cost rises with the bit length, so a
    refusal there is one at d and reports the prediction at the bound.
    """
    if mode == "float":
        _check_budget(command, "N", args.N, FLOAT_MAX_N)
    key, text, below = ("p", args.p, args.N) if args.p is not None else ("alpha", args.alpha, 1)
    bits = _literal_bits(text, below)
    if mode == "exact" and args.N >= 1:
        _check_seconds(command, cost(bits))
    value = _parse_ratio(text, bits, mode)  # Params refuses a float 0.0 as Params.stable its Fraction
    exact = Params.exact(args.N, **{key: value})
    if mode == "exact":
        _check_seconds(command, cost(exact.p.denominator.bit_length()))
        return exact, exact
    return exact, Params.stable(args.N, **{key: value})


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


def _write_pmf(table: dist.PmfTable, output: str) -> None:
    """Write a PMF table, _BATCH rows a write, in the bytes _emit_table writes for its rows.

    Rows are formatted as text: csv.writer and json.dumps write an int as
    str() does and a float as repr() does, but for json.dumps's NaN and
    Infinity, so JSON floats are cut from json.dumps of their batch.  An
    exact table's denominators are d's part above N+1 to the N times powers
    of d's primes up to N+1, so they repeat: each distinct one is converted
    to decimal once, through a dict.
    """
    sup = table.support
    if table.probs_exact is None:
        columns = ["b", "prob"]

        def cells(i: int, j: int):
            probs = table.probs_float[i:j].tolist()
            return sup[i:j], json.dumps(probs)[1:-1].split(", ") if output == "json" else probs

    else:
        columns = ["b", "prob_num", "prob_den"]
        dens: dict[int, str] = {}

        def den_text(den: int) -> str:
            if den not in dens:
                dens[den] = str(den)
            return dens[den]

        def cells(i: int, j: int):
            probs = table.probs_exact[i:j]
            return sup[i:j], [q.numerator for q in probs], [den_text(q.denominator) for q in probs]

    if output == "json":
        row = "{{" + ", ".join(f'"{c}": {{}}' for c in columns) + "}}"
        head, sep, tail = "[", ", ", "]\n"
    else:
        row = ",".join(["{}"] * len(columns)) + "\n"
        head, sep, tail = row.format(*columns), "", ""
    write = sys.stdout.write
    write(head)
    for i in range(0, len(sup), _BATCH):
        write((sep if i else "") + sep.join(map(row.format, *cells(i, i + _BATCH))))
    write(tail)


def _emit_table(args, columns, rows) -> None:
    """Write a table as CSV, or as one JSON array of row objects and a newline."""
    if args.output == "json":
        sys.stdout.write(json.dumps([dict(zip(columns, row)) for row in rows]) + "\n")
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


def _check_budget(command: str, quantity: str, value, budget: int) -> None:
    """Refuse a value over its budget, before any work, with the one message shape."""
    if value > budget:
        raise ValueError(f"{command} serves {quantity} <= {budget}, got {quantity}={value}")


def _check_seconds(command: str, *pieces: tuple[str, int]) -> None:
    """Refuse a predicted time, the sum of RATES[unit] * count (inf past float range), over MAX_SECONDS."""
    seconds = sum(RATES[unit] * (count if count < 1e300 else math.inf) for unit, count in pieces)
    _check_budget(command, "predicted seconds", round(seconds, 1), MAX_SECONDS)


def run_pmf(args) -> int:
    # exact: N entries of S = N * d.bit_length() bits, their decimal conversion quadratic in S
    _, params = _params(
        args, f"pmf --mode {args.mode}", args.mode, lambda bits: ("pmf", args.N * (args.N * bits) ** 2)
    )
    table = dist.pmf_table(args.family, params)
    with _unlimited_int_digits():
        _write_pmf(table, args.output)
    return 0


def run_moments(args) -> int:
    command = "moments --mode exact" if args.mode == "exact" else f"moments --family {args.family} --mode float"
    # exact: gcds and conversions of a few values of S bits; the N-term series costs less
    _, params = _params(args, command, args.mode, lambda bits: ("moments", (args.N * bits) ** 2))
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
    bits = _literal_bits(args.alpha, 1)  # over 0: provably in (0, 1)
    alpha = _parse_ratio(args.alpha, bits, "float")  # a float 0.0 is refused by convergence_table
    if not bits and not 0 < alpha < 1:  # before float(), which overflows on 1e400
        raise ValueError("alpha must lie in (0, 1)")
    _check_budget("limit", "N", max(args.N), FLOAT_MAX_N)
    _check_seconds("limit", ("row", sum(set(args.N))))  # one row per distinct N
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
    exact, params = _params(args, "sample", "float", None)
    seed = _resolve_seed(args.seed)
    _check_seconds("sample", ("uniform", args.N * args.M), ("draw", args.M))  # each draw reads N uniforms
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
    names = args.suite or verify.SUITE_NAMES  # a suite named k times runs k times
    draws = names.count("sampler") * args.samples  # at each N in SAMPLER_NS, charged as `sample`
    _check_seconds(
        "verify",
        ("suite", len(names)),
        ("sweep", (names.count("pmf") + names.count("moments")) * args.max_n**3),
        ("uniform", draws * sum(verify.SAMPLER_NS)),
        ("draw", draws * len(verify.SAMPLER_NS)),
    )
    seed = _resolve_seed(args.seed)
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
        help="cap N for the exact sweeps (shift and jdecomp stop at 20)",
    )
    p_ver.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo draws per sampler check",
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
