"""Command-line front end: PMF tables, moments, limit studies, sampling,
and the verification suites.  CSV/JSON go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
The default RNG seed is 42; `--seed` wins over the ABELIAND_SEED
environment variable, which wins over the default.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import dist, sampler, verify
from .dist import Params

DEFAULT_SEED = 42
DEFAULT_SAMPLE_M = 100_000

_MAX_FAILURES_SHOWN = 20

# Largest N that `pmf` serves in each mode, from measurements on a 2-core
# VM: the exact Abelian table at alpha = 1/2 takes 3.0 s at N = 2000 and
# 22 s at N = 4000; float `pmf` at N = 10^6 takes 2.7 s end to end and
# peaks at 191 MB, growing linearly in N.
PMF_MAX_N = {"exact": 2000, "float": 10**6}


class UsageError(Exception):
    pass


def _parse_ratio(text: str) -> Fraction:
    """Parse "num/den" or a decimal literal into an exact Fraction."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a fraction or decimal") from exc
    return value


def _build_params(args, mode: str) -> Params:
    """Params in ``mode``; the exact input is checked first in either mode."""
    alpha = _parse_ratio(args.alpha) if args.alpha is not None else None
    p = _parse_ratio(args.p) if args.p is not None else None
    try:
        exact = Params.exact(args.N, p=p, alpha=alpha)
        return exact if mode == "exact" else Params.stable(args.N, p=p, alpha=alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        seed = arg_seed
    else:
        env = os.environ.get("ABELIAND_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise UsageError(f"ABELIAND_SEED must be an integer, got {env!r}") from None
        else:
            seed = DEFAULT_SEED
    if seed < 0:
        raise UsageError("seed must be non-negative")
    return seed


def _write_csv(columns, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _write_json(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _emit_table(args, columns, rows) -> None:
    if args.output == "json":
        _write_json([dict(zip(columns, row)) for row in rows])
    else:
        _write_csv(columns, rows)


def run_pmf(args) -> int:
    budget = PMF_MAX_N[args.mode]
    if args.N > budget:
        raise UsageError(f"pmf --mode {args.mode} serves N <= {budget}, got N={args.N}")
    params = _build_params(args, args.mode)
    table = dist.pmf_table(args.family, params)
    if params.is_exact:
        columns = ["b", "prob_num", "prob_den"]
        rows = [
            (b, q.numerator, q.denominator)
            for b, q in zip(table.support, table.probs_exact)
        ]
    else:
        columns = ["b", "prob"]
        rows = list(zip(table.support, table.probs_float.tolist()))
    _emit_table(args, columns, rows)
    return 0


def run_moments(args) -> int:
    params = _build_params(args, args.mode)
    try:
        m = dist.moments(args.family, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    fmt = str if params.is_exact else float
    columns = ["N", "alpha", "mean", "second_moment", "variance"]
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
    try:
        rows = dist.convergence_table(float(_parse_ratio(args.alpha)), args.N)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
    exact = _build_params(args, "exact")
    params = _build_params(args, "float")
    seed = _resolve_seed(args.seed)
    if args.M < 1:
        raise UsageError("M must be >= 1")
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
        "exact_mean": float(dist.avalanche_mean(exact)),
    }
    _write_json(payload)
    return 0


def run_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    names = args.suite if args.suite else None
    try:
        results = verify.run_suites(
            names,
            max_n=args.max_n,
            samples=args.samples,
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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


def _add_param_flags(parser, require_n=True):
    parser.add_argument("--N", type=int, required=require_n, help="population size N")
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
        "--max-n", type=int, default=25, help="cap N for the exact sweeps"
    )
    p_ver.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo draws per sampler check "
        "(statistical thresholds assume the default)",
    )
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"abeliand: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - exit codes are 0/1/2, exhaustively
        print(f"abeliand: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
