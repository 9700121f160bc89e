import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from abeliand import cli, dist, sampler, verify
from abeliand.cli import main
from abeliand.dist import Params
from abeliand.stirling import StirlingRow, stirling_row


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_pmf_exact_abelian(capsys):
    code, out, err = run(
        capsys, "pmf", "--family", "abelian", "--N", "2", "--alpha", "1/2",
        "--mode", "exact",
    )
    assert code == 0 and err == ""
    assert out == "b,prob_num,prob_den\n1,2,3\n2,1,3\n"


def test_pmf_exact_avalanche(capsys):
    code, out, _ = run(
        capsys, "pmf", "--family", "avalanche", "--N", "2", "--p", "1/4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,prob_num,prob_den"
    assert lines[1:] == ["0,9,16", "1,1,4", "2,3,16"]


def test_pmf_accepts_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "pmf", "--family", "avalanche", "--N", "2", "--p", "0.25",
    )
    assert code == 0
    assert "0,9,16" in out


def test_pmf_float_mode_normalizes(capsys):
    code, out, _ = run(
        capsys, "pmf", "--family", "abelian", "--N", "500", "--alpha", "0.5",
        "--mode", "float",
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 500
    total = sum(float(r.split(",")[1]) for r in rows)
    assert abs(total - 1.0) < 1e-10


# sha256 of `pmf --mode float` stdout at N=3000, alpha=0.9: the float bits
# and their CSV/JSON formatting.
FLOAT_PMF_DIGESTS = {
    ("abelian", "csv"):
        "56bcc6a9b90680b0845a8c0a786a0f4e3b9d03c0b008879cb3a21276af305998",
    ("abelian", "json"):
        "f8aaf057fc41dd890d71f40835d69188b4ad75d2b38aa3ffaf3f92e15a361028",
    ("avalanche", "csv"):
        "6e1cd6afc2d0897fb5ff0c08ef8bcc30a2938adba1090c5c2c8054abc0df71ec",
    ("avalanche", "json"):
        "f50da17a1e71879e8d234509931a6a04fa5d512f5c1535a2725f51b9542da110",
    ("shifted", "csv"):
        "0e09f9fc5f62c66e7964d416007065616311167834f3cab638795833173408bb",
    ("shifted", "json"):
        "e473fbc6991318a4766385602081195266309fbfa916c827b9f3de3d7fd95f84",
}


@pytest.mark.parametrize(("family", "output"), list(FLOAT_PMF_DIGESTS))
def test_pmf_float_output_bytes(capsys, family, output):
    code, out, err = run(
        capsys, "pmf", "--family", family, "--N", "3000", "--alpha", "0.9",
        "--mode", "float", "--output", output,
    )
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FLOAT_PMF_DIGESTS[family, output]


def test_pmf_json_output(capsys):
    code, out, _ = run(
        capsys, "pmf", "--family", "abelian", "--N", "2", "--alpha", "1/2",
        "--output", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"b": 1, "prob_num": 2, "prob_den": 3},
        {"b": 2, "prob_num": 1, "prob_den": 3},
    ]


def _json_as_one_list(columns, rows):
    # The whole-list construction whose bytes streamed JSON tables keep.
    return json.dumps([dict(zip(columns, row)) for row in rows]) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 129])
def test_json_rows_match_one_list(capsys, rows):
    columns = ["b", "x", "note"]
    table = [(b, [0.1 * b, math.nan, math.inf][b % 3], f"r\"{b}é") for b in range(rows)]
    cli._write_json_rows(columns, iter(table))
    out, _ = capsys.readouterr()
    assert out == _json_as_one_list(columns, table)
    assert rows or out == "[]\n"


@pytest.mark.parametrize("family", dist.FAMILIES)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("N", [63, 130])
def test_pmf_json_bytes_match_one_list(capsys, family, mode, N):
    params = Params.exact(N, alpha=Fraction(9, 10)) if mode == "exact" else Params.stable(N, alpha=0.9)
    table = dist.pmf_table(family, params)
    if mode == "exact":
        columns = ["b", "prob_num", "prob_den"]
        rows = [(b, q.numerator, q.denominator) for b, q in zip(table.support, table.probs_exact)]
    else:
        columns = ["b", "prob"]
        rows = list(zip(table.support, map(float, table.probs_float)))
    code, out, err = run(
        capsys, "pmf", "--family", family, "--N", str(N), "--alpha", "0.9",
        "--mode", mode, "--output", "json",
    )
    assert code == 0 and err == ""
    assert out == _json_as_one_list(columns, rows)


@pytest.mark.parametrize("family", ["abelian", "avalanche"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_moments_json_bytes_match_one_list(capsys, family, mode):
    params = Params.exact(20, alpha=Fraction(7, 10)) if mode == "exact" else Params.stable(20, alpha=0.7)
    m = dist.moments(family, params)
    fmt = str if mode == "exact" else float
    row = (20, fmt(params.alpha), fmt(m.mean), fmt(m.second_moment), fmt(m.variance))
    code, out, _ = run(
        capsys, "moments", "--family", family, "--N", "20", "--alpha", "0.7",
        "--mode", mode, "--output", "json",
    )
    assert code == 0
    assert out == _json_as_one_list(["N", "alpha", "mean", "second_moment", "variance"], [row])


def test_limit_json_bytes_match_one_list(capsys):
    Ns = [2, 100, 1000, 5000]
    rows = [(r.N, r.variance, r.limit, r.abs_error) for r in dist.convergence_table(0.5, Ns)]
    code, out, _ = run(capsys, "limit", "--alpha", "0.5", "--N", *map(str, Ns), "--output", "json")
    assert code == 0
    assert out == _json_as_one_list(["N", "variance", "limit", "abs_error"], rows)


def test_pmf_json_streams_its_rows(monkeypatch):
    """About 4-6 s: tracemalloc slows the N = 2*10^5 float JSON run from 0.6 s."""
    # Built as one list of row dicts and one string, the JSON table at
    # N = 2e5 peaked at 62 MB traced; streamed it stays with the CSV path's
    # ~10 MB (the table and its kernel's blocks).
    class Sink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["pmf", "--family", "abelian", "--N", "200000", "--alpha", "0.5", "--mode", "float", "--output", "json"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.chars > 200_000 * len('{"b": 1, "prob": 0.5}, ')
    assert peak < 20_000_000


def test_pmf_rejects_bad_alpha(capsys):
    code, out, err = run(
        capsys, "pmf", "--family", "abelian", "--N", "2", "--alpha", "3/2",
    )
    assert code == 2
    assert out == ""
    assert err.strip().startswith("abeliand: error:")


@pytest.mark.parametrize(
    "argv",
    [("pmf", "--family", "abelian", "--mode", "float"), ("sample", "--M", "300000")],
    ids=["pmf", "sample"],
)
def test_float_commands_check_the_exact_input(capsys, monkeypatch, argv):
    # 49 * float(1/49) < 1, so only the exact check sees that p = 1/N.
    def no_sampling(*args):
        raise AssertionError("monte_carlo called on refused input")

    monkeypatch.setattr(cli.sampler, "monte_carlo", no_sampling)
    code, out, err = run(capsys, *argv, "--N", "49", "--p", "1/49")
    assert code == 2
    assert out == ""
    assert err.startswith("abeliand: error:")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_pmf_refuses_n_over_budget(capsys, monkeypatch, mode):
    def no_table(*args):
        raise AssertionError("pmf_table called on refused input")

    monkeypatch.setattr(cli.dist, "pmf_table", no_table)
    N = cli.PMF_MAX_N[mode] + 1
    code, out, err = run(
        capsys, "pmf", "--family", "abelian", "--N", str(N), "--alpha", "1/2",
        "--mode", mode,
    )
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: pmf --mode {mode} serves N <= {N - 1}, got N={N}\n"


@pytest.mark.parametrize(
    "N, M, message",
    [
        (10**6 + 1, 1, "N <= 1000000, got N=1000001"),
        (1000, 10**6 + 1, "N*M <= 1000000000, got N*M=1000001000"),
        (10**6, 100_000, "N*M <= 1000000000, got N*M=100000000000"),
    ],
)
def test_sample_refuses_work_over_budget(capsys, monkeypatch, N, M, message):
    def no_work(*args):
        raise AssertionError("sampling work started on refused input")

    monkeypatch.setattr(cli.sampler, "monte_carlo", no_work)
    monkeypatch.setattr(cli.dist, "rounded_avalanche_mean", no_work)
    code, out, err = run(capsys, "sample", "--N", str(N), "--alpha", "0.5", "--M", str(M))
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: sample serves {message}\n"


LONG_ALPHA = "0.9999999999" + "1" * 990  # D = 1005 digits in d at N = 10^4


def test_sample_serves_a_long_exact_mean(capsys):
    # the mean's prefix runs about 1000 terms, whose exact integers over d^k
    # would reach 10^6 digits; in fixed point it takes about 1.4 ms
    code, out, _ = run(capsys, "sample", "--N", "10000", "--alpha", LONG_ALPHA, "--M", "1")
    assert code == 0
    assert json.loads(out)["exact_mean"] == 124.99912097919228


@pytest.mark.parametrize(
    "alpha, exact_mean",
    [("0.999999", 1251.9815340534983), ("0.99999999", 1252.9709084579852)],
    ids=["0.999999", "0.99999999"],
)
def test_sample_exact_mean_at_n_1e6_near_alpha_one(capsys, monkeypatch, alpha, exact_mean):
    # about 15 ms of exact mean each, in fixed point; 60-digit mpmath agrees
    def fake_sampling(params, M, seed):
        return sampler.SampleStats(M, seed, 0.0, 0.0, {0: M}, 0.0)

    monkeypatch.setattr(cli.sampler, "monte_carlo", fake_sampling)
    code, out, _ = run(capsys, "sample", "--N", "1000000", "--alpha", alpha, "--M", "1")
    assert code == 0
    assert json.loads(out)["exact_mean"] == exact_mean


@pytest.mark.parametrize("N, M", [(1000, 10**6), (10**6, 1000), (1, 10**9)])
def test_sample_budget_admits_its_edge(capsys, monkeypatch, N, M):
    def fake_sampling(params, M, seed):
        return sampler.SampleStats(M, seed, 0.0, 0.0, {0: M}, 0.0)

    monkeypatch.setattr(cli.sampler, "monte_carlo", fake_sampling)
    monkeypatch.setattr(cli.dist, "rounded_avalanche_mean", lambda params: 0.0)
    code, out, _ = run(capsys, "sample", "--N", str(N), "--alpha", "0.5", "--M", str(M))
    assert code == 0
    assert json.loads(out)["M"] == M


@pytest.mark.parametrize("M", ["0", "-3"])
def test_sample_refuses_nonpositive_m(capsys, M):
    code, out, err = run(capsys, "sample", "--N", "10", "--alpha", "0.5", "--M", M)
    assert code == 2
    assert out == ""
    assert err == "abeliand: error: M must be >= 1\n"


def test_pmf_budget_admits_the_documented_sizes():
    # the tests and the benchmark run exact N = 1000 and float N = 10^5
    assert cli.PMF_MAX_N["exact"] >= 1000
    assert cli.PMF_MAX_N["float"] >= 10**5


def test_pmf_rejects_unparseable_ratio(capsys):
    code, _, err = run(
        capsys, "pmf", "--family", "abelian", "--N", "2", "--alpha", "zebra",
    )
    assert code == 2 and "zebra" in err


def test_moments_exact(capsys):
    code, out, _ = run(
        capsys, "moments", "--family", "abelian", "--N", "2", "--alpha", "1/2",
    )
    assert code == 0
    assert out == "N,alpha,mean,second_moment,variance\n2,1/2,4/3,2,2/9\n"


def test_moments_point_mass(capsys):
    code, out, _ = run(capsys, "moments", "--N", "1", "--alpha", "1/2")
    assert code == 0
    assert out.splitlines()[1] == "1,1/2,1,1,0"


def test_moments_avalanche_family(capsys):
    code, out, _ = run(
        capsys, "moments", "--family", "avalanche", "--N", "2", "--p", "1/4",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[2] == "5/8"


def test_exact_moments_serve_past_the_brute_force_guard(capsys):
    # the falling-power series term by term: E(X) = sum_i (N)_i p^i and
    # E(X^2) = sum_i (i^2 + 3i - 2)/2 (N)_i p^i
    N, p = 40, Fraction(1, 80)
    terms = [(i, math.perm(N, i) * p**i) for i in range(1, N + 1)]
    mean = sum(t for _, t in terms)
    second = sum(Fraction(i * i + 3 * i - 2, 2) * t for i, t in terms)
    code, out, err = run(
        capsys, "moments", "--family", "avalanche", "--N", str(N), "--alpha", "1/2",
    )
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"40,1/2,{mean},{second},{second - mean**2}"


def test_float_shifted_variance_at_tiny_alpha(capsys):
    # Var Y = Var X = 1e-300 here; Y's E(Y^2) - E(Y)^2 would round to 0.0
    rows = {}
    for family in ("avalanche", "shifted"):
        code, out, _ = run(
            capsys, "moments", "--family", family, "--mode", "float", "--N", "10",
            "--alpha", "1e-300",
        )
        assert code == 0
        rows[family] = out.splitlines()[1].split(",")
    assert float(rows["shifted"][4]) > 0
    assert rows["shifted"][4] == rows["avalanche"][4]


@pytest.mark.parametrize("family", ["avalanche", "shifted", "abelian"])
def test_float_moments_refuse_n_over_budget(capsys, monkeypatch, family):
    def no_moments(*args):
        raise AssertionError("moments computed on refused input")

    monkeypatch.setattr(cli.dist, "moments", no_moments)
    N = cli.PMF_MAX_N["float"] + 1
    code, out, err = run(
        capsys, "moments", "--family", family, "--N", str(N), "--alpha", "1/2",
        "--mode", "float",
    )
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: moments --family {family} --mode float serves N <= {N - 1}, got N={N}\n"


@pytest.mark.parametrize("family", ["avalanche", "shifted", "abelian"])
def test_float_moments_budget_admits_its_limit(capsys, monkeypatch, family):
    # every family is served up to the one float budget
    N = cli.PMF_MAX_N["float"]
    monkeypatch.setattr(cli.dist, "moments", lambda family, params: dist.Moments(1.0, 2.0, 1.0, "float"))
    code, out, _ = run(
        capsys, "moments", "--family", family, "--N", str(N), "--alpha", "1/2", "--mode", "float",
    )
    assert code == 0
    assert out.splitlines()[1] == f"{N},0.5,1.0,2.0,1.0"


def exact_size_message(command, budget, nd):
    return f"abeliand: error: {command} --mode exact serves N*D <= {budget}, D the digits of d in p = a/d, got N*D={nd}\n"


@pytest.mark.parametrize(
    "family, N, p, nd",
    [
        ("abelian", 2000, "1/10000000000", 2000 * 11),
        ("avalanche", 100, f"1/{10**1000 + 7}", 100 * 1001),
    ],
)
def test_exact_pmf_refuses_digits_over_budget(capsys, monkeypatch, family, N, p, nd):
    def no_table(*args):
        raise AssertionError("pmf_table called on refused input")

    monkeypatch.setattr(cli.dist, "pmf_table", no_table)
    code, out, err = run(capsys, "pmf", "--family", family, "--N", str(N), "--p", p)
    assert code == 2
    assert out == ""
    assert err == exact_size_message("pmf", cli.PMF_MAX_ND, nd)


def test_exact_pmf_digit_budget_admits_its_edge(capsys, monkeypatch):
    # N = 2000 with a 10-digit d is at the budget; the table is stubbed
    assert 2000 * 10 == cli.PMF_MAX_ND
    one = lambda family, params: dist.PmfTable(family, params, range(1, 2), (Fraction(1),), None)
    monkeypatch.setattr(cli.dist, "pmf_table", one)
    code, out, _ = run(capsys, "pmf", "--family", "abelian", "--N", "2000", "--p", "1/1000000000")
    assert code == 0
    assert out == "b,prob_num,prob_den\n1,1,1\n"


@pytest.mark.parametrize(
    "family, N, ratio, nd",
    [
        ("abelian", 20001, ("--alpha", "1/2"), 20001 * 5),
        ("abelian", 10**6, ("--alpha", "1/2"), 10**6 * 7),
        ("avalanche", 30, ("--p", f"1/{10**3333}"), 30 * 3334),
        # d = 1000 * 10^4298 has 4302 digits, past Python's int-to-str limit
        ("abelian", 1000, ("--alpha", f"1/{10**4298}"), 1000 * 4302),
    ],
)
def test_exact_moments_refuse_digits_over_budget(capsys, monkeypatch, family, N, ratio, nd):
    def no_moments(*args):
        raise AssertionError("moments computed on refused input")

    monkeypatch.setattr(cli.dist, "moments", no_moments)
    code, out, err = run(capsys, "moments", "--family", family, "--N", str(N), *ratio)
    assert code == 2
    assert out == ""
    assert err == exact_size_message("moments", cli.MOMENTS_MAX_ND, nd)


def test_exact_moments_digit_budget_admits_its_edge(capsys, monkeypatch):
    # N = 20000 at alpha = 1/2 has d = 40000, five digits: at the budget
    assert 20000 * 5 == cli.MOMENTS_MAX_ND
    one = Fraction(1)
    monkeypatch.setattr(cli.dist, "moments", lambda family, params: dist.Moments(one, one, one, "exact"))
    code, out, _ = run(capsys, "moments", "--N", "20000", "--alpha", "1/2")
    assert code == 0
    assert out.splitlines()[1] == "20000,1/2,1,1,1"


def test_decimal_digits_match_str():
    for k in range(3001):
        for n in (10**k - 1, 10**k, 10**k + 1):
            if n:
                assert cli._decimal_digits(n) == len(str(n)), n
    rng = random.Random(18)
    for _ in range(2000):
        n = rng.getrandbits(rng.randint(1, 13000)) or 1
        assert cli._decimal_digits(n) == len(str(n)), n


@pytest.mark.parametrize(
    "command, budget",
    [(("moments",), cli.MOMENTS_MAX_ND), (("pmf", "--family", "abelian"), cli.PMF_MAX_ND)],
    ids=["moments", "pmf"],
)
def test_exact_size_refusal_converts_no_decimal(capsys, monkeypatch, command, budget):
    # d = 10^1000000: its decimal conversion alone took 17 s.  The refusal
    # counts its digits with no str(), so lifting the int-to-str limit,
    # which only a conversion needs, is never reached.
    def no_conversion(limit):
        raise AssertionError("int-to-str limit lifted for a refusal")

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setattr(sys, "set_int_max_str_digits", no_conversion, raising=False)
    code, out, err = run(capsys, *command, "--mode", "exact", "--N", "1", "--p", "1e-1000000")
    assert code == 2
    assert out == ""
    assert err == exact_size_message(command[0], budget, 1000001)


@pytest.mark.parametrize("literal", ["1e-10000000", "1e+10000000", "1E-0_001_000_001"])
@pytest.mark.parametrize(
    "command",
    [
        ("moments", "--N", "1", "--p"),
        ("limit", "--alpha"),
        ("sample", "--N", "1", "--p"),
        ("pmf", "--family", "abelian", "--mode", "float", "--N", "1", "--p"),
    ],
    ids=["moments", "limit", "sample", "pmf-float"],
)
def test_decimal_exponent_refused_before_the_fraction(capsys, monkeypatch, command, literal):
    # Fraction("1e-10000000") builds 10^10000000, about 9 s on a 2-vCPU VM.
    # Past an exponent of size 10^6 the literal is refused first.
    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    code, out, err = run(capsys, *command, literal)
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: decimal exponents of size <= 1000000 are served, got {literal!r}\n"


def test_limit_table(capsys):
    code, out, _ = run(capsys, "limit", "--alpha", "0.5", "--N", "100", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,variance,limit,abs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["100", "1000"]
    assert all(float(r[2]) == 4.0 for r in rows)
    assert float(rows[0][3]) > float(rows[1][3])


def test_limit_json(capsys):
    code, out, _ = run(
        capsys, "limit", "--alpha", "1/2", "--N", "100", "--output", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["limit"] == 4.0


def test_limit_rejects_bad_alpha(capsys):
    code, _, err = run(capsys, "limit", "--alpha", "1")
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("alpha", ["1e400", "1e-400"])
def test_limit_refuses_alpha_out_of_float_range(capsys, alpha):
    code, out, err = run(capsys, "limit", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert err == "abeliand: error: alpha must lie in (0, 1)\n"


def test_limit_refuses_n_over_budget(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("convergence_table called on refused input")

    monkeypatch.setattr(cli.dist, "convergence_table", no_table)
    N = cli.PMF_MAX_N["float"] + 1
    code, out, err = run(capsys, "limit", "--alpha", "0.5", "--N", "100", str(N), "1000")
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: limit serves N <= {N - 1}, got N={N}\n"


# A row that cannot be evaluated prints its cause, and the table exits 0:
# float p underflows to 0, N*p rounds up to 1, or 1/p overflows in E[Z^2].
LIMIT_ERROR_ROWS = {  # argv -> (CSV stdout, JSON stdout)
    ("--alpha", "5e-324", "--N", "2", "10"): (
        "N,variance,limit,abs_error\n"
        "2,error: p must be positive,5e-324,\n"
        "10,error: p must be positive,5e-324,\n",
        '[{"N": 2, "variance": "error: p must be positive", "limit": 5e-324, "abs_error": ""}, '
        '{"N": 10, "variance": "error: p must be positive", "limit": 5e-324, "abs_error": ""}]\n',
    ),
    ("--alpha", "0.9999999999999999", "--N", "3"): (
        "N,variance,limit,abs_error\n"
        '3,"error: p must be < 1/N, got p=0.3333333333333333 with N=3",7.307508186654514e+47,\n',
        '[{"N": 3, "variance": "error: p must be < 1/N, got p=0.3333333333333333 with N=3", '
        '"limit": 7.307508186654514e+47, "abs_error": ""}]\n',
    ),
    ("--alpha", "1e-310", "--N", "2", "10"): (
        "N,variance,limit,abs_error\n"
        "2,error: non-finite variance,1e-310,\n"
        "10,error: non-finite variance,1e-310,\n",
        '[{"N": 2, "variance": "error: non-finite variance", "limit": 1e-310, "abs_error": ""}, '
        '{"N": 10, "variance": "error: non-finite variance", "limit": 1e-310, "abs_error": ""}]\n',
    ),
}


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("argv", list(LIMIT_ERROR_ROWS), ids=["p-underflows", "p-at-1-over-N", "non-finite"])
def test_limit_error_rows(capsys, argv, output):
    code, out, err = run(capsys, "limit", *argv, "--output", output)
    assert (code, err) == (0, "")
    csv_out, json_out = LIMIT_ERROR_ROWS[argv]
    assert out == (json_out if output == "json" else csv_out)


def test_float_moments_refuse_a_non_finite_variance(capsys):
    code, out, err = run(capsys, "moments", "--mode", "float", "--N", "2", "--alpha", "1e-310")
    assert code == 2
    assert out == ""
    assert err == "abeliand: error: non-finite variance\n"


def test_limit_budget_admits_its_edge(capsys):
    N = cli.PMF_MAX_N["float"]
    code, out, _ = run(capsys, "limit", "--alpha", "0.5", "--N", str(N))
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == str(N)
    assert abs(float(row[1]) - (4 - 4e-5)) < 1e-9  # Var Z_N = 4 - 40/N + O(N^-2) at alpha = 1/2
    assert float(row[2]) == 4.0


def test_sample_json_fields(capsys):
    code, out, _ = run(
        capsys, "sample", "--N", "2", "--p", "1/4", "--M", "20000", "--seed", "42",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "avalanche"
    assert doc["M"] == 20000 and doc["seed"] == 42
    assert doc["exact_mean"] == 0.625
    assert abs(doc["empirical_mean"] - 0.625) <= 4 * doc["stderr_mean"]
    assert sum(doc["empirical_pmf"].values()) == 20000


def test_sample_single_draw(capsys):
    code, out, _ = run(capsys, "sample", "--N", "3", "--p", "0.1", "--M", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["empirical_pmf"]) == 1


def test_sample_deterministic_bytes(capsys):
    args = ("sample", "--N", "4", "--p", "0.2", "--M", "5000", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_seed_env_var_and_flag_precedence(capsys, monkeypatch):
    args = ("sample", "--N", "2", "--p", "1/4", "--M", "2000")
    monkeypatch.setenv("ABELIAND_SEED", "99")
    _, env_out, _ = run(capsys, *args)
    _, explicit_out, _ = run(capsys, *(args + ("--seed", "99")))
    assert env_out == explicit_out
    assert json.loads(env_out)["seed"] == 99
    _, override_out, _ = run(capsys, *(args + ("--seed", "1")))
    assert json.loads(override_out)["seed"] == 1
    monkeypatch.setenv("ABELIAND_SEED", "not-an-int")
    code, _, err = run(capsys, *args)
    assert code == 2 and "ABELIAND_SEED" in err


def test_cli_import_leaves_scipy_unloaded():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = "import sys, abeliand.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout == "False\n"


NUMPY_FREE_ARGV = [
    *(
        ["moments", "--family", family, "--mode", mode, "--N", "50", "--alpha", "1/3"]
        for family in dist.FAMILIES
        for mode in ("exact", "float")
    ),
    ["limit", "--alpha", "0.5"],
    ["pmf", "--family", "abelian", "--N", "30", "--alpha", "1/3"],
    [
        "verify", "--max-n", "10",
        *(flag for suite in ("stirling", "bounds", "pmf", "moments", "shift", "jdecomp", "limit")
          for flag in ("--suite", suite)),
    ],
]


def test_numpy_free_paths_run_without_numpy(capsys):
    """Exact paths, moments, limit and the exact verify suites run where numpy cannot be imported.

    A child process blocks ``import numpy`` and runs each command through
    cli.main; its stdout must equal this process's.  Float pmf in the same
    child fails on the blocked import, so the block is in force.
    """
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import abeliand, abeliand.cli\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):\n"
        "        out.append([abeliand.cli.main(argv), buf.getvalue(), err.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    float_pmf = ["pmf", "--family", "abelian", "--mode", "float", "--N", "30", "--alpha", "0.5"]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([*NUMPY_FREE_ARGV, float_pmf])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    *child, (float_code, float_out, float_err) = json.loads(proc.stdout)
    for argv, (child_code, child_out, child_err) in zip(NUMPY_FREE_ARGV, child):
        assert (child_code, child_err) == (0, ""), argv
        assert child_out == run(capsys, *argv)[1], argv
    assert float_code == 2 and float_out == ""
    assert "numpy" in float_err


def test_verify_sampler_leaves_scipy_unloaded():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    # 20000 draws run the whole suite quickly.
    code = (
        "import sys\n"
        "from abeliand.cli import main\n"
        "main(['verify', '--suite', 'sampler', '--samples', '20000'])\n"
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "PASS sampler (10 checks)"
    assert lines[-1] == "False"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stirling")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[0].startswith("PASS stirling")
    assert lines[-1] == "all 1 suites passed"


def test_verify_fault_injection_detected(capsys, monkeypatch):
    def corrupted_row(i):
        row = stirling_row(i)
        if i != 5:
            return row
        return StirlingRow(5, (-row.coeffs[0],) + row.coeffs[1:])

    monkeypatch.setattr(verify, "stirling_row", corrupted_row)
    code, out, _ = run(capsys, "verify", "--suite", "stirling")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL stirling")


def test_verify_multiple_suites_reduced(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "pmf", "--suite", "moments", "--max-n", "8",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("PASS pmf")
    assert out.splitlines()[1].startswith("PASS moments")


@pytest.mark.parametrize(
    ("flag", "value"),
    [("--max-n", "0"), ("--max-n", "-3"), ("--samples", "0"), ("--samples", "-1")],
)
def test_verify_refuses_nonpositive_sweep_flags(capsys, monkeypatch, flag, value):
    def no_suites(*args, **kwargs):
        raise AssertionError("run_suites called on refused input")

    monkeypatch.setattr(cli.verify, "run_suites", no_suites)
    code, out, err = run(capsys, "verify", "--suite", "pmf", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: {flag} must be >= 1, got {value}\n"


def test_verify_moments_sweeps_past_n_30(capsys):
    # 31 N values * 9 alphas * 3 Abelian checks, and the Avalanche mean at N <= 20
    code, out, _ = run(capsys, "verify", "--suite", "moments", "--max-n", "31")
    assert code == 0
    assert out.splitlines()[0] == "PASS moments (1017 checks)"


def test_verify_refuses_max_n_over_budget(capsys, monkeypatch):
    def no_suites(*args, **kwargs):
        raise AssertionError("run_suites called on refused input")

    monkeypatch.setattr(cli.verify, "run_suites", no_suites)
    over = cli.VERIFY_MAX_N + 1
    code, out, err = run(capsys, "verify", "--max-n", str(over))
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: verify serves --max-n <= {cli.VERIFY_MAX_N}, got --max-n={over}\n"


def test_verify_refuses_samples_over_budget(capsys, monkeypatch):
    def no_suites(*args, **kwargs):
        raise AssertionError("run_suites called on refused input")

    monkeypatch.setattr(cli.verify, "run_suites", no_suites)
    over = cli.VERIFY_MAX_SAMPLES + 1
    code, out, err = run(capsys, "verify", "--suite", "sampler", "--samples", str(over))
    assert code == 2
    assert out == ""
    assert err == f"abeliand: error: verify serves --samples <= {cli.VERIFY_MAX_SAMPLES}, got --samples={over}\n"


def test_verify_usage_error_on_bad_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])  # argparse rejects unknown choice
    assert exc.value.code == 2


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["pmf", "--family", "abelian", "--N", "2"])  # missing alpha/p
    assert exc.value.code == 2


def test_csv_uses_lf_line_endings(capsys):
    _, out, _ = run(
        capsys, "pmf", "--family", "abelian", "--N", "3", "--alpha", "1/2",
    )
    assert "\r" not in out
    assert out.endswith("\n")


@pytest.mark.parametrize("output", ["csv", "json"])
def test_pmf_exact_prints_past_the_int_digit_limit(capsys, output):
    # denominators of d^20 with a 500-digit d: ~10^4 digits per integer
    d = 10**499 + 3
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "pmf", "--family", "avalanche", "--N", "20", "--p", f"1/{d}",
        "--mode", "exact", "--output", output,
    )
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        if output == "json":
            rows = [(r["b"], r["prob_num"], r["prob_den"]) for r in json.loads(out)]
        else:
            rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
    finally:
        sys.set_int_max_str_digits(limit)
    table = dist.pmf_table("avalanche", dist.Params.exact(20, p=Fraction(1, d)))
    assert rows == [
        (b, q.numerator, q.denominator) for b, q in zip(table.support, table.probs_exact)
    ]
    assert max(den for _, _, den in rows) > 10**limit


def test_moments_exact_prints_past_the_int_digit_limit(capsys):
    d = 10**499 + 3
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "moments", "--N", "20", "--p", f"1/{d}")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    m = dist.abelian_variance(dist.Params.exact(20, p=Fraction(1, d)))
    sys.set_int_max_str_digits(0)
    try:
        fields = out.splitlines()[1].split(",")
        assert [Fraction(f) for f in fields[2:]] == [m.mean, m.second_moment, m.variance]
    finally:
        sys.set_int_max_str_digits(limit)


def test_sample_large_n_finishes():
    # exact_mean comes from a prefix of the exact series; summing the whole
    # series in Fractions at N = 10^5 did not finish in 30 s.  The value was
    # checked against the 300-term Fraction prefix, whose tail is below 1e-80.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "abeliand", "sample", "--N", "100000", "--alpha", "0.5",
         "--M", "20"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exact_mean"] == 0.999980000999918
