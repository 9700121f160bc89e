import csv
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import types
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
    cli._emit_table(types.SimpleNamespace(output="json"), columns, iter(table))
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


def float_pmf_peak(monkeypatch, output):
    """(characters written, traced peak bytes) of float `pmf` at N = 2*10^5."""

    class Sink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["pmf", "--family", "abelian", "--N", "200000", "--alpha", "0.5", "--mode", "float", "--output", output]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return sink.chars, peak


def test_pmf_json_streams_its_rows(monkeypatch):
    """About 4-6 s: tracemalloc slows the N = 2*10^5 float JSON run from 0.6 s."""
    # Built as one list of row dicts and one string, the JSON table at
    # N = 2e5 peaked at 62 MB traced; streamed it stays with the CSV path's
    # ~10 MB (the table and its kernel's blocks).
    chars, peak = float_pmf_peak(monkeypatch, "json")
    assert chars > 200_000 * len('{"b": 1, "prob": 0.5}, ')
    assert peak < 20_000_000


def test_pmf_csv_streams_its_rows(monkeypatch):
    # CSV rows are formatted _BATCH at a time; a list of every row's text
    # would hold about 2*10^5 strings past the table
    chars, peak = float_pmf_peak(monkeypatch, "csv")
    assert chars > 200_000 * len("1,0.0\n")
    assert peak < 20_000_000


def writers_reference(columns, rows, output):
    """The bytes of csv.writer or of one json.dumps of every row: what `pmf` writes."""
    if output == "json":
        return _json_as_one_list(columns, rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def batch_edge_table(mode, rows):
    # a float zero of either sign, subnormals, non-finite floats, and exact
    # entries whose denominators repeat, over every batch edge
    params = Params.exact(1, p=Fraction(1, 2))
    if mode == "float":
        import numpy

        values = [0.0, -0.0, 5e-324, 0.1, 1 / 3, 1e300, math.inf, math.nan, 2.5e-310]
        probs = numpy.array([values[b % len(values)] for b in range(rows)])
        return dist.PmfTable("avalanche", params, range(rows), None, probs)
    dens = [1, 3, 2**70, 3**45 * 7]
    probs = tuple(Fraction(b * b - 7, dens[b % 4]) for b in range(rows))
    return dist.PmfTable("avalanche", params, range(rows), probs, None)


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("rows", [0, 1, cli._BATCH - 1, cli._BATCH, cli._BATCH + 1], ids=["0", "1", "B-1", "B", "B+1"])
def test_pmf_rows_match_the_writers_at_batch_edges(capsys, output, mode, rows):
    table = batch_edge_table(mode, rows)
    cli._write_pmf(table, output)
    out, _ = capsys.readouterr()
    if mode == "float":
        columns, cells = ["b", "prob"], list(zip(table.support, table.probs_float.tolist()))
    else:
        columns = ["b", "prob_num", "prob_den"]
        cells = [(b, q.numerator, q.denominator) for b, q in zip(table.support, table.probs_exact)]
    assert len(cells) == rows
    assert out == writers_reference(columns, cells, output)


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("family", dist.FAMILIES)
@pytest.mark.parametrize(
    ("N", "ratio"),
    [(200, ("--alpha", "1/2")), (100, ("--p", "1/1009"))],
    ids=["200-half", "100-p1009"],
)
def test_pmf_exact_bytes_match_the_writers(capsys, output, family, N, ratio):
    # alpha = 1/2 at N = 200: 61-79 distinct denominators in about 200 rows;
    # p = 1/1009 at N = 100: 1-7 in about 100
    params = Params.exact(N, **{ratio[0][2:]: Fraction(ratio[1])})
    table = dist.pmf_table(family, params)
    rows = [(b, q.numerator, q.denominator) for b, q in zip(table.support, table.probs_exact)]
    assert len({den for _, _, den in rows}) < len(rows)
    code, out, err = run(capsys, "pmf", "--family", family, "--N", str(N), *ratio, "--output", output)
    assert code == 0 and err == ""
    assert out == writers_reference(["b", "prob_num", "prob_den"], rows, output)


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


class Admitted(BaseException):
    """Raised by the stubbed work: the command got past every refusal."""


@pytest.fixture
def no_work(monkeypatch):
    """Stub the work each command starts after its refusals, so that it raises Admitted."""

    def work(*args, **kwargs):
        raise Admitted

    for owner, name in [
        (cli.dist, "pmf_table"),
        (cli.dist, "moments"),
        (cli.dist, "convergence_table"),
        (cli.dist, "rounded_avalanche_mean"),
        (cli.sampler, "monte_carlo"),
        (cli.verify, "run_suites"),
    ]:
        monkeypatch.setattr(owner, name, work)


def refusal(capsys, *argv):
    """stderr of a command that exits 2 before any work, with no output."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    return err


def assert_admitted(*argv):
    with pytest.raises(Admitted):
        main(list(argv))


def predicted(*pieces):
    """The predicted seconds a refusal prints: sum of RATES[unit] * count, rounded to 0.1 s."""
    return round(sum(cli.RATES[unit] * count for unit, count in pieces), 1)


def time_message(command, *pieces):
    seconds = predicted(*pieces)
    return f"abeliand: error: {command} serves predicted seconds <= {cli.MAX_SECONDS}, got predicted seconds={seconds}\n"


def time_edge(pieces_at):
    """The largest x >= 1 whose predicted seconds, of pieces_at(x), are within MAX_SECONDS."""
    assert predicted(*pieces_at(1)) <= cli.MAX_SECONDS
    lo, hi = 1, 2
    while predicted(*pieces_at(hi)) <= cli.MAX_SECONDS:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if predicted(*pieces_at(mid)) <= cli.MAX_SECONDS else (lo, mid)
    return lo


def exact_pmf_pieces(N, d):
    return [("pmf", N * (N * d.bit_length()) ** 2)]


def exact_moments_pieces(N, d):
    return [("moments", (N * d.bit_length()) ** 2)]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_pmf_refuses_n_over_budget(capsys, no_work, mode):
    # float mode's domain is N <= FLOAT_MAX_N; exact mode's N is bounded by
    # time, at alpha = 1/2 (d = 2N) about 3600
    argv = ("pmf", "--family", "abelian", "--alpha", "1/2", "--mode", mode, "--N")
    if mode == "float":
        N = cli.FLOAT_MAX_N
        message = f"abeliand: error: pmf --mode float serves N <= {N}, got N={N + 1}\n"
    else:
        N = time_edge(lambda n: exact_pmf_pieces(n, 2 * n))
        assert 3000 < N < 4000
        message = time_message("pmf --mode exact", *exact_pmf_pieces(N + 1, 2 * N + 2))
    assert_admitted(*argv, str(N))
    assert refusal(capsys, *argv, str(N + 1)) == message


@pytest.mark.parametrize(
    "N, M, message",
    [
        (10**6 + 1, 1, "N <= 1000000, got N=1000001"),
        pytest.param(
            10**6,
            100_000,
            f"predicted seconds <= 30, got predicted seconds={predicted(('uniform', 10**11), ('draw', 10**5))}",
            id="1000000-100000-predicted-seconds",
        ),
        # 10^9 draws at N = 1 take about a minute
        pytest.param(
            1,
            10**9,
            f"predicted seconds <= 30, got predicted seconds={predicted(('uniform', 10**9), ('draw', 10**9))}",
            id="1-1000000000-predicted-seconds",
        ),
    ],
)
def test_sample_refuses_work_over_budget(capsys, no_work, N, M, message):
    err = refusal(capsys, "sample", "--N", str(N), "--alpha", "0.5", "--M", str(M))
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


@pytest.mark.parametrize("N", [1, 10, 1000, 10**6])
def test_sample_time_budget_edge(capsys, no_work, N):
    # N*M uniforms and M draws: at N = 1 about 2.9e8 draws, at N = 10^6 about 1200
    M = time_edge(lambda m: [("uniform", N * m), ("draw", m)])
    assert_admitted("sample", "--N", str(N), "--alpha", "0.5", "--M", str(M))
    err = refusal(capsys, "sample", "--N", str(N), "--alpha", "0.5", "--M", str(M + 1))
    assert err == time_message("sample", ("uniform", N * (M + 1)), ("draw", M + 1))


@pytest.mark.parametrize("N, M", [(1000, 10**6)])
def test_sample_budget_admits_its_edge(capsys, monkeypatch, N, M):
    # N*M = 10^9 at N = 1000, the edge of the retired N*M cap, is still
    # served: predicted about 25 s
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


def test_pmf_budget_admits_the_documented_sizes(no_work):
    # the tests and the benchmark run exact N = 1000 and float N = 10^5
    assert_admitted("pmf", "--family", "abelian", "--N", "1000", "--alpha", "1/2")
    assert_admitted("pmf", "--family", "abelian", "--N", str(10**5), "--alpha", "0.5", "--mode", "float")


def readme_examples():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return [line.split()[1:] for line in readme.read_text().splitlines() if line.startswith("abeliand ")]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_examples_are_admitted(no_work, argv):
    assert_admitted(*argv)


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
def test_float_moments_refuse_n_over_budget(capsys, no_work, family):
    N = cli.FLOAT_MAX_N + 1
    err = refusal(
        capsys, "moments", "--family", family, "--N", str(N), "--alpha", "1/2", "--mode", "float",
    )
    assert err == f"abeliand: error: moments --family {family} --mode float serves N <= {N - 1}, got N={N}\n"


@pytest.mark.parametrize("family", ["avalanche", "shifted", "abelian"])
def test_float_moments_budget_admits_its_limit(capsys, monkeypatch, family):
    # every family is served up to the one float domain
    N = cli.FLOAT_MAX_N
    monkeypatch.setattr(cli.dist, "moments", lambda family, params: dist.Moments(1.0, 2.0, 1.0, "float"))
    code, out, _ = run(
        capsys, "moments", "--family", family, "--N", str(N), "--alpha", "1/2", "--mode", "float",
    )
    assert code == 0
    assert out.splitlines()[1] == f"{N},0.5,1.0,2.0,1.0"


@pytest.mark.parametrize(
    "family, N, p",
    [("abelian", 2000, "1/10000000000"), ("avalanche", 100, f"1/{10**1000 + 7}")],
    ids=["abelian-2000-d34bits", "avalanche-100-d3322bits"],
)
def test_exact_pmf_refuses_time_over_budget(capsys, no_work, family, N, p):
    # a 10-digit d at N = 2000, and a 1001-digit d at N = 100 (about 24 s)
    err = refusal(capsys, "pmf", "--family", family, "--N", str(N), "--p", p)
    assert err == time_message("pmf --mode exact", *exact_pmf_pieces(N, Fraction(p).denominator))


def test_exact_pmf_digit_budget_admits_its_edge(capsys, no_work):
    # the edge in the length of d at N = 100, p = 1/10^k: about an 860-digit
    # d (a 1001-digit one took about 24 s)
    k = time_edge(lambda k: exact_pmf_pieces(100, 10**k))
    assert 800 < k < 900
    assert_admitted("pmf", "--family", "avalanche", "--N", "100", "--p", f"1e-{k}")
    err = refusal(capsys, "pmf", "--family", "avalanche", "--N", "100", "--p", f"1e-{k + 1}")
    assert err == time_message("pmf --mode exact", *exact_pmf_pieces(100, 10 ** (k + 1)))


@pytest.mark.parametrize(
    "family, N, ratio",
    [
        ("abelian", 10**6, ("--alpha", "1/2")),
        # d = 1000 * 10^4298 has 4302 digits, past Python's int-to-str limit
        ("abelian", 1000, ("--alpha", f"1/{10**4298}")),
        ("avalanche", 3, ("--p", "1e-100000")),
    ],
    ids=["abelian-1e6-half", "abelian-1000-d4302digits", "avalanche-3-d100001digits"],
)
def test_exact_moments_refuse_time_over_budget(capsys, no_work, family, N, ratio):
    err = refusal(capsys, "moments", "--family", family, "--N", str(N), *ratio)
    d = (Fraction(ratio[1]) / (N if ratio[0] == "--alpha" else 1)).denominator
    assert err == time_message("moments --mode exact", *exact_moments_pieces(N, d))


def test_exact_moments_digit_budget_admits_its_edge(capsys, no_work):
    # at alpha = 1/2 (d = 2N) the edge is near N = 46000; N = 40000 took 16 s
    # for the Avalanche family
    N = time_edge(lambda n: exact_moments_pieces(n, 2 * n))
    assert 40000 < N < 50000
    assert_admitted("moments", "--family", "avalanche", "--N", str(N), "--alpha", "1/2")
    err = refusal(capsys, "moments", "--family", "avalanche", "--N", str(N + 1), "--alpha", "1/2")
    assert err == time_message("moments --mode exact", *exact_moments_pieces(N + 1, 2 * N + 2))


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--N", "1000", "--alpha", "0.5", "--M", str(10**6 + 1)),
        ("moments", "--family", "abelian", "--N", "20001", "--alpha", "1/2"),
    ],
    ids=["sample-1000-1000001", "moments-abelian-20001-half"],
)
def test_admits_inputs_the_retired_size_caps_refused(no_work, argv):
    # one draw past N*M = 10^9 at N = 1000 is predicted about 25 s, and exact
    # moments past N*D = 10^5 at alpha = 1/2 about 4 s
    assert_admitted(*argv)


@pytest.mark.parametrize("command", [("moments",), ("pmf", "--family", "abelian")], ids=["moments", "pmf"])
def test_exact_size_refusal_converts_no_decimal(capsys, monkeypatch, no_work, command):
    # d = 10^1000000: its decimal conversion alone took 17 s.  The prediction
    # reads d's bit length, so lifting the int-to-str limit, which only a
    # conversion needs, is never reached.
    def no_conversion(limit):
        raise AssertionError("int-to-str limit lifted for a refusal")

    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setattr(sys, "set_int_max_str_digits", no_conversion, raising=False)
    # nor is 10^1000000 built: the literal's bound on d's bit length, exact
    # here, refuses it first (0.43 s of Fraction() in the parse otherwise)
    monkeypatch.setattr(cli, "Fraction", no_fraction)
    err = refusal(capsys, *command, "--mode", "exact", "--N", "1", "--p", "1e-1000000")
    pieces = exact_pmf_pieces if command[0] == "pmf" else exact_moments_pieces
    assert err == time_message(f"{command[0]} --mode exact", *pieces(1, 10**1000000))


def outcome(capsys, *argv):
    """The verdict: "admitted", or a refusal's message, its predicted seconds apart."""
    try:
        code, out, err = run(capsys, *argv)
    except Admitted:
        return "admitted", None
    except SystemExit as exc:  # argparse reads -1e-90000 as an option
        return f"usage {exc.code} {capsys.readouterr().err}", None
    assert (code, out) == (2, "")
    head, _, seconds = err.partition("got predicted seconds=")
    return head, float(seconds) if seconds else None


# Each side of the time edges at N = 3 (d near 2^278000 for moments, 2^548000
# for pmf), literals the bound reads and literals it leaves to the parse, and
# each side of float mode's zero: 2.4703282292062327e-324 rounds to 0.0 and
# ...28e-324 to 5e-324, both bounded at 1075 bits; 1e-324 is 0.0 at 1077.
BOUND_LITERALS = [
    "1e-80000", "1e-83815", "1e-83830", "1e-90000", "7.5e-90000", "0.00120e-89990", "+12345E-90000",
    " 1e-90000 ", "1e-165000", "1e-170000", "-1e-90000", "0e-90000", "0.0e-90000", "1e-1000001",
    "1_0e-90000", "9" * 90001 + "e-90000", "1/3", "1e-5", "5.e-1",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-324", "3e-324", "1e-400",
]

BOUND_COMMANDS = {
    "moments": ("moments",),
    "pmf": ("pmf", "--family", "avalanche"),
    "moments-float": ("moments", "--mode", "float"),
    "pmf-float": ("pmf", "--family", "avalanche", "--mode", "float"),
    "sample": ("sample",),
    "limit": ("limit",),
}


@pytest.mark.parametrize(
    "command, N, flag",
    [
        pytest.param(command, N, flag, id=f"{name}-{N}-{flag}")
        for name, command in BOUND_COMMANDS.items()
        for N in [1, 3, 0, -2]
        for flag in (["--alpha"] if name == "limit" else ["--p", "--alpha"])
    ],
)
def test_literal_bound_keeps_every_verdict(capsys, monkeypatch, no_work, command, N, flag):
    # The refusal read off the literal, before its Fraction, refuses what the
    # time check at d, or in float mode the float of the Fraction, refuses
    # and nothing else; its prediction, at a lower bound on d's bit length,
    # is at most d's.
    literal_bits = cli._literal_bits

    def caps_only(text, below):
        literal_bits(text, below)
        return 0

    for literal in BOUND_LITERALS:
        argv = (*command, "--N", str(N), flag, literal)
        with monkeypatch.context() as unbounded:
            unbounded.setattr(cli, "_literal_bits", caps_only)
            at_d = outcome(capsys, *argv)
        early = outcome(capsys, *argv)
        assert early[0] == at_d[0], argv
        if early[1] is not None:
            assert early[1] <= at_d[1], argv


FLOAT_ZERO_COMMANDS = [
    ("sample", "--N", "1", "--p"),
    ("sample", "--N", "1", "--alpha"),
    ("pmf", "--family", "abelian", "--mode", "float", "--N", "1", "--p"),
    ("pmf", "--family", "abelian", "--mode", "float", "--N", "1", "--alpha"),
    ("moments", "--mode", "float", "--N", "1", "--p"),
    ("moments", "--mode", "float", "--N", "1", "--alpha"),
    ("limit", "--alpha"),
]


@pytest.mark.parametrize("literal", ["1e-1000000", "7.5e-999999", "0.001e-400000"])
@pytest.mark.parametrize(
    "command",
    FLOAT_ZERO_COMMANDS,
    ids=["sample-p", "sample-alpha", "pmf-float-p", "pmf-float-alpha", "moments-float-p", "moments-float-alpha", "limit"],
)
def test_float_zero_literal_refused_before_the_fraction(capsys, monkeypatch, command, literal):
    # Its bound puts the value below 2^-1076, so its float is 0.0; Fraction()
    # would build 10^1000000 first, about 0.17 s of a 0.24 s refusal (2 vCPUs).
    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    message = "alpha must lie in (0, 1)" if command[0] == "limit" else "p must be positive"
    assert refusal(capsys, *command, literal) == f"abeliand: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sample", "--N", "2000000", "--p", "1/2"), "sample serves N <= 1000000, got N=2000000"),
        (("limit", "--alpha", "1e-1000000", "--N", "2000000"), "limit serves N <= 1000000, got N=2000000"),
        (("limit", "--alpha", "1e-400", "--N", "2000000"), "limit serves N <= 1000000, got N=2000000"),
    ],
    ids=["sample-n-and-p", "limit-n-and-float-zero", "limit-n-and-1e-400"],
)
def test_float_domain_refused_before_the_literal(capsys, argv, message):
    # Where N is over float mode's domain and the literal is refused too,
    # the N is reported.
    assert refusal(capsys, *argv) == f"abeliand: error: {message}\n"


def test_time_refusal_past_float_range(capsys, no_work):
    # N*S^2 past 10^308 predicts an infinite time, not an internal error
    N = 10**120
    assert refusal(capsys, "pmf", "--family", "abelian", "--N", str(N), "--alpha", "1/2") == (
        "abeliand: error: pmf --mode exact serves predicted seconds <= 30, got predicted seconds=inf\n"
    )


@pytest.mark.parametrize("command", [("moments", "--N", "2", "--alpha"), ("limit", "--alpha")], ids=["moments", "limit"])
def test_parse_refuses_numbers_past_the_int_digit_limit(capsys, command):
    # int() refuses a run of over 4300 digits, so a valid literal with one
    # would read "cannot parse" with all 5002 characters echoed
    literal = "0." + "9" * 5000
    err = refusal(capsys, *command, literal)
    assert err == "abeliand: error: numbers of <= 4300 digits are served, got 5000 digits\n"


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


def test_limit_refuses_n_over_budget(capsys, no_work):
    N = cli.FLOAT_MAX_N + 1
    err = refusal(capsys, "limit", "--alpha", "0.5", "--N", "100", str(N), "1000")
    assert err == f"abeliand: error: limit serves N <= {N - 1}, got N={N}\n"


def test_limit_time_budget_edge(capsys, no_work):
    # each row costs its N; rows near N = 10^6 take about 0.8 s each
    def rows(k):
        return [str(cli.FLOAT_MAX_N - i) for i in range(k)]

    k = time_edge(lambda k: [("row", sum(map(int, rows(k))))])
    assert 30 < k < 40
    assert_admitted("limit", "--alpha", "0.999999", "--N", *rows(k))
    assert_admitted("limit", "--alpha", "0.999999", "--N", *rows(k), *rows(k))  # a repeated N is one row
    err = refusal(capsys, "limit", "--alpha", "0.999999", "--N", *rows(k + 1))
    assert err == time_message("limit", ("row", sum(map(int, rows(k + 1)))))


def test_limit_refuses_100_rows_near_n_1e6(capsys, no_work):
    # rows 999901..1000000 take about 0.8 s each at alpha = 0.999999
    Ns = range(999901, 10**6 + 1)
    err = refusal(capsys, "limit", "--alpha", "0.999999", "--N", *map(str, Ns))
    assert err == time_message("limit", ("row", sum(Ns)))


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
    N = cli.FLOAT_MAX_N
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


def verify_pieces(names, max_n=25, samples=10**6):
    sweeps, samplers = names.count("pmf") + names.count("moments"), names.count("sampler")
    return [
        ("suite", len(names)),
        ("sweep", sweeps * max_n**3),
        ("uniform", samplers * 18 * samples),  # N = 3, 5 and 10
        ("draw", samplers * 3 * samples),
    ]


def test_verify_refuses_max_n_over_budget(capsys, no_work):
    # every suite at once: --max-n 150 (17-25 s) is admitted
    names = list(verify.SUITE_NAMES)
    max_n = time_edge(lambda n: verify_pieces(names, max_n=n))
    assert 150 <= max_n < 170
    assert_admitted("verify", "--max-n", str(max_n))
    err = refusal(capsys, "verify", "--max-n", str(max_n + 1))
    assert err == time_message("verify", *verify_pieces(names, max_n=max_n + 1))


def test_verify_refuses_samples_over_budget(capsys, no_work):
    # the sampler suite alone: --samples 3*10^7 (16 s) is admitted
    samples = time_edge(lambda n: verify_pieces(["sampler"], samples=n))
    assert 3 * 10**7 < samples < 5 * 10**7
    assert_admitted("verify", "--suite", "sampler", "--samples", str(samples))
    err = refusal(capsys, "verify", "--suite", "sampler", "--samples", str(samples + 1))
    assert err == time_message("verify", *verify_pieces(["sampler"], samples=samples + 1))


def test_verify_charges_each_repeat_of_a_suite(capsys, no_work):
    # a suite named k times runs k times: sampler at 3*10^7 samples twice
    argv = ("verify", "--samples", str(3 * 10**7), "--suite", "sampler")
    assert_admitted(*argv)
    err = refusal(capsys, *argv, "--suite", "sampler")
    assert err == time_message("verify", *verify_pieces(["sampler"] * 2, samples=3 * 10**7))
    k = time_edge(lambda k: verify_pieces(["stirling"] * k))
    assert_admitted("verify", *["--suite", "stirling"] * k)
    err = refusal(capsys, "verify", *["--suite", "stirling"] * (k + 1))
    assert err == time_message("verify", *verify_pieces(["stirling"] * (k + 1)))


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
