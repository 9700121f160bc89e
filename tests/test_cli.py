import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from abeliand import cli, verify
from abeliand.cli import main
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


def test_moments_exact_guard_maps_to_usage_error(capsys):
    code, _, err = run(
        capsys, "moments", "--family", "avalanche", "--N", "40", "--alpha", "1/2",
    )
    assert code == 2 and "brute force" in err


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
