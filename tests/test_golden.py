"""The benchmark's golden digests, checked in tier-1.

``perfbench/golden.json`` pins the CLI output bytes of every `cli` workload
command and the exact results of the `exact` workload at seed 42.  The
benchmark only reads it during a run; this test reads the same file and the
same command and task lists from ``perfbench/workloads.py``, so a change that
moves a pinned output fails here first.
"""

import pathlib
import sys

import pytest

from abeliand import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GOLDEN = workloads.load_json("golden.json")
COMMANDS = workloads.cli_commands(workloads.GOLDEN_SEED)
EXACT_TASKS = workloads.exact_tasks()


def test_golden_seed_is_the_file_seed():
    assert GOLDEN["seed"] == workloads.GOLDEN_SEED


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_cli_output_matches_golden(capsysbinary, monkeypatch, label):
    """The verify case takes about 1.4 s: it runs all nine default suites in process."""
    monkeypatch.delenv("ABELIAND_SEED", raising=False)
    assert cli.main(COMMANDS[label]) == 0
    out, _ = capsysbinary.readouterr()
    assert workloads.digest(out) == GOLDEN["cli"][label]


@pytest.mark.parametrize("name", sorted(GOLDEN["exact"]))
def test_exact_result_matches_golden(name):
    result = EXACT_TASKS[name]()
    assert workloads.digest(workloads.canonical(result)) == GOLDEN["exact"][name]
