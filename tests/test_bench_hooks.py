"""The benchmark's span recorder wraps abeliand entry points by name.

Entering ``perfbench/spans.installed`` looks up every name it wraps, so a
rename or removal of one of them fails here rather than only in a traced
benchmark run.
"""

import pathlib
import sys

import abeliand.verify  # noqa: F401 - spans wraps the suites only once loaded
from abeliand import dist

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_span_recorder_finds_every_wrapped_name():
    original = dist.pmf_table
    with spans.installed(spans.Tracer()):
        assert dist.pmf_table is not original
    assert dist.pmf_table is original
