"""Child-process entry points of the benchmark.

    python3 perfbench/child.py exact SEED [--trace]
        Runs the exact task list in this fresh interpreter, so the Stirling
        row memo starts cold as it does for a CLI user, and prints one JSON
        line: {"ops": [[name, seconds, ok], ...], "spans": [...], "rss_mb": x}.

    python3 perfbench/child.py cli ARG...
        Runs ``abeliand.cli.main(ARG...)`` with every wrapped entry point
        traced.  The program's stdout is left as it is; the spans go to
        stderr as the last line, after a marker.
"""

from __future__ import annotations

import json
import sys

import spans
import workloads


def exact(argv) -> int:
    seed, traced = int(argv[0]), "--trace" in argv[1:]
    tracer = spans.Tracer()
    golden = workloads.load_json("golden.json")
    if traced:
        with spans.installed(tracer):
            ops = workloads.run_exact_tasks(seed, golden)
    else:
        ops = workloads.run_exact_tasks(seed, golden)
    report = {
        "ops": [[op.name, op.seconds, op.ok] for op in ops],
        "spans": tracer.spans,
        "rss_mb": workloads.rss_mb(),
    }
    print(json.dumps(report))
    return 0


def cli(argv) -> int:
    from abeliand import cli as abeliand_cli

    tracer = spans.Tracer()
    try:
        with spans.installed(tracer):
            code = tracer.call("cli.main", abeliand_cli.main, argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(workloads.SPANS_MARK + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    command = {"exact": exact, "cli": cli}[sys.argv[1]]
    sys.exit(command(sys.argv[2:]))
