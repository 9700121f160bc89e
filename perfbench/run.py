"""The abeliand benchmark.

    python3 perfbench/run.py --workload {sampler,exact,float,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; abeliand is imported from its ``src/``.
Set-up first times a fresh interpreter importing ``abeliand.cli`` three
times.  Then the workload's task list runs as passes, one at a time, until
another pass would end after S seconds (at least one pass; with tracing, at
least one untraced and one traced pass, alternating).  Every output is
checked after its timing.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import spans
import workloads

IMPORTS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}
SAMPLER_POINT_METRICS = ("sampler.draws_per_s", "sampler.rng_floor_draws_per_s", "sampler.max_avalanche")
PER_LAYER = {
    **{f"{lay}.self_s": "s" for lay in spans.SELF_LAYERS},
    "stirling.calls": "count",
    **{metric: "s" for metric in spans.GROUPS},
    "dist.exact.rows_per_s": "1/s",
    "dist.float.rows_per_s": "1/s",
    "dist.float.pmf_max_relerr": "ratio",
    "dist.float.var_max_relerr": "ratio",
    "dist.float.sum_gap_n1e6": "ratio",
    "sampler.draws_per_s": "1/s",
    **{
        f"{metric}.{point}": "count" if metric.endswith("avalanche") else "1/s"
        for metric in SAMPLER_POINT_METRICS
        for point in workloads.POINTS
    },
    "sampler.chunk_matrix_mb": "MB",
    **{f"verify.{suite}_s": "s" for suite in spans.SUITES},
    "import.dist_s": "s",
    "import.cli_s": "s",
    **{f"cli.{label}_s": "s" for label in workloads.cli_commands(0)},
    "cli.format_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_frac": "ratio",
}


def import_seconds(module: str) -> float:
    """Median wall time of a fresh interpreter importing ``module``."""
    times = []
    for _ in range(IMPORTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], check=True, env=workloads.child_env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(workload, seed: int, seconds: float, trace: bool, ctx: dict):
    """[(traced, Pass)], stopping before a pass that would end after ``seconds``."""
    done = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(done) % 2 == 1
        done.append((traced, workload(seed, ctx, traced)))
        elapsed = time.perf_counter() - t0
        if len(done) >= 1 + trace and elapsed + elapsed / len(done) > seconds:
            return done


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    ops = [op for p in passes for op in p.ops]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "ops_ok_frac": sum(op.ok for op in ops) / len(ops),
    }


def per_layer(traced, untraced, imports: dict[str, float]) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0.0)
    rows = [{**spans.layer_metrics(p.spans), **p.layer} for p in traced]
    for key in set().union(*rows):
        out[key] = statistics.median(row[key] for row in rows if key in row)
    out.update(imports)
    untraced_wall = statistics.median(p.wall for p in untraced)
    out["trace.overhead_frac"] = statistics.median(p.wall for p in traced) / untraced_wall - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ctx = {"golden": workloads.load_json("golden.json"), "reference": workloads.load_json("reference.json")}
    imports = {"import.cli_s": import_seconds("abeliand.cli")}
    if args.trace:
        imports["import.dist_s"] = import_seconds("abeliand.dist")

    passes = run_passes(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ctx)
    everything = [p for _, p in passes]
    failed = sum(not op.ok for p in everything for op in p.ops)
    attempted = sum(len(p.ops) for p in everything)
    for p in everything:
        for op in p.ops:
            if not op.ok:
                print(f"perfbench: {args.workload} op {op.name} failed", file=sys.stderr)

    if args.trace:
        values = per_layer([p for t, p in passes if t], [p for t, p in passes if not t], imports)
        units = PER_LAYER
    else:
        values = end_to_end(everything, imports["import.cli_s"])
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
