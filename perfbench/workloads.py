"""The four workloads: their task lists, how each task is timed and how its
output is checked.

A pass runs a workload's task list once and returns one ``Op`` per task.
Each task is timed alone; its output check runs after its timer stops, so
checks never count toward a timing.  The run seed only decides the order of
the tasks and, where a task is random, its stream seed; the parameters are
fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_SEED = 42
SPANS_MARK = "perfbench-spans "


def use_source() -> None:
    """Import abeliand from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "abeliand" / "__init__.py").is_file():
        sys.exit(f"perfbench: no abeliand sources under {SRC}")
    sys.path.insert(0, str(SRC))


use_source()

from abeliand import dist, sampler, stirling  # noqa: E402
from abeliand.dist import Params  # noqa: E402

import spans  # noqa: E402


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)  # one span list per process
    layer: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def load_json(name: str) -> dict:
    with open(HERE / name) as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("ABELIAND_SEED", None)  # the CLI's seed comes from its flags only
    return env


def rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


FAILED = object()


def timed(call):
    """(result, seconds); an op that raises returns FAILED and the run goes on."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        result = FAILED
    return result, time.perf_counter() - t0


@contextlib.contextmanager
def tracing(out: Pass, traced: bool):
    """Trace this process's calls into abeliand inside the block, if asked."""
    if not traced:
        yield
        return
    tracer = spans.Tracer()
    with spans.installed(tracer):
        yield
    out.spans.append(tracer.spans)


def ordered(seed: int, tasks):
    return random.Random(seed).sample(list(tasks), len(tasks))


def relative_gap(approx: float, exact: float) -> float:
    """suite_float's rule: below 1e-280 both values only need to be tiny."""
    if exact <= 1e-280:
        return 0.0 if abs(approx) <= 1e-280 else math.inf
    return abs(approx - exact) / exact


# --- sampler ---------------------------------------------------------------

# name -> (N, alpha, M).  n1000_a0.9 draws one full chunk: its (65536, 1000)
# uniform matrix is the largest input any workload builds.
POINTS = {
    "n10_a0.8": (10, 0.8, 1_000_000),
    "n100_a0.5": (100, 0.5, 200_000),
    "n100_a0.99": (100, 0.99, 65_536),
    "n1000_a0.9": (1000, 0.9, 65_536),
}
# The N=1000 chunk costs time in proportion to its deepest avalanche, whose
# step count varies by a fifth (quartile spread over 12 stream seeds) from
# seed to seed.  Its stream seed stays at the golden seed, so its digest is
# checked on every run and its cost does not drown the other points.
PINNED = "n1000_a0.9"


def count_vector(stats, N: int) -> list[int]:
    return [stats.empirical_pmf.get(b, 0) for b in range(N + 1)]


def check_counts(counts, M: int, stream_seed: int, golden_digest: str, exact_mean: float) -> bool:
    """Digest at the golden seed; otherwise the mean within 5 stderr."""
    if sum(counts) != M:
        return False
    if stream_seed == GOLDEN_SEED:
        return digest(",".join(map(str, counts))) == golden_digest
    mean = sum(b * c for b, c in enumerate(counts)) / M
    var = sum(b * b * c for b, c in enumerate(counts)) / M - mean * mean
    return abs(mean - exact_mean) <= 5 * math.sqrt(max(var, 0.0) / M)


def sampler_pass(seed: int, ctx: dict, traced: bool) -> Pass:
    out = Pass()
    with tracing(out, traced):
        _sample_points(seed, ctx, traced, out)
    out.rss_mb = rss_mb()
    return out


def _sample_points(seed: int, ctx: dict, traced: bool, out: Pass) -> None:
    draws = seconds = 0.0
    for point in ordered(seed, POINTS):
        N, alpha, M = POINTS[point]
        params = Params.stable(N, alpha=alpha)
        s = GOLDEN_SEED if point == PINNED else seed
        stats, dt = timed(lambda: sampler.monte_carlo(params, M, s))
        ok = stats is not FAILED
        if ok:
            counts = count_vector(stats, N)
            ok = check_counts(counts, M, s, ctx["golden"]["sampler"][point], float(ctx["reference"]["avalanche_mean"][point]))
        out.ops.append(Op(point, dt, ok))
        draws += M
        seconds += dt
        if traced and ok:
            m = min(M, sampler.CHUNK)
            t0 = time.perf_counter()
            sampler.substream(s, 0).random((m, N))
            out.layer[f"sampler.rng_floor_draws_per_s.{point}"] = m / (time.perf_counter() - t0)
            out.layer[f"sampler.draws_per_s.{point}"] = M / dt
            out.layer[f"sampler.max_avalanche.{point}"] = max(b for b, c in enumerate(counts) if c)
    out.layer["sampler.draws_per_s"] = draws / seconds
    out.layer["sampler.chunk_matrix_mb"] = max(min(M, sampler.CHUNK) * N * 8 for N, _, M in POINTS.values()) / 1e6


# --- exact -----------------------------------------------------------------

HALF, NINE_TENTHS = Fraction(1, 2), Fraction(9, 10)
TABLES = {
    f"pmf_{family}_n{N}": (family, N, alpha)
    for N, alpha in ((1000, HALF), (200, NINE_TENTHS))
    for family in dist.FAMILIES
}


def canonical(result) -> str:
    """Exact results as text, for the golden digests.

    Integers are written in hex: decimal str() refuses ints past 4300 digits.
    """
    if isinstance(result, stirling.StirlingRow):
        return ",".join(f"{c:x}" for c in result.coeffs)
    if isinstance(result, Fraction):
        return f"{result.numerator:x}/{result.denominator:x}"
    fields = ("mean", "second_moment", "variance")
    if isinstance(result, dist.JDecomposition):
        fields = ("J1", "J2", "J3", "J4", "J5", "J6", "C", "second_moment")
    return "|".join(canonical(Fraction(getattr(result, f))) for f in fields)


def exact_tasks():
    """name -> call.  Tables are checked by summing to 1; the rest by digest."""
    tasks = {"stirling_row_400": lambda: stirling.stirling_row(400)}
    for name, (family, N, alpha) in TABLES.items():
        tasks[name] = lambda f=family, n=N, a=alpha: dist.pmf_table(f, Params.exact(n, alpha=a))
    big = Params.exact(1000, alpha=HALF)
    tasks["variance_n1000"] = lambda: dist.abelian_variance(big)
    tasks["avalanche_mean_n1000"] = lambda: dist.avalanche_mean(big)
    # j_decomposition raises ArithmeticError when a J-term identity breaks.
    tasks["jdecomp_n200"] = lambda: dist.j_decomposition(Params.exact(200, alpha=NINE_TENTHS))
    return tasks


def run_exact_tasks(seed: int, golden: dict) -> list[Op]:
    """The exact task list; meant for a fresh process (see child.py)."""
    tasks = exact_tasks()
    ops = []
    for name in ordered(seed, tasks):
        result, dt = timed(tasks[name])
        if result is FAILED:
            ok = False
        elif name in TABLES:
            ok = sum(result.probs_exact) == 1 and min(result.probs_exact) >= 0
        else:
            ok = digest(canonical(result)) == golden["exact"][name]
        ops.append(Op(name, dt, ok))
    return ops


def exact_pass(seed: int, ctx: dict, traced: bool) -> Pass:
    argv = [sys.executable, str(HERE / "child.py"), "exact", str(seed)] + (["--trace"] if traced else [])
    proc = subprocess.run(argv, capture_output=True, env=child_env())
    try:
        report = json.loads(proc.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr.decode())
        names = exact_tasks()
        return Pass(ops=[Op(name, 0.0, False) for name in names])
    return Pass(
        ops=[Op(*op) for op in report["ops"]],
        spans=[report["spans"]] if traced else [],
        rss_mb=report["rss_mb"],
    )


# --- float -----------------------------------------------------------------

ALPHAS = (1e-7, 1e-5, 1e-3, 0.1, 0.5, 0.9, 0.99)
VARIANCE_NS = (2, 10, 100, 1000, 2000, 10**4, 10**5, 10**6)
LIMIT_NS = (100, 1000, 10**4, 10**5, 10**6)
# suite_float's stated tolerances on |sum - 1|; None: reported, not gated.
SUM_TOL = {1000: 1e-10, 10**5: 1e-8, 10**6: None}


def variance_key(N: int, alpha: float) -> str:
    return f"{N}:{alpha!r}"


def float_pass(seed: int, ctx: dict, traced: bool) -> Pass:
    out = Pass()
    with tracing(out, traced):
        _float_tasks(seed, ctx["reference"], out)
    out.rss_mb = rss_mb()
    return out


def _float_tasks(seed: int, ref: dict, out: Pass) -> None:
    tasks = [("pmf", family, N) for N in SUM_TOL for family in dist.FAMILIES]
    tasks += [("variance", N, alpha) for N in VARIANCE_NS for alpha in ALPHAS]
    tasks.append(("limit",))
    pmf_err = var_err = gap_1e6 = 0.0
    for task in ordered(seed, tasks):
        kind = task[0]
        if kind == "pmf":
            _, family, N = task
            result, dt = timed(lambda: dist.pmf_table(family, Params.stable(N, alpha=0.5)))
        elif kind == "variance":
            _, N, alpha = task
            result, dt = timed(lambda: dist.abelian_variance(Params.stable(N, alpha=alpha)).variance)
        else:
            result, dt = timed(lambda: dist.convergence_table(0.5, LIMIT_NS))
        if result is FAILED:
            ok = False
        elif kind == "pmf":
            gap = abs(math.fsum(result.probs_float) - 1.0)
            ok = len(result.support) == len(dist.support(family, N))
            if SUM_TOL[N] is None:
                gap_1e6 = max(gap_1e6, gap)
            else:
                ok = ok and gap <= SUM_TOL[N]
            if N == 1000:
                exact = ref["pmf_n1000_a0.5"][family]
                worst = max(relative_gap(f, float(e)) for f, e in zip(result.probs_float, exact))
                pmf_err = max(pmf_err, worst)
                ok = ok and worst <= 1e-9  # suite_float's float/exact tolerance
        elif kind == "variance":
            ok = math.isfinite(result) and result > 0
            exact = ref["variance"].get(variance_key(N, alpha))
            if exact is not None:  # N <= 1000: recorded, not gated
                var_err = max(var_err, abs(result - float(exact)) / float(exact))
        else:
            errs = [row.abs_error for row in result]
            ok = all(row.error is None for row in result) and all(a > b for a, b in zip(errs, errs[1:]))
        out.ops.append(Op("_".join(map(str, task)), dt, ok))
        del result  # an N=1e6 table is ~100 MB: never hold two
    out.layer.update({
        "dist.float.pmf_max_relerr": pmf_err,
        "dist.float.var_max_relerr": var_err,
        "dist.float.sum_gap_n1e6": gap_1e6,
    })


# --- cli -------------------------------------------------------------------

CLI_PMF = ["pmf", "--family", "abelian", "--N"]


def cli_commands(seed: int) -> dict[str, list[str]]:
    return {
        "verify": ["verify"],
        "pmf_exact": CLI_PMF + ["1000", "--alpha", "1/2", "--mode", "exact"],
        "pmf_float": CLI_PMF + ["100000", "--alpha", "0.5", "--mode", "float"],
        "moments": ["moments", "--N", "1000", "--alpha", "1/2"],
        "limit": ["limit", "--alpha", "0.5"],
        "sample": ["sample", "--N", "10", "--p", "0.08", "--M", "1000000", "--seed", str(seed)],
    }


def check_sample_json(stdout: bytes, exact_mean: float) -> bool:
    payload = json.loads(stdout)
    counts = [0] * (payload["N"] + 1)
    for b, c in payload["empirical_pmf"].items():
        counts[int(b)] = c
    return check_counts(counts, payload["M"], payload["seed"], "", exact_mean)


def cli_pass(seed: int, ctx: dict, traced: bool) -> Pass:
    out = Pass()
    commands = cli_commands(seed)
    prefix = [sys.executable, str(HERE / "child.py"), "cli"] if traced else [sys.executable, "-m", "abeliand"]
    stdout_bytes = format_s = 0.0
    for label in ordered(seed, commands):
        t0 = time.perf_counter()
        proc = subprocess.run(prefix + commands[label], capture_output=True, env=child_env())
        dt = time.perf_counter() - t0
        ok = proc.returncode == 0
        if ok and label == "sample" and seed != GOLDEN_SEED:
            ok = check_sample_json(proc.stdout, float(ctx["reference"]["avalanche_mean"]["n10_a0.8"]))
        elif ok:
            ok = digest(proc.stdout) == ctx["golden"]["cli"][label]
        if not ok:
            sys.stderr.write(f"perfbench: cli {label} failed (exit {proc.returncode})\n{proc.stderr.decode()[-2000:]}")
        out.ops.append(Op(label, dt, ok))
        stdout_bytes += len(proc.stdout)
        if traced:
            lines = proc.stderr.decode().splitlines()
            found = json.loads(lines[-1][len(SPANS_MARK):]) if lines and lines[-1].startswith(SPANS_MARK) else []
            out.spans.append(found)
            own = spans.self_times(found)
            main = [i for i, span in enumerate(found) if span[0] == "cli.main"]
            out.layer[f"cli.{label}_s"] = sum(found[i][2] - found[i][1] for i in main)
            format_s += sum(own[i] for i in main)
    out.layer["cli.format_s"] = format_s
    out.layer["cli.stdout_bytes"] = stdout_bytes
    out.rss_mb = rss_mb(resource.RUSAGE_CHILDREN)
    return out


WORKLOADS = {"sampler": sampler_pass, "exact": exact_pass, "float": float_pass, "cli": cli_pass}
