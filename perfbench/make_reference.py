"""Write the benchmark's stored expectations.

    python3 perfbench/make_reference.py

reference.json holds exact values, as 25-digit decimal strings, that the
timed runs compare float results against without paying for the Fraction
arithmetic (the N <= 1000 variance grid alone takes seconds):
  * pmf_n1000_a0.5: every probability of the three families at N=1000,
    alpha=1/2;
  * variance: the Abelian variance on the float workload's grid for N <= 1000;
  * avalanche_mean: the Avalanche mean at each sampler point.

golden.json pins current outputs by sha256, at the golden seed 42: the
monte_carlo count vector of each sampler point, the stdout of each CLI
command, and the exact results the exact workload does not check by an
identity.  Regenerate it only when an output is meant to change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import workloads
from abeliand import dist, sampler
from abeliand.dist import Params


def decimal_text(q: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 25
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def exact_alpha(alpha: float) -> Fraction:
    return Fraction(repr(alpha))  # 1e-07 -> 1/10000000, not the binary double


def reference() -> dict:
    half = Params.exact(1000, alpha=workloads.HALF)
    variance = {}
    for N in (n for n in workloads.VARIANCE_NS if n <= 1000):
        for alpha in workloads.ALPHAS:
            v = dist.abelian_variance(Params.exact(N, alpha=exact_alpha(alpha))).variance
            variance[workloads.variance_key(N, alpha)] = decimal_text(v)
    return {
        "pmf_n1000_a0.5": {
            family: [decimal_text(q) for q in dist.pmf_table(family, half).probs_exact]
            for family in dist.FAMILIES
        },
        "variance": variance,
        "avalanche_mean": {
            point: decimal_text(dist.avalanche_mean(Params.exact(N, alpha=exact_alpha(alpha))))
            for point, (N, alpha, _) in workloads.POINTS.items()
        },
    }


def golden() -> dict:
    seed = workloads.GOLDEN_SEED
    counts = {}
    for point, (N, alpha, M) in workloads.POINTS.items():
        stats = sampler.monte_carlo(Params.stable(N, alpha=alpha), M, seed)
        counts[point] = workloads.digest(",".join(map(str, workloads.count_vector(stats, N))))
    cli = {}
    for label, args in workloads.cli_commands(seed).items():
        proc = subprocess.run(
            [sys.executable, "-m", "abeliand", *args],
            capture_output=True,
            env=workloads.child_env(),
            check=True,
        )
        cli[label] = workloads.digest(proc.stdout)
    exact = {
        name: workloads.digest(workloads.canonical(call()))
        for name, call in workloads.exact_tasks().items()
        if name not in workloads.TABLES
    }
    return {"seed": seed, "sampler": counts, "cli": cli, "exact": exact}


def main() -> int:
    for name, build in (("reference.json", reference), ("golden.json", golden)):
        with open(workloads.HERE / name, "w") as fh:
            json.dump(build(), fh, indent=1)
            fh.write("\n")
        print(f"wrote {workloads.HERE / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
