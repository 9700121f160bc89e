"""Self-tests for the benchmark's own logic.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection; it needs
a few seconds (one N=10 monte_carlo run).
"""

from __future__ import annotations

import json
import unittest

import run
import spans
import workloads
from abeliand import dist, sampler
from abeliand.dist import Params


def span(name, start, end, parent=-1, count=0):
    return [name, float(start), float(end), parent, count]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        trace = [
            span("dist.exact.abelian_variance", 0, 10),
            span("dist.exact.abelian_second_moment", 1, 4, parent=0),
            span("stirling.falling_factorial", 2, 3, parent=1),
            span("stirling.stirling_row", 5, 9, parent=0),
        ]
        self.assertEqual(spans.self_times(trace), [3.0, 2.0, 1.0, 4.0])

    def test_layer_metrics_on_nested_spans(self):
        trace = [
            span("dist.exact.abelian_variance", 0, 10),
            span("dist.exact.abelian_second_moment", 1, 4, parent=0),
            span("stirling.falling_factorial", 2, 3, parent=1),
            span("dist.exact.pmf_table", 11, 13, count=1000),
            span("stirling.stirling_row", 11.5, 12, parent=3),
        ]
        other_process = [span("dist.float.pmf_table", 0, 4, count=100)]
        m = spans.layer_metrics([trace, other_process])
        self.assertEqual(m["dist.exact.self_s"], (10 - 3) + 2 + 1.5)
        self.assertEqual(m["stirling.self_s"], 1.5)
        self.assertEqual(m["stirling.calls"], 2)
        # The nested second-moment span lies inside the variance span: counted once.
        self.assertEqual(m["dist.exact.moments_s"], 10.0)
        self.assertEqual(m["dist.exact.pmf_table_s"], 2.0)
        self.assertEqual(m["dist.exact.rows_per_s"], 500.0)
        self.assertEqual(m["dist.float.rows_per_s"], 25.0)

    def test_installed_wraps_then_restores(self):
        original = dist.pmf_table
        tracer = spans.Tracer()
        with spans.installed(tracer):
            self.assertIsNot(dist.pmf_table, original)
            dist.pmf_table("abelian", Params.stable(10, alpha=0.5))
        self.assertIs(dist.pmf_table, original)
        self.assertEqual([s[0] for s in tracer.spans], ["dist.float.pmf_table"])
        self.assertEqual(tracer.spans[0][4], 10)


class Checks(unittest.TestCase):
    def test_corrupted_count_vector_is_rejected(self):
        N, alpha, M = workloads.POINTS["n10_a0.8"]
        golden = workloads.load_json("golden.json")["sampler"]["n10_a0.8"]
        exact_mean = float(workloads.load_json("reference.json")["avalanche_mean"]["n10_a0.8"])
        stats = sampler.monte_carlo(Params.stable(N, alpha=alpha), M, workloads.GOLDEN_SEED)
        counts = workloads.count_vector(stats, N)
        self.assertTrue(workloads.check_counts(counts, M, workloads.GOLDEN_SEED, golden, exact_mean))
        moved = list(counts)
        moved[0] -= 1
        moved[1] += 1  # same total, one draw in another bin
        self.assertFalse(workloads.check_counts(moved, M, workloads.GOLDEN_SEED, golden, exact_mean))
        short = list(counts)
        short[0] -= 1
        self.assertFalse(workloads.check_counts(short, M, 7, golden, exact_mean))
        shifted = [0] + counts[:-1]  # every draw one higher: the mean is off by 1
        shifted[-1] += counts[-1]
        self.assertFalse(workloads.check_counts(shifted, M, 7, golden, exact_mean))

    def test_no_input_exceeds_one_n1000_chunk(self):
        biggest = max(min(M, sampler.CHUNK) * N for N, _, M in workloads.POINTS.values())
        self.assertLessEqual(biggest, sampler.CHUNK * 1000)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(workloads.ROOT / "BENCHMARK.json") as fh:
            self.bench = json.load(fh)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_printed_names_match_benchmark_json(self):
        self.assertEqual(self.declared("end_to_end"), run.END_TO_END)
        self.assertEqual(self.declared("per_layer"), run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))

    def test_metric_builders_emit_exactly_the_declared_names(self):
        fake = workloads.Pass(ops=[workloads.Op("a", 1.0, True), workloads.Op("b", 2.0, False)], rss_mb=5.0)
        e2e = run.end_to_end([fake], 1.5)
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertEqual(e2e["ops_ok_frac"], 0.5)
        fake.spans = [[span("sampler.monte_carlo", 0, 1, count=10)]]
        fake.layer = {"sampler.draws_per_s": 10.0, "cli.format_s": 0.1}
        layer = run.per_layer([fake], [fake], {"import.cli_s": 1.0, "import.dist_s": 0.2})
        self.assertEqual(set(layer), set(run.PER_LAYER))
        self.assertEqual(layer["sampler.self_s"], 1.0)
        self.assertEqual(layer["trace.overhead_frac"], 0.0)


if __name__ == "__main__":
    unittest.main()
