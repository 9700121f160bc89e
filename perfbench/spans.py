"""Spans around the public entry points of the abeliand modules.

The benchmark never edits the package: ``installed(tracer)`` swaps each
wrapped function for a recording wrapper in every loaded ``abeliand``
module that holds a reference to it (``dist`` imports ``stirling_row`` by
name, ``verify`` imports the certificate checks by name), and restores the
originals on exit.  Spans sit at coarse entry points only; per-probability
calls such as ``pmf(b)`` are never wrapped.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span in the same list (-1 at the top) and ``count`` is the work
the call returned (table rows, draws), 0 where there is none.  Spans stay in
memory and are turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

STIRLING = (
    "stirling_row",
    "falling_factorial",
    "poly_P",
    "unsigned_stirling_subset_oracle",
    "check_bound_f",
    "check_lemma_P",
    "check_product_bound",
)
DIST = (
    "pmf_table",
    "abelian_variance",
    "abelian_second_moment",
    "avalanche_mean",
    "brute_force_moment",
    "moments",
    "j_decomposition",
    "convergence_table",
)
SUITES = ("stirling", "bounds", "pmf", "moments", "shift", "jdecomp", "float", "limit", "sampler")

_MOMENTS = ("abelian_variance", "abelian_second_moment", "avalanche_mean", "brute_force_moment", "moments")
# Metric name -> span names whose outermost occurrences it sums.
GROUPS = {
    "dist.exact.pmf_table_s": ("dist.exact.pmf_table",),
    "dist.exact.moments_s": tuple(f"dist.exact.{f}" for f in _MOMENTS),
    "dist.exact.jdecomp_s": ("dist.exact.j_decomposition",),
    "dist.float.pmf_table_s": ("dist.float.pmf_table",),
    "dist.float.variance_s": tuple(f"dist.float.{f}" for f in _MOMENTS + ("convergence_table",)),
}
SELF_LAYERS = ("stirling", "dist.exact", "dist.float", "sampler", "verify")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = count
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(index)
        return result


def _mode(args, kwargs) -> str:
    for value in (*args, *kwargs.values()):
        if hasattr(value, "is_exact"):
            return value.mode
    return "float"


def _work(result) -> int:
    if hasattr(result, "support"):
        return len(result.support)
    return getattr(result, "M", 0)


def _wrap(tracer: Tracer, fn, name_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name_of(args, kwargs))
        count = 0
        try:
            result = fn(*args, **kwargs)
            count = _work(result)
        finally:
            tracer.end(index, count)
        return result

    return traced


def _targets():
    # verify is wrapped only where it is already loaded: importing it pulls
    # in scipy.stats, which would change the traced process.
    from abeliand import dist, sampler, stirling

    for name in STIRLING:
        yield stirling, name, lambda a, k, n=name: f"stirling.{n}"
    for name in DIST:
        yield dist, name, lambda a, k, n=name: f"dist.{_mode(a, k)}.{n}"
    yield sampler, "monte_carlo", lambda a, k: "sampler.monte_carlo"
    verify = sys.modules.get("abeliand.verify")
    if verify is not None:
        for suite in SUITES:
            yield verify, f"suite_{suite}", lambda a, k, s=suite: f"verify.{s}"
        yield verify, "run_suites", lambda a, k: "verify.run_suites"


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every wrapped entry point through ``tracer`` inside the block."""
    swapped = []
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "abeliand"]
    try:
        for module, name, name_of in _targets():
            original = getattr(module, name)
            wrapper = _wrap(tracer, original, name_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(swapped):
            setattr(mod, attr, original)


def layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's direct children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there."""
    names = set(names)
    picked = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            picked.append(i)
    return picked


def layer_metrics(span_lists) -> dict[str, float]:
    """Per-layer metrics summed over independent span lists (one per process)."""
    out = {f"{name}.self_s": 0.0 for name in SELF_LAYERS}
    out.update({metric: 0.0 for metric in GROUPS})
    out.update({f"verify.{s}_s": 0.0 for s in SUITES})
    out["stirling.calls"] = 0
    rows = {"dist.exact": 0, "dist.float": 0}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            name, start, end = span[0], span[1], span[2]
            lay = layer(name)
            if lay in SELF_LAYERS:
                out[f"{lay}.self_s"] += own
            if lay == "stirling":
                out["stirling.calls"] += 1
            if lay == "verify" and name != "verify.run_suites":
                out[f"{name}_s"] += end - start
            if name.endswith(".pmf_table"):
                rows[lay] += span[4]
        for metric, names in GROUPS.items():
            out[metric] += sum(spans[i][2] - spans[i][1] for i in outermost(spans, names))
    for lay, count in rows.items():
        seconds = out[f"{lay}.pmf_table_s"]
        out[f"{lay}.rows_per_s"] = count / seconds if seconds > 0 else 0.0
    return out
