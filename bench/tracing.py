"""Spans around the public entry points of each constrank module.

`Tracer.install` replaces every binding of the traced public functions in
every loaded `constrank` module (for example `constrank.analysis.rank_profile`
as well as `constrank.subspace.rank_profile`) and the `MatGF.kernel_basis`
method with a wrapper that records one span per call.  Private helpers are
not wrapped: their time stays in their caller's self time.  Spans stay in
memory until the run ends.

Work counts are read from each call's arguments and result after the span
has closed, so they cost the span nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import naive

ROOT_SPAN = "bench.job"

# (defining module, public name, span name)
TRACED_FUNCTIONS = (
    ("constrank.subspace", "rank_profile", "subspace.rank_profile"),
    ("constrank.subspace", "is_constant_rank", "subspace.is_constant_rank"),
    ("constrank.subspace", "parse_subspace", "subspace.parse_subspace"),
    ("constrank.construct", "truncated_construction",
     "construct.truncated_construction"),
    ("constrank.analysis", "check_image_of_kernel",
     "analysis.check_image_of_kernel"),
    ("constrank.analysis", "check_kernel_bound", "analysis.check_kernel_bound"),
    ("constrank.analysis", "counting_report", "analysis.counting_report"),
    ("constrank.search", "search_constant_rank", "search.search_constant_rank"),
    ("constrank.search", "brute_force_census", "census.brute_force_census"),
    ("constrank.cli", "main", "cli.main"),
)
TRACED_METHODS = (("constrank.matrix", "MatGF", "kernel_basis",
                   "matrix.kernel_basis"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    counts: dict = field(default_factory=dict)


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children[i]]
        out.append(s.end - s.start - merged_length([c for c in clipped if c[0] < c[1]]))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (name == "constrank" or name.startswith("constrank."))]
        for module_name, attr, span_name in TRACED_FUNCTIONS:
            target = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(target, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, name, wrapper)
        for module_name, cls_name, attr, span_name in TRACED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), span_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span_name):
        counter = COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, result = self._record(span_name, fn, args, kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(list(bound.arguments.values()),
                                      bound.arguments, result)
            return result

        return wrapper

    # -- recording -----------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return span, result

    def run_job(self, job_id: int, call):
        """Run one job under a root span; returns the job's result."""
        self.job = job_id
        try:
            return self._record(ROOT_SPAN, call, (), {})[1]
        finally:
            self.job = None


# ---------------------------------------------------------------------------
# work counts, read after each span closes
# ---------------------------------------------------------------------------

def _count_profile(args, named, profile):
    return {"elements": sum(profile.counts)}


def _count_verify(args, named, result):
    S = args[0]
    ok, witness = result
    if ok:
        return {"elements": S.field.q ** S.d - 1}
    coeffs = naive.coordinates(S.field, [B.entries for B in S.basis],
                               witness.entries)
    return {"elements": naive.lex_index(S.field.q, coeffs)}


def _count_image(args, named, report):
    return {"elements_checked": report.elements_checked,
            "triples_checked": report.triples_checked}


def _count_vectors(args, named, report):
    S = args[0]
    q = S.field.q
    return {"vectors_scanned": (q ** S.n - 1) // (q - 1)}


def _count_search(args, named, outcome):
    F, m, n, r, dim = args[:5]
    return {
        "nodes": outcome.nodes_explored,
        "budget_hit": int(outcome.status.value == "budget-exceeded"),
        "parallel": int(named["workers"] > 1),
        "box": (F.descriptor, m, n, r, dim, named["count_all"], named["budget"]),
    }


def _count_census(args, named, count):
    F, m, n, r, dim = args[:5]
    q, mn = F.q, m * n
    # the program's packed census covers GF(2) with m*n <= 16
    return {"subspaces": naive.gaussian_binomial(q, mn, dim),
            "gf2_packed": int(q == 2 and mn <= 16)}


COUNTERS = {
    "subspace.rank_profile": _count_profile,
    "subspace.is_constant_rank": _count_verify,
    "analysis.check_image_of_kernel": _count_image,
    "analysis.check_kernel_bound": _count_vectors,
    "analysis.counting_report": _count_vectors,
    "search.search_constant_rank": _count_search,
    "census.brute_force_census": _count_census,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], passes: int) -> tuple[dict, float]:
    """Per-pass layer metrics from one traced phase, and the share of the
    jobs' wall time that the layers' self times account for."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    serial = [0, 0.0]      # nodes, self seconds
    parallel = [0, 0.0]
    census = {0: [0, 0.0], 1: [0, 0.0]}   # keyed by gf2_packed
    box_time = defaultdict(lambda: [0.0, 0.0])   # box -> serial s, parallel s
    root_wall = 0.0
    for s, own in zip(spans, selfs):
        if s.name == ROOT_SPAN:
            root_wall += s.end - s.start
            continue
        self_s[s.name] += own
        c = s.counts
        if s.name == "matrix.kernel_basis":
            counts["kernel_basis_calls"] += 1
        elif s.name == "search.search_constant_rank":
            side = parallel if c["parallel"] else serial
            side[0] += c["nodes"]
            side[1] += own
            box_time[c["box"]][c["parallel"]] += s.end - s.start
            counts["nodes"] += c["nodes"]
            counts["budget_hits"] += c["budget_hit"]
        elif s.name == "census.brute_force_census":
            census[c["gf2_packed"]][0] += c["subspaces"]
            census[c["gf2_packed"]][1] += own
            counts["subspaces"] += c["subspaces"]
        else:
            for k, v in c.items():
                counts[k] += v
    paired = [t for t in box_time.values() if t[0] > 0 and t[1] > 0]
    covered = sum(self_s.values())

    span_names = [t[-1] for t in TRACED_FUNCTIONS + TRACED_METHODS]
    metrics = {f"{name}_s": (self_s[name] / passes, "s") for name in span_names}
    for name, key in (("subspace.elements", "elements"),
                      ("analysis.elements_checked", "elements_checked"),
                      ("analysis.triples_checked", "triples_checked"),
                      ("analysis.vectors_scanned", "vectors_scanned"),
                      ("matrix.kernel_basis_calls", "kernel_basis_calls"),
                      ("search.nodes", "nodes"),
                      ("search.budget_hits", "budget_hits"),
                      ("census.subspaces", "subspaces")):
        metrics[name] = (counts[key] / passes, "count")
    enumerating = self_s["subspace.rank_profile"] + self_s["subspace.is_constant_rank"]
    metrics.update({
        "subspace.elements_per_s": (_ratio(counts["elements"], enumerating), "1/s"),
        "search.serial_nodes_per_s": (_ratio(*serial), "1/s"),
        "search.parallel_nodes_per_s": (_ratio(*parallel), "1/s"),
        "search.parallel_speedup": (_ratio(sum(t[0] for t in paired),
                                           sum(t[1] for t in paired)), "ratio"),
        "census.gf2_subspaces_per_s": (_ratio(*census[1]), "1/s"),
        "census.generic_subspaces_per_s": (_ratio(*census[0]), "1/s"),
    })
    return metrics, _ratio(covered, root_wall)
