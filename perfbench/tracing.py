"""Per-layer tracing from outside the program.

A traced pass replaces the functions that the orchestrator and the class
solvers call, at the module names they look them up by, with wrappers
that record one span per call.  The package itself is not edited and the
originals are put back when the pass ends.  Spans stay in memory as
[name, start, end, parent index, solve id]; a span's self time is its
duration minus the durations of its direct children, so the self times
of one solve add up to its root span.
"""

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from qkpapprox import classsolvers, orchestrator

# the span the benchmark opens around each solve; its self time is the
# orchestrator's own work (fallback scan, lifting, selection)
ROOT = "orchestrator"

# (module, name the caller looks up, span name)
PATCH_POINTS = (
    (orchestrator, "prepare", "preprocess.prepare"),
    (orchestrator, "decompose", "decompose"),
    (orchestrator, "evaluate", "instance.evaluate"),
    (orchestrator, "knapsack_fptas", "knapsack.class1"),
    (orchestrator, "solve_class2", "classsolvers.class2"),
    (orchestrator, "solve_class3", "classsolvers.class3"),
    (orchestrator, "solve_class4", "classsolvers.class4"),
    (orchestrator, "solve_class5", "classsolvers.class5"),
    (classsolvers, "knapsack_fptas", "knapsack.enum"),
    (classsolvers, "solve_dks", "dks"),
    (classsolvers, "replicate", "classsolvers.replicate"),
)

CASES = ("enum_small", "dks", "main", "enum_b4", "case1", "case2")
FALLBACKS = ("enum_b4_capped", "replication_cap_exceeded", "trimmed_for_feasibility")
CAPACITY_FALLBACK = "dks_budget_exceeded_used_greedy"


def _count_knapsack(counts, args, result):
    items, capacity = args[0], args[1]
    if isinstance(capacity, Fraction) or any(isinstance(c, Fraction) for c, _ in items):
        counts["knapsack.fraction_calls"] += 1


def _count_class1(counts, args, result):
    counts["knapsack.class1.items"] += len(args[0])
    _count_knapsack(counts, args, result)


def _count_dks(counts, args, result):
    counts["dks.graph_n.sum"] += args[0].n


def _count_replicate(counts, args, result):
    if result is not None:
        counts["classsolvers.replicate.graph_n"] += result.graph.n


def _count_decompose(counts, args, result):
    if result is not None:
        counts["decompose.subinstances"] += len(result)


# called after the span closes, so the counting is not charged to the layer
OBSERVERS = {
    "knapsack.class1": _count_class1,
    "knapsack.enum": _count_knapsack,
    "dks": _count_dks,
    "classsolvers.replicate": _count_replicate,
    "decompose": _count_decompose,
}
COUNTERS = (
    "knapsack.class1.items",
    "knapsack.fraction_calls",
    "dks.graph_n.sum",
    "classsolvers.replicate.graph_n",
    "decompose.subinstances",
)


class Tracer:
    """Spans and call counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.solve_id = -1

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.solve_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def solve_span(self, solve_id):
        self.solve_id = solve_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            result = None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if observe is not None:
                    observe(self.counts, args, result)

        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCH_POINTS]
        try:
            for module, attr, name in PATCH_POINTS:
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def summary(self):
        """(per-layer metrics of the pass, additivity error in seconds).

        The metrics are each span name's summed self time and call count
        plus the call counters.  The error is the largest gap between a
        solve's root span and the sum of its spans' self times, which
        should be float rounding only.
        """
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        out = {name: 0 for name in COUNTERS}
        for name in [ROOT] + [name for _, _, name in PATCH_POINTS]:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        per_solve = Counter()
        roots = {}
        for (name, start, end, _, solve_id), s in zip(self.spans, selfs):
            out[f"{name}.self_s"] += s
            out[f"{name}.calls"] += 1
            per_solve[solve_id] += s
            if name == ROOT:
                roots[solve_id] = end - start
        out.update(self.counts)
        error = max((abs(per_solve[k] - d) for k, d in roots.items()), default=0.0)
        return out, error


def record_counts(reports) -> dict:
    """Case, fallback and win counts read from the solves' RunReport.records."""
    out = Counter({f"classsolvers.case.{c}": 0 for c in CASES})
    out.update({f"classsolvers.fallback.{f}": 0 for f in FALLBACKS})
    out.update({f"orchestrator.wins.class{c}": 0 for c in range(6)})
    out["dks.capacity_fallbacks"] = 0
    out["orchestrator.infeasible_candidates"] = 0
    for report in reports:
        out[f"orchestrator.wins.class{report.best_class}"] += 1
        for rec in report.records:
            out[f"classsolvers.case.{rec.case}"] += 1
            for note in rec.fallbacks:
                if note == CAPACITY_FALLBACK:
                    out["dks.capacity_fallbacks"] += 1
                else:
                    out[f"classsolvers.fallback.{note}"] += 1
            if not rec.feasible:
                out["orchestrator.infeasible_candidates"] += 1
    return dict(out)
