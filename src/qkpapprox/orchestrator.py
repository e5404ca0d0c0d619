"""The end-to-end approximation pipeline.

Prepare, decompose, solve every sub-instance, lift each candidate back to
original ids, union the always-include vertices, and return the feasible
candidate with the best profit measured on the original (unrounded)
instance.  A universal fallback scan over single vertices and edge pairs
guards every degenerate path as one more candidate (class 0).
prepare's walk over the original edges yields the scan and the bounds'
terms; solve walks them again for the top edge profit, and the first
evaluate builds their forward rows.  Candidates go in bound order.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Union

from .classsolvers import (
    ClassOutcome,
    solve_class2,
    solve_class3,
    solve_class4,
    solve_class5,
)
from .decompose import decompose
from .dks import DksBackend, get_backend
from .instance import QkpInstance, Solution, evaluate
from .knapsack import DEFAULT_KNAPSACK_EPS, knapsack_fptas
from .preprocess import _beats, prepare
from .rational import Rational, as_rational, ceil_log2, rational_to_json


@dataclass(frozen=True)
class SolveConfig:
    """Tunables for one solve run.

    knapsack_eps passes through as_rational, so a "p/q" string is accepted
    and a float raises TypeError.  A backend name is resolved here, so an
    unknown one raises ValueError; dks_backend then holds the DksBackend.
    Class 5's alpha is the backend's declared_alpha: pass a DksBackend to
    set it.
    """

    dks_backend: Union[str, DksBackend] = "greedy"
    knapsack_eps: Rational = DEFAULT_KNAPSACK_EPS

    def __post_init__(self):
        eps = as_rational(self.knapsack_eps)
        if not 0 < eps < 1:
            raise ValueError(f"knapsack_eps must be in (0,1), got {eps}")
        backend = self.dks_backend
        if not isinstance(backend, DksBackend):
            backend = get_backend(backend)
        vars(self).update(dks_backend=backend, knapsack_eps=eps)


class SubRecord(NamedTuple):
    """One candidate: which sub-instance (or the fallback scan) produced it.

    vertices is the candidate lifted to original ids, always-include
    vertices added, sorted; feasible says whether its cost fits the
    instance's limit.  A plain value: cost and profit are evaluated only
    when the report is serialised.
    """

    class_tag: int  # 0 marks the singleton/edge-pair fallback scan
    case: str
    fallbacks: tuple[str, ...]
    vertices: tuple[int, ...]
    feasible: bool


@dataclass(frozen=True)
class RunReport:
    """Every candidate of one solve, the returned Solution, and the
    instance they are evaluated on (left out of the repr)."""

    records: tuple[SubRecord, ...]
    solution: Solution
    best_class: int
    backend_name: str
    knapsack_eps: Rational
    instance: QkpInstance = field(repr=False)

    def to_json_obj(self) -> dict:
        """Each record with its cost and profit on the instance, which
        evaluates every candidate, also those that could not win."""
        records = []
        for r in self.records:
            cost, profit = evaluate(self.instance, r.vertices)
            records.append({
                "class": r.class_tag,
                "case": r.case,
                "fallbacks": list(r.fallbacks),
                "size": len(r.vertices),
                "cost": rational_to_json(cost),
                "profit": rational_to_json(profit),
                "feasible": r.feasible,
            })
        return {
            "records": records,
            "best": {
                "profit": rational_to_json(self.solution.total_profit),
                "vertices": list(self.solution.vertices),
                "class": self.best_class,
            },
            "backend": self.backend_name,
            "knapsack_eps": rational_to_json(self.knapsack_eps),
        }


def guaranteed_floor(n: int) -> Fraction:
    """Worst-case ALG/OPT floor with the exact DkS backend.

    Combines the rounding loss (4), the worst per-class constant (16) and
    the sub-instance count ceiling 2*(ceil(log2 n)+1)^3 + 1.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    return Fraction(1, 64 * (2 * (ceil_log2(n) + 1) ** 3 + 1))


def _solve_sub(sub, prep, cfg):
    """One sub-instance's outcome, in reduced ids.

    Class 1 is the knapsack on prep's reduced vertex profits.  A class 2-5
    sub-instance whose whole vertex set fits its limit is returned whole
    (case sum_all): its objective counts only its own non-negative edge
    profits, so no subset does better.  Only an overflowing one reaches
    its class solver.  Against sending every sub-instance to its solver,
    no solve's profit can drop: a solver's output is a subset of
    sub.vertices; always-include vertices cost 0, so a fitting
    sub-instance lifts to a set that fits the original limit; all
    profits are non-negative, so each lifted candidate's original profit
    only rises; and solve's bound-ordered pick still finds the best
    candidate.
    """
    if sub.class_tag == 1:
        items = list(zip(prep.cost, prep.vprofit))
        picked = knapsack_fptas(items, prep.limit, cfg.knapsack_eps)
        return ClassOutcome(picked, "knapsack")
    units, total = sub.cost_units, 0
    for v in sub.vertices:  # a plain loop, as in solve: sum(map()) is slower here
        total += units[v]
    if total <= sub.limit_units:
        return ClassOutcome(sub.vertices, "sum_all")
    if sub.class_tag == 2:
        return solve_class2(sub)
    if sub.class_tag == 3:
        return solve_class3(sub, cfg.dks_backend)
    if sub.class_tag == 4:
        return solve_class4(sub, eps=cfg.knapsack_eps)
    return solve_class5(sub, cfg.dks_backend, eps=cfg.knapsack_eps)


def solve(inst: QkpInstance, cfg: SolveConfig | None = None) -> tuple[Solution, RunReport]:
    """Best feasible solution among all class candidates and fallbacks.

    The fallback scan's set is one more candidate, class 0, after the
    sub-instances'.  Feasibility is decided in prepare's integer units,
    summed over a candidate's reduced ids.  Feasible candidates are
    evaluated on the original profits in descending order of B(S) = sum
    over v in S of 2 vprofit[v] + min(weighted degree of v, (|S| - 1) *
    the instance's largest edge profit), which is at least twice S's
    profit (an induced edge counts at both ends, and v has at most
    |S| - 1 neighbours in S), until B(S) is below twice the best profit.
    Ties go to the lexicographically smallest vertex set, equal sets to
    the first in solve order.
    """
    cfg = cfg or SolveConfig()

    prep = prepare(inst)
    subs = decompose(prep)
    # always-include vertices cost 0 and orig_of maps reduced ids one to one
    # onto positive-cost ids, so a lift adds no units and its parts are disjoint
    always, orig_of = sorted(prep.always_include), prep.orig_of
    units, limit = prep.cost_units, prep.limit_units
    vprofit, wdeg = inst.vprofit, prep.weighted_degree
    top = max(map(itemgetter(2), inst.edges), default=0)
    outcomes = chain(
        ((sub.class_tag, _solve_sub(sub, prep, cfg)) for sub in subs),
        [(0, ClassOutcome(prep.fallback, "singleton_pair_scan"))],
    )

    records = []
    ranked = []  # (B(S), S, class tag): feasible candidates in solve order
    for class_tag, outcome in outcomes:
        verts = tuple(sorted(always + [orig_of[r] for r in outcome.vertices]))
        cap, cost, bound = (len(verts) - 1) * top, 0, 0
        for r in outcome.vertices:  # plain loops: sum(map()) and min() cost 2-5% on small solves
            cost += units[r]
        for v in verts:
            w = wdeg[v]
            bound += 2 * vprofit[v] + (w if w < cap else cap)
        feasible = cost <= limit
        if feasible:
            ranked.append((bound, verts, class_tag))
        records.append(SubRecord(class_tag, outcome.case, outcome.fallbacks, verts, feasible))

    # stable, so equal vertex sets, which have equal bounds, keep solve order
    ranked.sort(key=itemgetter(0), reverse=True)
    best = None  # (profit, vertices, class tag, cost) of the best feasible candidate
    for bound, verts, class_tag in ranked:
        if best is not None and bound < 2 * best[0]:
            break
        cost, profit = evaluate(inst, verts)
        if _beats(profit, verts, best):
            best = (profit, verts, class_tag, cost)

    profit, best_verts, best_class, cost = best
    solution = Solution(best_verts, cost, profit)
    report = RunReport(
        tuple(records), solution, best_class, cfg.dks_backend.name, cfg.knapsack_eps, inst
    )
    return solution, report
