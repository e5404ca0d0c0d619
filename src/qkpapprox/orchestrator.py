"""The end-to-end approximation pipeline.

Prepare, decompose, solve every sub-instance, lift each candidate back to
original ids, union the always-include vertices, and return the feasible
candidate with the best profit measured on the original (unrounded)
instance.  A universal fallback scan over single vertices and edge pairs
guards every degenerate path.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .classsolvers import (
    DEFAULT_REPLICATION_CAP,
    ClassOutcome,
    solve_class2,
    solve_class3,
    solve_class4,
    solve_class5,
)
from .decompose import decompose
from .dks import DksBackend, get_backend
from .instance import QkpInstance, Solution, evaluate, validate
from .knapsack import knapsack_fptas
from .preprocess import prepare
from .rational import Rational, ceil_log2, rational_to_json


@dataclass(frozen=True)
class SolveConfig:
    """Tunables for one solve run."""

    dks_backend: Union[str, DksBackend] = "greedy"
    knapsack_eps: Rational = Fraction(1, 4)
    alpha_override: Optional[Rational] = None
    replication_cap: int = DEFAULT_REPLICATION_CAP

    def __post_init__(self):
        if not 0 < Fraction(self.knapsack_eps) < 1:
            raise ValueError(f"knapsack_eps must be in (0,1), got {self.knapsack_eps}")
        if self.alpha_override is not None and not (
            0 <= Fraction(self.alpha_override) < 1
        ):
            raise ValueError(f"alpha_override must be in [0,1), got {self.alpha_override}")

    def backend(self) -> DksBackend:
        if isinstance(self.dks_backend, DksBackend):
            return self.dks_backend
        return get_backend(self.dks_backend)


@dataclass(frozen=True)
class SubRecord:
    """One candidate: which sub-instance (or the fallback scan) produced it.

    vertices is the candidate lifted to original ids, always-include
    vertices added, sorted; feasible says whether its cost fits the
    instance's limit.  size, cost and profit are derived from vertices on
    the original instance when read, so a candidate that cannot win is
    never evaluated unless its record is.
    """

    class_tag: int  # 0 marks the singleton/edge-pair fallback scan
    case: str
    fallbacks: tuple[str, ...]
    vertices: tuple[int, ...]
    feasible: bool
    instance: QkpInstance = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def cost(self) -> Rational:
        return evaluate(self.instance, self.vertices)[0]

    @property
    def profit(self) -> Rational:
        return evaluate(self.instance, self.vertices)[1]

    def to_json_obj(self) -> dict:
        cost, profit = evaluate(self.instance, self.vertices)
        return {
            "class": self.class_tag,
            "case": self.case,
            "fallbacks": list(self.fallbacks),
            "size": self.size,
            "cost": rational_to_json(cost),
            "profit": rational_to_json(profit),
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class RunReport:
    records: tuple[SubRecord, ...]
    best_profit: Rational
    best_vertices: tuple[int, ...]
    best_class: int
    backend_name: str
    knapsack_eps: Rational
    wall_ms: float

    def to_json_obj(self, include_timing: bool = True) -> dict:
        obj = {
            "records": [r.to_json_obj() for r in self.records],
            "best": {
                "profit": rational_to_json(self.best_profit),
                "vertices": list(self.best_vertices),
                "class": self.best_class,
            },
            "backend": self.backend_name,
            "knapsack_eps": rational_to_json(self.knapsack_eps),
        }
        if include_timing:
            obj["wall_ms"] = round(self.wall_ms, 3)
        return obj


def guaranteed_floor(n: int) -> Fraction:
    """Worst-case ALG/OPT floor with the exact DkS backend.

    Combines the rounding loss (4), the worst per-class constant (16) and
    the sub-instance count ceiling 2*(ceil(log2 n)+1)^3 + 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(1, 64 * (2 * (ceil_log2(n) + 1) ** 3 + 1))


def _solve_sub(sub, reduced, backend, cfg):
    if sub.class_tag == 1:
        items = list(zip(reduced.cost, reduced.vprofit))
        picked = knapsack_fptas(items, reduced.limit, cfg.knapsack_eps)
        return ClassOutcome(tuple(sub.vertices[i] for i in picked), "knapsack")
    if sub.class_tag == 2:
        return solve_class2(sub)
    if sub.class_tag == 3:
        return solve_class3(sub, backend)
    if sub.class_tag == 4:
        return solve_class4(sub, eps=cfg.knapsack_eps)
    return solve_class5(
        sub,
        backend,
        alpha=cfg.alpha_override,
        replication_cap=cfg.replication_cap,
        eps=cfg.knapsack_eps,
    )


def _beats(profit, verts: tuple[int, ...], best) -> bool:
    """Whether a candidate beats best, a (profit, vertices, ...) tuple or None.

    The one tie-break rule: higher profit wins, and equal profits go to
    the lexicographically smallest vertex tuple.
    """
    return (
        best is None
        or profit > best[0]
        or (profit == best[0] and verts < best[1])
    )


def solve(inst: QkpInstance, cfg: SolveConfig | None = None) -> tuple[Solution, RunReport]:
    """Best feasible solution among all class candidates and fallbacks.

    Feasibility is decided on the original costs and limit, in prepare's
    integer units.  A feasible candidate is evaluated against the
    original, unrounded profits only when an upper bound on its profit,
    its vertex profits plus half their weighted degrees, reaches the best
    profit so far; one strictly below can neither win nor tie.  Ties
    between equal-profit candidates go to the lexicographically smallest
    vertex set.
    """
    cfg = cfg or SolveConfig()
    problems = validate(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    backend = cfg.backend()

    t0 = time.perf_counter()
    prep = prepare(inst)
    subs = decompose(prep)
    always = prep.always_include
    units, limit = prep.orig_cost_units, prep.limit_units

    # universal fallback scan: the always-include set alone, every feasible
    # single vertex and every feasible edge pair (each unioned with the
    # zero-cost always-include set, which never adds cost).  Its edge loop
    # also builds twice each vertex's share of the candidates' bound:
    # 2 * vertex profit + weighted degree.
    base_profit = prep.base_profit
    attach = [0] * inst.n
    share = [2 * p for p in inst.vprofit]
    for u, v, p in inst.edges:
        share[u] += p
        share[v] += p
        if u in always and v not in always:
            attach[v] += p
        elif v in always and u not in always:
            attach[u] += p

    scan = (base_profit, tuple(sorted(always)))
    for v in range(inst.n):
        if v not in always and units[v] <= limit:
            profit = base_profit + inst.vprofit[v] + attach[v]
            # only a profit that beats or ties the best can win
            if profit >= scan[0]:
                verts = tuple(sorted(always | {v}))
                if _beats(profit, verts, scan):
                    scan = (profit, verts)
    for u, v, p in inst.edges:
        if u in always or v in always:
            continue
        if units[u] + units[v] <= limit:
            profit = (
                base_profit
                + inst.vprofit[u]
                + inst.vprofit[v]
                + p
                + attach[u]
                + attach[v]
            )
            if profit >= scan[0]:
                verts = tuple(sorted(always | {u, v}))
                if _beats(profit, verts, scan):
                    scan = (profit, verts)

    best = None  # (profit, vertices, class_tag) of the best feasible candidate
    records = []
    for sub in subs:
        outcome = _solve_sub(sub, prep.reduced, backend, cfg)
        verts = tuple(sorted(always.union(prep.orig_of[r] for r in outcome.vertices)))
        feasible = sum(units[v] for v in verts) <= limit
        # profit <= vertex profits + half the weighted degrees (edge profits
        # are nonnegative and an induced edge counts at both ends); a bound
        # equal to the best can still tie, so only one below it is skipped
        if feasible and (
            best is None or sum(share[v] for v in verts) >= 2 * best[0]
        ):
            profit = evaluate(inst, verts)[1]
            if _beats(profit, verts, best):
                best = (profit, verts, sub.class_tag)
        records.append(
            SubRecord(
                class_tag=sub.class_tag,
                case=outcome.case,
                fallbacks=outcome.fallbacks,
                vertices=verts,
                feasible=feasible,
                instance=inst,
            )
        )

    if _beats(*scan, best):
        best = (*scan, 0)
    records.append(
        SubRecord(
            class_tag=0,
            case="singleton_pair_scan",
            fallbacks=(),
            vertices=scan[1],
            feasible=True,
            instance=inst,
        )
    )

    _, best_verts, best_class = best
    cost, profit = evaluate(inst, best_verts)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    solution = Solution(best_verts, cost, profit)
    report = RunReport(
        records=tuple(records),
        best_profit=profit,
        best_vertices=best_verts,
        best_class=best_class,
        backend_name=backend.name,
        knapsack_eps=cfg.knapsack_eps,
        wall_ms=wall_ms,
    )
    return solution, report
