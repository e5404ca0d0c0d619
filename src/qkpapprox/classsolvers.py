"""Solvers for sub-instance classes 2-5.

Each solver returns a vertex set (reduced ids) that is feasible for the
sub-instance's scaled limit, along with the case it took and any fallback
it triggered.  Degree ties always break toward the smaller vertex id so
outputs are deterministic.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .decompose import SubInstance
from .dks import GREEDY_BACKEND, DksBackend, UGraph, solve_dks
from .errors import CapacityError
from .knapsack import knapsack_fptas
from .rational import Rational

DEFAULT_REPLICATION_CAP = 200_000
DEFAULT_ENUM_COMBO_CAP = 50_000
DEFAULT_KNAPSACK_EPS = Fraction(1, 4)


@dataclass(frozen=True)
class ClassOutcome:
    vertices: tuple[int, ...]
    case: str
    fallbacks: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReplicatedGraph:
    """The heavy side of a class-5 sub-instance split into d unit-scale copies.

    Local ids: 0..len(a_members)-1 are the light side; copy j of heavy
    vertex index i is len(a_members) + i*d + j.  Copies inherit the base
    vertex's neighborhood and a 1/d share of its cost, so replicated costs
    land in (1, 2].
    """

    d: int
    a_members: tuple[int, ...]
    b_members: tuple[int, ...]
    graph: UGraph
    costs: tuple[Rational, ...]

    def copy_base(self, local: int) -> int:
        """Reduced id of the base vertex behind a copy's local id."""
        return self.b_members[(local - len(self.a_members)) // self.d]


def replicate(sub: SubInstance) -> ReplicatedGraph:
    d = int(sub.d_gap)
    part_a, part_b = sub.part_a, sub.part_b
    a_local = {a: i for i, a in enumerate(part_a)}
    b_index = {b: i for i, b in enumerate(part_b)}
    n_a = len(part_a)
    edges = []
    for u, v in sub.edges:
        a, b = (u, v) if u in a_local else (v, u)
        base = n_a + b_index[b] * d
        for j in range(d):
            edges.append((a_local[a], base + j))
    costs = [sub.scaled_cost[a] for a in part_a]
    for b in part_b:
        share = Fraction(sub.scaled_cost[b]) / d
        costs.extend([share] * d)
    return ReplicatedGraph(
        d=d,
        a_members=tuple(part_a),
        b_members=tuple(part_b),
        graph=UGraph(n=n_a + d * len(part_b), edges=tuple(edges)),
        costs=tuple(costs),
    )


def _adj_sets(sub: SubInstance) -> dict[int, set]:
    adj = {v: set() for v in sub.vertices}
    for u, v in sub.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _top(candidates, m: int, key) -> list:
    """The m candidates with largest key; ties go to the smaller id."""
    return sorted(candidates, key=lambda v: (-key(v), v))[:m]


def _floor_div(a, b) -> int:
    return int(Fraction(a) // Fraction(b))


def _dks_with_fallback(graph: UGraph, k: int, backend: DksBackend):
    try:
        return solve_dks(graph, k, backend), ()
    except CapacityError:
        chosen = solve_dks(graph, k, GREEDY_BACKEND)
        return chosen, ("dks_budget_exceeded_used_greedy",)


def solve_class2(sub: SubInstance) -> ClassOutcome:
    """Take everything: tail costs are meant to fit inside the limit."""
    return ClassOutcome(tuple(sub.vertices), "sum_all")


def solve_class3(sub: SubInstance, backend: DksBackend) -> ClassOutcome:
    """DkS with k = floor(limit/2) on the unit-profit subgraph.

    Any k such vertices are feasible because scaled costs are at most 2.
    Degenerate limits or tiny sub-instances fall back to trying every
    subset of size at most 3.
    """
    t = _floor_div(sub.scaled_limit, 2)
    if t < 2 or len(sub.vertices) < 4:
        return ClassOutcome(_best_small_subset(sub, 3), "enum_small")
    members = tuple(sub.vertices)
    local = {v: i for i, v in enumerate(members)}
    graph = UGraph(
        n=len(members),
        edges=tuple((local[u], local[v]) for u, v in sub.edges),
    )
    chosen, fallbacks = _dks_with_fallback(graph, t, backend)
    return ClassOutcome(
        tuple(sorted(members[i] for i in chosen)), "dks", fallbacks
    )


def _best_small_subset(sub: SubInstance, max_size: int) -> tuple[int, ...]:
    """Best feasible subset of size <= max_size by induced edge count."""
    adj = _adj_sets(sub)
    best: tuple[int, ...] = ()
    best_edges = 0
    for size in range(1, max_size + 1):
        for combo in combinations(sub.vertices, size):
            if sum(sub.scaled_cost[v] for v in combo) > sub.scaled_limit:
                continue
            chosen = set(combo)
            edges = sum(len(adj[v] & chosen) for v in combo) // 2
            if edges > best_edges:
                best_edges = edges
                best = combo
    return best


def _feasible_b_subsets(part_b, scaled_cost, budget, max_size, cap):
    """Cost-feasible subsets of the heavy side, lexicographic, capped."""
    ordered = list(part_b)
    out = []
    capped = False

    def extend(start, chosen, cost):
        nonlocal capped
        if len(out) >= cap:
            capped = True
            return
        out.append(tuple(chosen))
        if len(chosen) == max_size:
            return
        for idx in range(start, len(ordered)):
            v = ordered[idx]
            c = cost + scaled_cost[v]
            if c <= budget:
                chosen.append(v)
                extend(idx + 1, chosen, c)
                chosen.pop()
                if capped:
                    return

    extend(0, [], 0)
    return out, capped


def _enum_small_b(sub: SubInstance, eps, combo_cap: int) -> ClassOutcome:
    """Try every small heavy-side subset; knapsack the light side per subset.

    Used when the scaled limit is below 8*d, where any feasible solution
    holds at most 7 heavy vertices (each costs more than d), so the cost
    pruning keeps the enumeration tight.
    """
    part_a = tuple(sub.part_a or ())
    part_b = tuple(sub.part_b or ())
    adj = _adj_sets(sub)
    max_size = min(7, _floor_div(sub.scaled_limit, sub.d_gap))
    combos, capped = _feasible_b_subsets(
        part_b, sub.scaled_cost, sub.scaled_limit, max_size, combo_cap
    )
    best: tuple[int, ...] = ()
    best_edges = 0
    for combo in combos:
        chosen_b = set(combo)
        cost_b = sum(sub.scaled_cost[v] for v in combo)
        degree = {a: len(adj[a] & chosen_b) for a in part_a}
        if sum(degree.values()) <= best_edges:
            continue
        items = [(sub.scaled_cost[a], degree[a]) for a in part_a]
        picked = knapsack_fptas(items, sub.scaled_limit - cost_b, eps)
        edges = sum(degree[part_a[i]] for i in picked)
        if edges > best_edges:
            best_edges = edges
            best = tuple(sorted(combo + tuple(part_a[i] for i in picked)))
    fallbacks = ("enum_b4_capped",) if capped else ()
    return ClassOutcome(best, "enum_b4", fallbacks)


def _fit_to_limit(sub: SubInstance, ranked_a: list, ranked_b: list):
    """Drop trailing (lowest-ranked) picks until the scaled limit holds.

    A safety net for sub-instances that violate the class preconditions
    (possible when the tail-cost premise fails on awkward n); on
    conforming inputs it never triggers.
    """
    total = sum(sub.scaled_cost[v] for v in ranked_a + ranked_b)
    trimmed = False
    while total > sub.scaled_limit and (ranked_a or ranked_b):
        victim = ranked_a.pop() if ranked_a else ranked_b.pop()
        total -= sub.scaled_cost[victim]
        trimmed = True
    return ranked_a, ranked_b, trimmed


def solve_class4(
    sub: SubInstance,
    eps=DEFAULT_KNAPSACK_EPS,
    combo_cap: int = DEFAULT_ENUM_COMBO_CAP,
) -> ClassOutcome:
    """Top heavy-side vertices by degree, then top quarter of the light side.

    Below 8*d (or with a tiny or huge-but-cheap configuration) the
    heavy-side subsets are few enough to enumerate outright, which also
    sidesteps the capture loss of floored selection counts near the
    boundary.  The light-side count rounds up so the top picks always
    carry at least a quarter of the edge mass.
    """
    limit, d = sub.scaled_limit, sub.d_gap
    part_a, part_b = tuple(sub.part_a), tuple(sub.part_b)
    if limit < 4 * d or len(part_a) < 4 or (limit < 8 * d and len(part_b) <= 16):
        return _enum_small_b(sub, eps, combo_cap)
    adj = _adj_sets(sub)
    m_b = max(1, _floor_div(limit, 4 * Fraction(d)))
    b_prime = _top(part_b, m_b, lambda b: len(adj[b]))
    b_set = set(b_prime)
    m_a = -(-len(part_a) // 4)
    a_prime = _top(part_a, m_a, lambda a: len(adj[a] & b_set))
    a_prime, b_prime, trimmed = _fit_to_limit(sub, a_prime, b_prime)
    fallbacks = ("trimmed_for_feasibility",) if trimmed else ()
    return ClassOutcome(tuple(sorted(a_prime + b_prime)), "main", fallbacks)


def _class5_case1(sub: SubInstance, adj):
    limit, d = sub.scaled_limit, sub.d_gap
    m_b = max(1, _floor_div(limit, 4 * Fraction(d)))
    b_prime = _top(sub.part_b, m_b, lambda b: len(adj[b]))
    b_set = set(b_prime)
    m_a = max(1, _floor_div(limit, 4))
    a_prime = _top(sub.part_a, m_a, lambda a: len(adj[a] & b_set))
    a_prime, b_prime, trimmed = _fit_to_limit(sub, a_prime, b_prime)
    return tuple(sorted(a_prime + b_prime)), trimmed


def solve_class5(
    sub: SubInstance,
    backend: DksBackend,
    alpha: Rational | None = None,
    replication_cap: int = DEFAULT_REPLICATION_CAP,
    eps=DEFAULT_KNAPSACK_EPS,
    combo_cap: int = DEFAULT_ENUM_COMBO_CAP,
) -> ClassOutcome:
    """Case split on the light-side size against limit^((1+a)/(1-a)).

    Small light side: pure degree selection (case 1).  Large light side:
    replicate the heavy side into d unit-cost copies, run DkS with
    k = floor(limit) on the replicated graph, and read the selection back
    through the per-base-vertex peak copy degrees (case 2).
    """
    limit, d = sub.scaled_limit, sub.d_gap
    part_a, part_b = tuple(sub.part_a), tuple(sub.part_b)
    if limit < 4 * d:
        return _enum_small_b(sub, eps, combo_cap)
    adj = _adj_sets(sub)

    a = Fraction(backend.declared_alpha if alpha is None else alpha)
    p, q = a.numerator, a.denominator
    # |A| <= limit^((1+a)/(1-a))  <=>  |A|^(q-p) <= limit^(q+p)
    if Fraction(len(part_a)) ** (q - p) <= Fraction(limit) ** (q + p):
        verts, trimmed = _class5_case1(sub, adj)
        return ClassOutcome(verts, "case1", ("trimmed_for_feasibility",) if trimmed else ())

    d_int = int(d)
    if len(part_a) + d_int * len(part_b) > replication_cap:
        verts, trimmed = _class5_case1(sub, adj)
        notes = ("replication_cap_exceeded",)
        if trimmed:
            notes = notes + ("trimmed_for_feasibility",)
        return ClassOutcome(verts, "case1", notes)

    rep = replicate(sub)
    k = _floor_div(limit, 1)
    chosen, fallbacks = _dks_with_fallback(rep.graph, k, backend)

    n_a = len(part_a)
    chosen_set = set(chosen)
    a_returned = sorted(part_a[i] for i in chosen if i < n_a)
    delta_star = {b: 0 for b in part_b}
    for local in chosen:
        if local >= n_a:
            base = rep.copy_base(local)
            deg = len(rep.graph.adj[local] & chosen_set)
            if deg > delta_star[base]:
                delta_star[base] = deg

    m_b = max(1, _floor_div(limit, 4 * Fraction(d)))
    b_prime = _top(part_b, m_b, lambda b: delta_star[b])
    b_set = set(b_prime)
    m_a = max(1, _floor_div(limit, 4))
    a_second = _top(a_returned, m_a, lambda v: len(adj[v] & b_set))
    a_second, b_prime, trimmed = _fit_to_limit(sub, a_second, b_prime)
    if trimmed:
        fallbacks = fallbacks + ("trimmed_for_feasibility",)
    return ClassOutcome(tuple(sorted(a_second + b_prime)), "case2", fallbacks)
