"""Solvers for sub-instance classes 2-5.

Each solver returns a vertex set (reduced ids), along with the case it
took and any fallback it triggered.  The orchestrator calls them only on
sub-instances built by decompose that overflow their limit: one whose
whole vertex set fits is taken whole (case sum_all) by
orchestrator._solve_sub.  On such input every output fits the scaled
limit by construction, as each solver's docstring argues; nothing is
trimmed afterwards, and the orchestrator's per-candidate feasible flag,
on the original costs, is the one check.  Costs are summed and compared
in integer cost units, and each threshold against the scaled limit comes
from the integer limit_ratio (see decompose).  Degree ties always break
toward the smaller vertex id so outputs are deterministic.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .decompose import SubInstance
from .dks import GREEDY_BACKEND, DksBackend, UGraph, solve_dks
from .errors import CapacityError
from .knapsack import DEFAULT_KNAPSACK_EPS, knapsack_fptas
from .rational import Rational

# work bounds, read at call time: a class-5 replicated graph above
# REPLICATION_CAP vertices takes case 1, and class 4/5's small-heavy-side
# enumeration stops after ENUM_COMBO_CAP subsets
REPLICATION_CAP = 200_000
ENUM_COMBO_CAP = 50_000


class ClassOutcome(NamedTuple):
    vertices: tuple[int, ...]
    case: str
    fallbacks: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReplicatedGraph:
    """The heavy side of a class-5 sub-instance split into d unit-scale copies.

    Local ids: 0..len(a_members)-1 are the light side; copy j of heavy
    vertex index i is len(a_members) + i*d + j.  Copies inherit the base
    vertex's neighborhood and a 1/d share of its cost, so replicated costs
    land in (1, 2].  The d copies of a heavy vertex share one row, the
    tuple of its light neighbours' ids.
    """

    d: int
    a_members: tuple[int, ...]
    b_members: tuple[int, ...]
    graph: UGraph

    def copy_base(self, local: int) -> int:
        """Reduced id of the base vertex behind a copy's local id."""
        return self.b_members[(local - len(self.a_members)) // self.d]


def replicate(sub: SubInstance) -> ReplicatedGraph:
    """The replicated graph's rows, in one pass over sub.edges.

    A light vertex's row holds the d copy ids of each heavy neighbour, and
    the d copies of a heavy vertex share one tuple of light ids: d*|E| ids
    in all.  The sides are sorted and sub.edges canonical, so each vertex
    meets its neighbours in id order and every row comes out ascending.
    """
    d = sub.d_gap
    part_a, part_b = sub.part_a, sub.part_b
    a_local = {a: i for i, a in enumerate(part_a)}
    b_index = {b: i for i, b in enumerate(part_b)}
    n_a = len(part_a)
    light = [[] for _ in part_a]
    heavy = [[] for _ in part_b]
    for u, v in sub.edges:
        i = a_local.get(u)
        if i is None:
            i, j = a_local[v], b_index[u]
        else:
            j = b_index[v]
        base = n_a + j * d
        light[i].extend(range(base, base + d))
        heavy[j].append(i)
    rows = [tuple(row) for row in light]
    for row in heavy:
        rows += (tuple(row),) * d
    return ReplicatedGraph(
        d=d,
        a_members=part_a,
        b_members=part_b,
        graph=UGraph.from_rows(tuple(rows)),
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


def _limit_over(sub: SubInstance, divisor) -> int:
    """floor(scaled limit / divisor) for a positive int divisor, in ints."""
    num, den = sub.limit_ratio()
    return num // (den * divisor)


def _case1_applies(sub: SubInstance, n_a: int, alpha: Rational) -> bool:
    """n_a <= limit^((1+a)/(1-a)) for alpha a = p/q in [0, 1), in ints."""
    p, q = alpha.numerator, alpha.denominator
    num, den = sub.limit_ratio()  # limit = num/den
    return n_a ** (q - p) * den ** (q + p) <= num ** (q + p)


def _dks_with_fallback(graph: UGraph, k: int, backend: DksBackend):
    try:
        return solve_dks(graph, k, backend), ()
    except CapacityError:
        chosen = solve_dks(graph, k, GREEDY_BACKEND)
        return chosen, ("dks_budget_exceeded_used_greedy",)


def solve_class2(sub: SubInstance) -> ClassOutcome:
    """The best union of two parts of a tail that overflows the limit.

    Tail costs are at most 2^(k-l) with 2^l > n, so the tail costs less
    than 2^k < 2c* <= 2*limit in all, which can exceed the limit.  A tail
    that fits is taken whole by orchestrator._solve_sub, keeping every sub
    edge, and never reaches this solver.  An overflowing tail is cut,
    next-fit in id order, into parts of at most floor(limit/2) units
    each, and the fitting union of two parts with the most sub edges is
    returned, the first pair on ties.

    Precondition: every tail cost is below limit/2, as on a decomposed
    instance, where it is at most 2^(k-2) < c*/2 <= limit/2 (l >= 2 once
    a class-2 edge exists).  Then each part holds at most floor(limit/2)
    units, so every union of two fits and none is filtered.

    Guarantee: such an overflowing tail keeps at least 1/21 of the sub
    edges.  Two consecutive parts together exceed limit/2, and the tail
    is below 2*limit, so there are at most 7 parts and 21 pairs of them,
    and every edge lies within some pair.
    """
    units, limit = sub.cost_units, sub.limit_units
    parts, load = [[]], 0
    for v in sub.vertices:
        if parts[-1] and load + units[v] > limit // 2:
            parts.append([])
            load = 0
        parts[-1].append(v)
        load += units[v]
    best: tuple[int, ...] = ()
    best_edges = -1
    for first, second in combinations(parts, 2):
        union = first + second
        chosen = set(union)
        edges = sum(1 for u, v in sub.edges if u in chosen and v in chosen)
        if edges > best_edges:
            best_edges, best = edges, tuple(union)
    return ClassOutcome(best, "tail_split")


def solve_class3(sub: SubInstance, backend: DksBackend) -> ClassOutcome:
    """DkS with k = floor(limit/2) on the unit-profit subgraph of a
    sub-instance that overflows its limit.

    Any k such vertices are feasible because scaled costs are at most 2.
    Degenerate limits or tiny sub-instances fall back to trying every
    subset of two or three vertices.
    """
    t = _limit_over(sub, 2)
    if t < 2 or len(sub.vertices) < 4:
        return ClassOutcome(_best_small_subset(sub), "enum_small")
    members = tuple(sub.vertices)
    local = {v: i for i, v in enumerate(members)}
    # members are sorted and sub.edges canonical, so every row is ascending
    rows = [[] for _ in members]
    for u, v in sub.edges:
        i, j = local[u], local[v]
        rows[i].append(j)
        rows[j].append(i)
    graph = UGraph.from_rows(tuple(map(tuple, rows)))
    chosen, fallbacks = _dks_with_fallback(graph, t, backend)
    return ClassOutcome(
        tuple(sorted(members[i] for i in chosen)), "dks", fallbacks
    )


def _best_small_subset(sub: SubInstance) -> tuple[int, ...]:
    """Best feasible subset of two or three vertices by induced edge count,
    the first on ties, or () when none induces an edge.  One vertex
    induces no edge, so it never beats ()."""
    adj = _adj_sets(sub)
    units, limit = sub.cost_units, sub.limit_units
    best: tuple[int, ...] = ()
    best_edges = 0
    for size in (2, 3):
        for combo in combinations(sub.vertices, size):
            if sum(units[v] for v in combo) > limit:
                continue
            chosen = set(combo)
            edges = sum(len(adj[v] & chosen) for v in combo) // 2
            if edges > best_edges:
                best_edges = edges
                best = combo
    return best


def _feasible_b_subsets(part_b, cost_units, budget, max_size, cap):
    """Cost-feasible heavy-side subsets in lexicographic preorder, at most
    cap of them, and whether more were left out."""
    ordered = list(part_b)
    out = []
    # frames (next index, subset, its cost); children are pushed last-first
    stack = [(0, (), 0)]
    while stack:
        start, chosen, cost = stack.pop()
        if len(out) >= cap:
            return out, True
        out.append(chosen)
        if len(chosen) != max_size:
            for i in range(len(ordered) - 1, start - 1, -1):
                c = cost + cost_units[ordered[i]]
                if c <= budget:
                    stack.append((i + 1, chosen + (ordered[i],), c))
    return out, False


def _enum_small_b(sub: SubInstance, eps) -> ClassOutcome:
    """Try every small heavy-side subset; knapsack the light side per subset.

    Classes 4 and 5 send it sub-instances whose scaled limit is below 4*d;
    class 4 also those below 8*d with at most 16 heavy vertices, and every
    one with fewer than 4 light vertices, at any limit.  Subsets hold at
    most min(7, floor(limit/d)) heavy vertices (each costs more than d):
    below 8*d that is every feasible heavy side.  Under a larger limit the
    subsets can be far more, and the enumeration stops after
    ENUM_COMBO_CAP of them with the note enum_b4_capped.
    """
    part_a, part_b = sub.part_a, sub.part_b
    adj = _adj_sets(sub)
    units, limit = sub.cost_units, sub.limit_units
    max_size = min(7, _limit_over(sub, sub.d_gap))
    combos, capped = _feasible_b_subsets(part_b, units, limit, max_size, ENUM_COMBO_CAP)
    best: tuple[int, ...] = ()
    best_edges = 0
    for combo in combos:
        chosen_b = set(combo)
        cost_b = sum(units[v] for v in combo)
        degree = {a: len(adj[a] & chosen_b) for a in part_a}
        if sum(degree.values()) <= best_edges:
            continue
        items = [(units[a], degree[a]) for a in part_a]
        picked = knapsack_fptas(items, limit - cost_b, eps)
        edges = sum(degree[part_a[i]] for i in picked)
        if edges > best_edges:
            best_edges = edges
            best = tuple(sorted(combo + tuple(part_a[i] for i in picked)))
    fallbacks = ("enum_b4_capped",) if capped else ()
    return ClassOutcome(best, "enum_b4", fallbacks)


def _degree_select(adj, b_prime: list, light, m_a: int) -> tuple[int, ...]:
    """The heavy picks b_prime plus the m_a light vertices of most degree
    into them, sorted."""
    b_set = set(b_prime)
    return tuple(sorted(_top(light, m_a, lambda a: len(adj[a] & b_set)) + b_prime))


def solve_class4(sub: SubInstance, eps=DEFAULT_KNAPSACK_EPS) -> ClassOutcome:
    """Top heavy-side vertices by degree, then top quarter of the light side.

    The orchestrator sends it only sub-instances that overflow the limit.
    Below 8*d (or with a tiny or huge-but-cheap configuration) the
    heavy-side subsets are few enough to enumerate outright, which also
    sidesteps the capture loss of floored selection counts near the
    boundary.  The light-side count rounds up so the top picks always
    carry at least a quarter of the edge mass.

    The main path fits the scaled limit L by construction on a
    sub-instance built by decompose.  The floor(L/4d) heavy picks cost at
    most 2d each, at most L/2 together.  The ceil(|A|/4) light picks are
    tail vertices of cost at most 1 each.  |A| <= n < 2^l, and
    L > 2^(l-1) because the limit is at least c* > 2^(k-1), so
    ceil(|A|/4) <= 2^(l-2) < L/2.
    """
    part_a, part_b = sub.part_a, sub.part_b
    per_4d = _limit_over(sub, 4 * sub.d_gap)  # 0 below 4d, under 2 below 8d
    if per_4d == 0 or len(part_a) < 4 or (per_4d < 2 and len(part_b) <= 16):
        return _enum_small_b(sub, eps)
    adj = _adj_sets(sub)
    b_prime = _top(part_b, per_4d, lambda b: len(adj[b]))
    m_a = -(-len(part_a) // 4)
    return ClassOutcome(_degree_select(adj, b_prime, part_a, m_a), "main")


def solve_class5(
    sub: SubInstance, backend: DksBackend, eps=DEFAULT_KNAPSACK_EPS
) -> ClassOutcome:
    """Case split on the light-side size against limit^((1+a)/(1-a)), a
    the backend's declared_alpha, on a sub-instance that overflows its
    limit.

    Small light side: pure degree selection (case 1).  Large light side:
    replicate the heavy side into d unit-cost copies, run DkS with
    k = floor(limit) on the replicated graph, and read the selection back
    through the per-base-vertex peak copy degrees (case 2).  A replicated
    graph above REPLICATION_CAP vertices takes case 1 instead.

    Both cases fit the scaled limit L by construction on a sub-instance
    built by decompose.  The floor(L/4d) heavy picks cost at most 2d
    each, at most L/2 together, and the floor(L/4) light picks cost at
    most 2 each, at most L/2 together.
    """
    part_a, part_b = sub.part_a, sub.part_b
    per_4d = _limit_over(sub, 4 * sub.d_gap)
    if per_4d == 0:  # limit below 4d
        return _enum_small_b(sub, eps)
    adj = _adj_sets(sub)
    m_a = _limit_over(sub, 4)

    small_a = _case1_applies(sub, len(part_a), backend.declared_alpha)
    if small_a or len(part_a) + sub.d_gap * len(part_b) > REPLICATION_CAP:
        b_prime = _top(part_b, per_4d, lambda b: len(adj[b]))
        fallbacks = () if small_a else ("replication_cap_exceeded",)
        return ClassOutcome(_degree_select(adj, b_prime, part_a, m_a), "case1", fallbacks)

    rep = replicate(sub)
    k = _limit_over(sub, 1)
    chosen, fallbacks = _dks_with_fallback(rep.graph, k, backend)

    n_a = len(part_a)
    chosen_a = {i for i in chosen if i < n_a}
    a_returned = sorted(part_a[i] for i in chosen_a)
    # a copy's row holds light ids only, and a base's copies share it, so
    # every chosen copy of a base has the same degree into the choice
    delta_star = dict.fromkeys(part_b, 0)
    nbrs = rep.graph.nbrs
    for local in chosen:
        if local >= n_a:
            delta_star[rep.copy_base(local)] = len(chosen_a.intersection(nbrs[local]))

    b_prime = _top(part_b, per_4d, lambda b: delta_star[b])
    return ClassOutcome(_degree_select(adj, b_prime, a_returned, m_a), "case2", fallbacks)
