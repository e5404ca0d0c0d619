"""Shared test utilities: independent oracles and instance generators.

The brute-force solvers here deliberately avoid the library's adjacency
and search machinery so they can serve as independent cross-checks.
"""

import heapq
import math
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from qkpapprox import dks, knapsack, orchestrator
from qkpapprox.classsolvers import (
    ReplicatedGraph,
    solve_class2,
    solve_class3,
    solve_class4,
    solve_class5,
)
from qkpapprox.decompose import SubInstance, bucket_costs, decompose
from qkpapprox.dks import UGraph
from qkpapprox.instance import QkpInstance, Solution, evaluate
from qkpapprox.orchestrator import RunReport, SubRecord, _beats
from qkpapprox.preprocess import PreparedInstance, prepare
from qkpapprox.rational import Rational, as_rational, floor_log2, pow2, to_units


def brute_force_opt(inst: QkpInstance):
    """Optimal (profit, vertex set) by full 2^n enumeration.

    Profit is recomputed from the raw edge list, independent of
    evaluate()'s adjacency walk.
    """
    best_profit = 0
    best_set: tuple[int, ...] = ()
    for r in range(inst.n + 1):
        for combo in combinations(range(inst.n), r):
            if sum(inst.cost[v] for v in combo) > inst.limit:
                continue
            chosen = set(combo)
            profit = sum(inst.vprofit[v] for v in combo)
            for u, v, p in inst.edges:
                if u in chosen and v in chosen:
                    profit += p
            if profit > best_profit:
                best_profit = profit
                best_set = combo
    return best_profit, best_set


def reference_exact_qkp(inst: QkpInstance) -> Solution:
    """exact_qkp with its earlier, looser bound, and without the size guard.

    At depth i it adds every edge whose higher endpoint is >= i, also the
    edges to vertices already excluded, and builds those sums in O(n*m).
    Any valid bound keeps the first optimum in DFS order, so the library's
    tighter bound must return the same set.
    """
    n = inst.n
    # edge profit from i to each lower neighbour, which may be included
    lower = [[] for _ in range(n)]
    for u, v, p in inst.edges:
        lower[v].append((u, p))
    suffix_vp = [0] * (n + 1)
    suffix_ep = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_vp[i] = suffix_vp[i + 1] + inst.vprofit[i]
        suffix_ep[i] = suffix_ep[i + 1] + sum(
            p for u, v, p in inst.edges if max(u, v) == i
        )

    best_profit = 0
    best_set: tuple[int, ...] = ()
    included = [False] * n
    chosen: list[int] = []

    def dfs(i, cost, profit):
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = tuple(chosen)
        if i == n:
            return
        if profit + suffix_vp[i] + suffix_ep[i] <= best_profit:
            return
        if cost + inst.cost[i] <= inst.limit:
            gain = inst.vprofit[i]
            for u, p in lower[i]:
                if included[u]:
                    gain += p
            included[i] = True
            chosen.append(i)
            dfs(i + 1, cost + inst.cost[i], profit + gain)
            chosen.pop()
            included[i] = False
        dfs(i + 1, cost, profit)

    dfs(0, 0, 0)
    cost, profit = evaluate(inst, best_set)
    return Solution(tuple(sorted(best_set)), cost, profit)


def brute_force_dks(n: int, edges, k: int):
    """Max induced edge count over all k-subsets, by raw enumeration."""
    k = min(k, n)
    best = 0
    edge_list = [(min(u, v), max(u, v)) for u, v in edges]
    for combo in combinations(range(n), k):
        chosen = set(combo)
        count = sum(1 for u, v in edge_list if u in chosen and v in chosen)
        best = max(best, count)
    return best


def reference_dks_enum(n: int, edges, k: int) -> tuple[int, ...]:
    """The first k-subset, in itertools.combinations order, with the most
    induced edges: the plain enumeration dks_exact's small case replaced.

    Assumes 0 <= k <= n and canonical (u < v, no repeats) edges.
    """
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best_edges = -1
    best = ()
    for combo in combinations(range(n), k):
        mask = 0
        count = 0
        for v in combo:
            count += (masks[v] & mask).bit_count()
            mask |= 1 << v
        if count > best_edges:
            best_edges = count
            best = combo
    return best


def reference_lex_pushes(masks: list[int], k: int) -> int:
    """Frames dks._lex_first_densest pushes on (masks, k), 1 <= k < n,
    counted by its walk without the frame cut: each child is bounded on
    its own, and every later sibling of a pruned child is still tried.

    The cut only skips siblings this walk prunes, so both push the same
    frames; dks._completion_bound is looked up at call time, so a spy on
    it counts this walk's calls too.
    """
    if k == 1:
        return 0
    n = len(masks)
    best_edges = -1
    depth = 0
    frames = [[0, 0, 0]]  # per depth: next vertex, prefix mask, prefix edges
    pushes = 0
    while frames:
        frame = frames[-1]
        v, mask, edges = frame
        t = k - depth
        if v > n - t:
            frames.pop()
            depth -= 1
            continue
        frame[0] = v + 1
        child_mask = mask | (1 << v)
        child_edges = edges + (masks[v] & mask).bit_count()
        if t == 2:
            for u in range(v + 1, n):
                e = child_edges + (masks[u] & child_mask).bit_count()
                best_edges = max(best_edges, e)
        elif v == n - t:
            for u in range(v + 1, n):
                child_edges += (masks[u] & child_mask).bit_count()
                child_mask |= 1 << u
            best_edges = max(best_edges, child_edges)
        elif best_edges < 0 or (
            child_edges
            + dks._completion_bound(masks[v + 1:], (1 << n) - (2 << v),
                                    child_mask, t - 1)
            > best_edges
        ):
            pushes += 1
            depth += 1
            frames.append([v + 1, child_mask, child_edges])
    return pushes


def reference_completion_bound(cand_masks, mask: int, t: int) -> int:
    """The completion bound dks._completion_bound tightened: every pair
    among the t picks, C(t, 2), plus their t largest gains into the set
    with vertex bitmask mask."""
    gains = sorted([(m & mask).bit_count() for m in cand_masks], reverse=True)
    return t * (t - 1) // 2 + sum(gains[:t])


def reference_greedy_peel(graph: UGraph, k: int) -> tuple[int, ...]:
    """The set-based peel dks.dks_greedy_peel replaced: adjacency sets
    built from graph.edges, and a set of live vertices."""
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    k_eff = min(k, graph.n)
    if k_eff == graph.n:
        return tuple(range(graph.n))
    deg = [len(adj[v]) for v in range(graph.n)]
    live = set(range(graph.n))
    heap = [(deg[v], v) for v in live]
    heapq.heapify(heap)
    while len(live) > k_eff:
        d, v = heapq.heappop(heap)
        if v not in live or d != deg[v]:
            continue
        live.remove(v)
        for u in adj[v]:
            if u in live:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return tuple(sorted(live))


def reference_replicate_edges(sub: SubInstance) -> tuple[tuple[int, int], ...]:
    """The d-fold edge list classsolvers.replicate built before it built
    rows: each sub edge once per copy of its heavy end, in replicate's
    local ids, sorted."""
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
    # light ids lie below every copy id and each edge is emitted once, so
    # sorting makes the list canonical
    edges.sort()
    return tuple(edges)


@st.composite
def qkp_instances(
    draw,
    min_n=0,
    max_n=8,
    max_cost=10,
    max_profit=10,
    allow_zero_cost=True,
    allow_vertex_profit=True,
):
    n = draw(st.integers(min_n, max_n))
    lo = 0 if allow_zero_cost else 1
    costs = tuple(draw(st.integers(lo, max_cost)) for _ in range(n))
    if allow_vertex_profit:
        vprofits = tuple(draw(st.integers(0, max_profit)) for _ in range(n))
    else:
        vprofits = (0,) * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v, draw(st.integers(0, max_profit))))
    limit = draw(st.integers(0, max(1, sum(costs))))
    return QkpInstance(
        n=n, cost=costs, vprofit=vprofits, edges=tuple(edges), limit=limit
    )


def sub_from_scaled(class_tag, costs, edges, limit, **fields) -> SubInstance:
    """A hand-built sub-instance over vertices 0..len(costs)-1 at scale 1.

    costs (a sequence or a dict keyed by vertex) and limit are the scaled
    rationals; they are stored as integer units over their common
    denominator, as decompose stores a prepared instance's costs.
    """
    n = len(costs)
    units, den = to_units([Fraction(costs[v]) for v in range(n)] + [Fraction(limit)])
    return SubInstance(
        class_tag=class_tag,
        vertices=tuple(range(n)),
        edges=tuple(edges),
        cost_units=tuple(units[:-1]),
        limit_units=units[-1],
        den=den,
        **fields,
    )


def random_class3_sub(rng: random.Random) -> SubInstance:
    """Conforming class-3 sub-instance: scaled costs in (1,2]."""
    r = rng.randint(4, 12)
    verts = tuple(range(r))
    costs = {v: 1 + Fraction(rng.randint(1, 8), 8) for v in verts}
    density = rng.choice([0.3, 0.6, 0.9])
    edges = tuple(
        (u, v) for u in range(r) for v in range(u + 1, r) if rng.random() < density
    )
    limit = Fraction(rng.randint(16, 40), 4)
    return sub_from_scaled(
        3,
        costs,
        edges,
        limit,
        profit_level=1,
        buckets=(1, 1),
    )


def random_class4_sub(rng: random.Random) -> SubInstance:
    """Conforming class-4 sub-instance: light side <= min(1, limit/n),
    heavy side in (d, 2d], limit >= 4d, at least 4 light vertices."""
    n_a = rng.randint(4, 9)
    n_b = rng.randint(1, 12 - n_a)
    n = n_a + n_b
    d = rng.choice([1, 2, 4])
    limit = 4 * d + Fraction(rng.randint(0, 16 * d), 2)
    part_a = tuple(range(n_a))
    part_b = tuple(range(n_a, n))
    a_max = min(Fraction(1), limit / n)
    costs = {}
    for v in part_a:
        costs[v] = a_max * Fraction(rng.randint(1, 16), 16)
    for v in part_b:
        costs[v] = d + d * Fraction(rng.randint(1, 16), 16)
    density = rng.choice([0.3, 0.6, 0.9])
    edges = tuple(
        (a, b) for a in part_a for b in part_b if rng.random() < density
    )
    return sub_from_scaled(
        4,
        costs,
        edges,
        limit,
        part_a=part_a,
        part_b=part_b,
        profit_level=1,
        buckets=(2, 1),
        d_gap=d,
    )


def random_class5_case2_sub(rng: random.Random) -> SubInstance:
    """Conforming class-5 sub-instance forced into case 2 under alpha=0.

    Light side in (1,2] with more vertices than the scaled limit, heavy
    side in (d,2d] with d=2, limit >= 4d.
    """
    d = 2
    n_a = rng.randint(9, 11)
    n_b = rng.randint(1, 12 - n_a)
    limit = 8 + Fraction(rng.randint(0, max(0, 2 * (n_a - 9))), 2)
    if limit >= n_a:
        limit = Fraction(2 * n_a - 3, 2)
    part_a = tuple(range(n_a))
    part_b = tuple(range(n_a, n_a + n_b))
    costs = {}
    for v in part_a:
        costs[v] = 1 + Fraction(rng.randint(1, 16), 16)
    for v in part_b:
        costs[v] = d + d * Fraction(rng.randint(1, 16), 16)
    density = rng.choice([0.3, 0.6, 0.9])
    edges = tuple(
        (a, b) for a in part_a for b in part_b if rng.random() < density
    )
    return sub_from_scaled(
        5,
        costs,
        edges,
        limit,
        part_a=part_a,
        part_b=part_b,
        profit_level=1,
        buckets=(2, 1),
        d_gap=d,
    )


def random_bipartite_sub(rng: random.Random, d: int) -> SubInstance:
    """Small bipartite class-5-shaped sub-instance for replication tests."""
    n_a = rng.randint(1, 5)
    n_b = rng.randint(1, 3)
    part_a = tuple(range(n_a))
    part_b = tuple(range(n_a, n_a + n_b))
    costs = {}
    for v in part_a:
        costs[v] = 1 + Fraction(rng.randint(1, 16), 16)
    for v in part_b:
        costs[v] = d + d * Fraction(rng.randint(1, 16), 16)
    edges = tuple(
        (a, b) for a in part_a for b in part_b if rng.random() < 0.7
    )
    limit = Fraction(rng.randint(8, 40), 2)
    return sub_from_scaled(
        5,
        costs,
        edges,
        limit,
        part_a=part_a,
        part_b=part_b,
        profit_level=1,
        buckets=(2, 1),
        d_gap=d,
    )


def sub_edge_count(sub: SubInstance, chosen) -> int:
    chosen = set(chosen)
    return sum(1 for u, v in sub.edges if u in chosen and v in chosen)


def sub_cost(sub: SubInstance, chosen) -> Fraction:
    return sum((Fraction(scaled_cost(sub, v)) for v in chosen), Fraction(0))


# Derived views of library objects that only the tests read.


def scaled_cost(sub: SubInstance, v: int) -> Rational:
    """v's cost in sub's scaled units: cost_units[v] / (den * cost_scale)."""
    return as_rational(Fraction(sub.cost_units[v], sub.den) / sub.cost_scale)


def instance_degree(inst: QkpInstance, v: int) -> int:
    return sum(v in (a, b) for a, b, _ in inst.edges)


def instance_total_profit(inst: QkpInstance):
    return sum(inst.vprofit) + sum(p for _, _, p in inst.edges)


def induced_edge_count(graph: UGraph, subset) -> int:
    chosen = set(subset)
    return sum(1 for u, v in graph.edges if u in chosen and v in chosen)


def profit_mass(sub: SubInstance, vprofit=None):
    """Total profit carried by a sub-instance.  vprofit is the reduced
    instance's vertex-profit tuple, which class 1 is solved on."""
    if sub.class_tag == 1:
        return sum(vprofit) if vprofit else 0
    return sub.profit_level * len(sub.edges)


def subinstance_count_bound(n: int) -> float:
    """The 2*(log2 n + 1)^3 + 1 ceiling on the number of sub-instances."""
    if n < 1:
        return 1.0
    return 2 * (math.log2(n) + 1) ** 3 + 1


def subinstance_as_qkp(
    sub: SubInstance, unit_edge_profit: bool = False, vprofit=None
) -> tuple[QkpInstance, tuple[int, ...]]:
    """Materialize a sub-instance as a standalone QKP at its scaled limit.

    Returns the instance over densely relabeled vertices and the tuple
    mapping local ids back to the sub-instance's reduced ids.  With
    unit_edge_profit the edges carry profit 1 (edge counting).  vprofit,
    the reduced instance's vertex profits, is used for class 1 only.
    """
    members = sub.vertices
    local = {v: i for i, v in enumerate(members)}
    profit = 1 if unit_edge_profit else (sub.profit_level or 1)
    if sub.class_tag == 1 and vprofit:
        vp = tuple(vprofit[v] for v in members)
    else:
        vp = (0,) * len(members)
    inst = QkpInstance(
        n=len(members),
        cost=tuple(scaled_cost(sub, v) for v in members),
        vprofit=vp,
        edges=tuple(
            (local[u], local[v], profit) for u, v in sub.edges
        ),
        limit=sub.scaled_limit,
    )
    return inst, members


def replicated_costs(rep: ReplicatedGraph, sub: SubInstance) -> tuple:
    """Scaled cost of each local id of replicate(sub): a light vertex keeps
    its cost, and each copy of a heavy vertex takes a 1/d share."""
    return tuple(scaled_cost(sub, a) for a in rep.a_members) + tuple(
        Fraction(scaled_cost(sub, b)) / rep.d for b in rep.b_members for _ in range(rep.d)
    )


def reference_feasible_b_subsets(part_b, scaled_cost, budget, max_size, cap):
    """The recursive enumeration classsolvers._feasible_b_subsets replaced.

    Cost-feasible subsets of the heavy side, lexicographic, capped; the
    closure refers to itself, so each call leaves a reference cycle.
    """
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


def bucketed_instance(rng: random.Random) -> QkpInstance:
    """One instance of the bucketed-exact benchmark's draw: costs from three
    dyadic buckets and a tail of costs <= 8, each pair an edge with
    probability 1/2 and a power-of-two profit, limit 6400."""
    groups = ((20, 513, 1024), (32, 257, 512), (44, 129, 256), (24, 1, 8))
    costs = [rng.randint(lo, hi) for count, lo, hi in groups for _ in range(count)]
    n = len(costs)
    edges = [
        (u, v, rng.choice((1, 2, 4, 8, 16)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    return QkpInstance(n=n, cost=tuple(costs), vprofit=(0,) * n, edges=tuple(edges), limit=6400)


def tail_instance(rng: random.Random) -> QkpInstance:
    """An instance whose vertices all lie in the tail bucket but one: an
    anchor of cost c* = 2^(k-1) + 1 and n - 1 costs in [2^(k-l-1), 2^(k-l)],
    so every edge among them is class 2 and every anchor edge class 4.
    n is just below a power of two and the limit between c* and c* plus
    half the tail's cost, so a class-2 sub-instance sometimes fits its
    limit whole and sometimes overflows it."""
    n = rng.choice((7, 14, 15))
    tail_exp = rng.randint(2, 4)  # k - l
    anchor = 2 ** (n.bit_length() + tail_exp - 1) + 1
    costs = [anchor] + [rng.randint(2 ** (tail_exp - 1), 2 ** tail_exp) for _ in range(n - 1)]
    density = rng.choice([0.3, 0.7])
    edges = tuple(
        (u, v, rng.randint(1, 3))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    )
    vprofit = tuple(rng.randint(0, 3) for _ in range(n))
    limit = rng.randint(anchor, anchor + sum(costs[1:]) // 2)
    return QkpInstance(n=n, cost=tuple(costs), vprofit=vprofit, edges=edges, limit=limit)


def anchored_instance(rng: random.Random) -> QkpInstance:
    """An instance at the edge of the class solvers' fit arguments: one
    anchor of cost c* = 2^(k-1) + 1, the limit at c* or c* + 1 (so the
    scaled limit is barely above 2^(l-1)), and n in {2^j - 1, 2^j,
    2^j + 1}.  The other n - 1 costs sit in the top half of their bucket:
    spread over buckets 2 to the tail ("spread"), all in the tail
    ("tail"), or in two adjacent buckets, most in the lighter one
    ("pair").  Half of the draws divide every cost and the limit by 3.
    Every edge has profit 1, so each bucket pair is one sub-instance."""
    j = rng.randint(3, 5)
    n = 2**j + rng.choice((-1, 0, 1))
    l = n.bit_length()
    k = rng.randint(j + 2, j + 4)
    shape = rng.choice(("spread", "tail", "pair"))
    pair = rng.randint(3, l)
    costs = [Fraction(2 ** (k - 1) + 1)]
    for _ in range(n - 1):
        if shape == "spread":
            bucket = rng.randint(2, l + 1)
        elif shape == "tail":
            bucket = l + 1
        else:
            bucket = pair - 1 if rng.random() < 0.3 else pair
        top = Fraction(2) ** (k - min(bucket, l) + (bucket <= l))
        costs.append(top * Fraction(rng.randint(9, 16), 16))
    limit = costs[0] + rng.choice((0, 1))
    if rng.random() < 0.5:
        costs, limit = [c / 3 for c in costs], limit / 3
    density = rng.choice((0.5, 0.9))
    edges = tuple(
        (u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    return QkpInstance(n=n, cost=tuple(costs), vprofit=(0,) * n, edges=edges, limit=limit)


def rational_cost_instance(seed: int) -> QkpInstance:
    """Seeded instance with rational costs and limit: denominators 2, 3, 7
    and 21, costs on powers of two and below 1, and Fraction edge profits."""
    rng = random.Random(seed)
    n = rng.randint(6, 24)
    den = rng.choice([2, 3, 7, 21])
    cost = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.25:
            cost.append(Fraction(2) ** rng.randint(-3, 5))
        elif kind < 0.45:
            cost.append(Fraction(rng.randint(1, den - 1), den))
        else:
            cost.append(Fraction(rng.randint(1, 40 * den), den))
    density = rng.choice([0.2, 0.5, 0.8])
    edges = tuple(
        (u, v, Fraction(rng.randint(1, 60), rng.choice([1, 3])))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    )
    limit = Fraction(rng.randint(1, int(sum(cost)) + 1) * 7, rng.choice([2, 3, 7]) * 7)
    vprofit = tuple(rng.randint(0, 5) for _ in range(n))
    return QkpInstance(n=n, cost=tuple(cost), vprofit=vprofit, edges=edges, limit=limit)


class _State:
    __slots__ = ("cost", "profit", "parent", "item")

    def __init__(self, cost, profit, parent, item):
        self.cost = cost
        self.profit = profit
        self.parent = parent
        self.item = item


def _reference_sweep(indexed_items, capacity):
    """Pareto sweep over (cost, profit) states; returns the final frontier.

    The frontier is sorted by strictly increasing cost and profit.  States
    of equal value keep the variant that excludes the newer item.
    """
    frontier = [_State(0, 0, None, None)]
    for idx, cost, profit in indexed_items:
        added = []
        for st in frontier:
            c = st.cost + cost
            if c <= capacity:
                added.append(_State(c, st.profit + profit, st, idx))
        merged = []
        best = -1
        i = j = 0
        while i < len(frontier) or j < len(added):
            if j >= len(added):
                st = frontier[i]
                i += 1
            elif i >= len(frontier):
                st = added[j]
                j += 1
            elif frontier[i].cost < added[j].cost or (
                frontier[i].cost == added[j].cost
                and frontier[i].profit >= added[j].profit
            ):
                st = frontier[i]
                i += 1
            else:
                st = added[j]
                j += 1
            if st.profit > best:
                merged.append(st)
                best = st.profit
        frontier = merged
    return frontier


def _reference_recover(state) -> tuple[int, ...]:
    chosen = []
    while state is not None:
        if state.item is not None:
            chosen.append(state.item)
        state = state.parent
    return tuple(sorted(chosen))


def _reference_usable(items, capacity):
    return [
        (i, Fraction(c), Fraction(p))
        for i, (c, p) in enumerate(items)
        if c <= capacity and p > 0
    ]


def reference_knapsack_fptas(items, capacity, eps) -> tuple[int, ...]:
    """knapsack_fptas on the linked-list sweep over exact rationals.

    The library's sweep runs on scaled integer costs in flat arrays; this
    is the rational-cost sweep it replaced, kept to check that both pick
    the same index tuple.  Inputs are assumed valid.
    """
    usable = _reference_usable(items, capacity)
    if not usable:
        return ()
    p_max = max(p for _, _, p in usable)
    scale = Fraction(len(usable)) / (Fraction(eps) * p_max)
    scaled = []
    for i, c, p in usable:
        p_hat = int(p * scale)
        if p_hat > 0:
            scaled.append((i, c, p_hat))
    return _reference_recover(_reference_sweep(scaled, capacity)[-1])


def exact_sweep(items, capacity) -> tuple[int, ...]:
    """Exact 0/1 knapsack: knapsack_fptas's integer sweep on the unscaled
    profits.  Returns the chosen item indices."""
    return knapsack._sweep(*knapsack._int_items(items, capacity))


def reference_knapsack_exact(items, capacity) -> tuple[int, ...]:
    """exact_sweep on the linked-list sweep over exact rationals."""
    usable = _reference_usable(items, capacity)
    return _reference_recover(_reference_sweep(usable, capacity)[-1])


def reference_greedy_fixed_count(costs, profits, capacity) -> int:
    """How many items Dantzig-bound fixing fixes with lb the greedy fill.

    Items are ints with every cost at most the capacity, as knapsack._fix
    gets them.  lb is the profit of the greedy fill in profit/cost order
    (zero costs first), raised by nothing else.  Item t is fixed out when
    p_t plus the floored Dantzig bound of the other items in C - c_t is
    below lb, and fixed in when that bound of the other items in C is;
    each bound is computed afresh by a walk over the order without t.
    """
    order = sorted(
        range(len(costs)),
        key=lambda t: (costs[t] == 0, Fraction(profits[t], costs[t] or 1)),
        reverse=True,
    )

    def dantzig(room, skip):
        total = 0
        for t in order:
            if t == skip:
                continue
            if costs[t] > room:
                return total + profits[t] * room // costs[t]
            room -= costs[t]
            total += profits[t]
        return total

    room = capacity
    lb = 0
    for t in order:
        if costs[t] <= room:
            room -= costs[t]
            lb += profits[t]
    return sum(
        profits[t] + dantzig(capacity - costs[t], t) < lb or dantzig(capacity, t) < lb
        for t in range(len(costs))
    )


def rationals(top):
    """Ints, halves, and thirds or sevenths, in [0, top]."""
    return st.one_of(
        st.integers(0, top),
        st.integers(0, 2 * top).map(lambda k: Fraction(k, 2)),
        st.builds(Fraction, st.integers(0, 3 * top), st.just(3)),
        st.builds(Fraction, st.integers(0, 7 * top), st.just(7)),
    )


@st.composite
def rational_instances(draw):
    """Sparse or dense instances with int, half-integral and Fraction
    values (zero included), zero-cost vertices and Fraction limits; small
    limits leave vertices and pairs unaffordable.  Edges come in any
    order."""
    n = draw(st.integers(1, 12))
    percent = draw(st.sampled_from([15, 80]))
    costs = tuple(draw(st.one_of(st.just(0), rationals(8))) for _ in range(n))
    vprofit = tuple(draw(rationals(6)) for _ in range(n))
    edges = draw(st.permutations([
        (u, v, draw(rationals(10)))
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.integers(0, 99)) < percent
    ]))
    den = draw(st.sampled_from([1, 2, 7]))
    limit = Fraction(draw(st.integers(0, den * (int(sum(costs)) + 1))), den)
    return QkpInstance(n=n, cost=costs, vprofit=vprofit, edges=tuple(edges), limit=limit)


def _reference_prune_parts(inst: QkpInstance, units):
    """Pruning as three edge walks: the live filter, the zero-cost fold and
    the relabel; prepare's single walk replaced it."""
    n = inst.n
    limit = units[-1]
    affordable = [v for v in range(n) if units[v] <= limit]
    affordable_set = set(affordable)
    live_edges = [
        (u, v, p)
        for u, v, p in inst.edges
        if u in affordable_set
        and v in affordable_set
        and units[u] + units[v] <= limit
        and p > 0
    ]

    zero = [v for v in affordable if units[v] == 0]
    zero_set = set(zero)
    base_profit = sum((inst.vprofit[z] for z in zero), 0)
    extra_vp = {v: 0 for v in affordable}
    kept_edges = []
    for u, v, p in live_edges:
        u_zero, v_zero = u in zero_set, v in zero_set
        if u_zero and v_zero:
            base_profit += p
        elif u_zero:
            extra_vp[v] += p
        elif v_zero:
            extra_vp[u] += p
        else:
            kept_edges.append((u, v, p))

    survivors = [v for v in affordable if v not in zero_set]
    new_id = {v: i for i, v in enumerate(survivors)}
    parts = (
        tuple(inst.cost[v] for v in survivors),
        tuple(
            as_rational(inst.vprofit[v] + extra_vp[v])
            if extra_vp[v]
            else inst.vprofit[v]
            for v in survivors
        ),
        tuple((new_id[u], new_id[v], p) for u, v, p in kept_edges),
    )
    return parts, base_profit, frozenset(zero), tuple(survivors)


def _reference_rounded_edges(n: int, edges):
    """Profit rounding by a max, a distinct-value pass and a remap."""
    p_star = max(p for _, _, p in edges)
    l_exp = floor_log2(p_star)
    q = (n * n).bit_length()
    cutoff = l_exp - q
    level_of = {}
    for p in {p for _, _, p in edges}:
        e = floor_log2(p)
        if e >= cutoff:
            level_of[p] = pow2(e)
    return tuple((u, v, level_of[p]) for u, v, p in edges if p in level_of)


def reference_fallback_scan(inst: QkpInstance, always, base_profit, units, limit):
    """The orchestrator's fallback scan over the original edges: the
    always-include set alone, then every affordable vertex, then every
    edge whose ends fit together, each with the always-include set."""
    attach = [0] * inst.n
    for u, v, p in inst.edges:
        if u in always and v not in always:
            attach[v] += p
        elif v in always and u not in always:
            attach[u] += p
    scan = (base_profit, tuple(sorted(always)))
    for v in range(inst.n):
        if v not in always and units[v] <= limit:
            profit = base_profit + inst.vprofit[v] + attach[v]
            verts = tuple(sorted(always | {v}))
            if _beats(profit, verts, scan):
                scan = (profit, verts)
    for u, v, p in inst.edges:
        if u in always or v in always or units[u] + units[v] > limit:
            continue
        profit = base_profit + inst.vprofit[u] + inst.vprofit[v] + p + attach[u] + attach[v]
        verts = tuple(sorted(always | {u, v}))
        if _beats(profit, verts, scan):
            scan = (profit, verts)
    return scan


def unrounded_reduced(inst: QkpInstance, prep: PreparedInstance) -> QkpInstance:
    """prep.reduced with inst's edge profits in place of the rounded ones:
    every original edge between two reduced vertices, mapped by orig_of.
    Edges whose ends do not fit together and zero-profit edges stay; they
    change no feasible set's profit."""
    new_id = {v: r for r, v in enumerate(prep.orig_of)}
    red = prep.reduced
    edges = tuple(
        (new_id[u], new_id[v], p) for u, v, p in inst.edges if u in new_id and v in new_id
    )
    return QkpInstance(red.n, red.cost, red.vprofit, edges, red.limit)


def reference_prepare(inst: QkpInstance) -> PreparedInstance:
    """prepare from the multi-walk pruning, rounding and fallback scan,
    with each vertex's weighted degree summed from the raw edge list.  The
    scan's lifted set, less the always-include ids, is mapped back to
    reduced ids."""
    units, den = to_units(inst.cost + (inst.limit,))
    parts, base_profit, always, orig_of = _reference_prune_parts(inst, units)
    cost, vprofit, edges = parts
    if edges:
        edges = _reference_rounded_edges(len(cost), edges)
    reduced = QkpInstance.from_canonical(len(cost), cost, vprofit, edges, inst.limit)
    incident = [[p for a, b, p in inst.edges if v in (a, b)] for v in range(inst.n)]
    _, scan = reference_fallback_scan(inst, always, base_profit, units, units[-1])
    return PreparedInstance(
        reduced=reduced,
        base_profit=base_profit,
        always_include=always,
        orig_of=orig_of,
        den=den,
        cost_units=tuple(units[v] for v in orig_of),
        limit_units=units[-1],
        weighted_degree=tuple(sum(ps, 0) for ps in incident),
        fallback=tuple(orig_of.index(v) for v in scan if v not in always),
    )


def reference_decompose(prep: PreparedInstance) -> list[SubInstance]:
    """decompose as it was before its one cell pass: buckets read from
    bucket_costs(prep.reduced) per edge, a setdefault list per cell, each
    sub-instance built by keyword."""
    inst = prep.reduced
    bucket_of, k, l = bucket_costs(inst)
    tail = l + 1
    units = {"cost_units": prep.cost_units, "limit_units": prep.limit_units, "den": prep.den}

    subs = [
        SubInstance(
            class_tag=1,
            vertices=tuple(range(inst.n)),
            edges=(),
            **units,
        )
    ]

    cells: dict[tuple[int, int, Rational], list[tuple[int, int]]] = {}
    for u, v, p in inst.edges:
        bu, bv = bucket_of[u], bucket_of[v]
        key = (bu, bv, p) if bu <= bv else (bv, bu, p)
        cells.setdefault(key, []).append((u, v))

    for (b_lo, b_hi, level) in sorted(cells):
        edges = tuple(sorted(cells[(b_lo, b_hi, level)]))
        members = tuple(sorted({w for e in edges for w in e}))
        part_a = part_b = d_gap = None
        if b_lo == tail:  # both tail
            tag, exp, buckets = 2, 0, (tail, tail)
        elif b_lo == b_hi:  # same non-tail bucket
            tag, exp, buckets = 3, k - b_lo, (b_lo, b_hi)
        else:  # bipartite: the lighter bucket b_hi is part_a
            # class 4 (b_hi is the tail) scales the tail like bucket l
            j = min(b_hi, l)
            tag = 4 if b_hi == tail else 5
            exp, d_gap = k - j, pow2(j - b_lo)
            buckets = (tail, b_lo) if tag == 4 else (b_lo, b_hi)
            part_a = tuple(v for v in members if bucket_of[v] == b_hi)
            part_b = tuple(v for v in members if bucket_of[v] == b_lo)
        subs.append(
            SubInstance(
                class_tag=tag,
                vertices=members,
                edges=edges,
                scale_exp=exp,
                part_a=part_a,
                part_b=part_b,
                profit_level=level,
                buckets=buckets,
                d_gap=d_gap,
                **units,
            )
        )
    return subs


def reference_solve(inst: QkpInstance, cfg) -> tuple[Solution, RunReport]:
    """solve with every feasible candidate evaluated, in solve order, and
    the fallback scan taken from the original edges.  Lifted candidates
    are costed in original-id units, not in prepare's reduced ones."""
    backend = cfg.dks_backend
    prep = prepare(inst)
    always = prep.always_include
    units, _ = to_units(inst.cost + (inst.limit,))
    limit = units[-1]
    best = None
    records = []
    for sub in decompose(prep):
        outcome = orchestrator._solve_sub(sub, prep.reduced, cfg)
        verts = tuple(sorted(always.union(prep.orig_of[r] for r in outcome.vertices)))
        feasible = sum(units[v] for v in verts) <= limit
        if feasible:
            profit = evaluate(inst, verts)[1]
            if _beats(profit, verts, best):
                best = (profit, verts, sub.class_tag)
        records.append(SubRecord(sub.class_tag, outcome.case, outcome.fallbacks, verts, feasible))
    scan = reference_fallback_scan(inst, always, prep.base_profit, units, limit)
    if _beats(*scan, best):
        best = (*scan, 0)
    records.append(SubRecord(0, "singleton_pair_scan", (), scan[1], True))
    solution = Solution(best[1], *evaluate(inst, best[1]))
    report = RunReport(tuple(records), solution, best[2], backend.name, cfg.knapsack_eps, inst)
    return solution, report


def ungated_best(inst: QkpInstance, cfg):
    """solve's best profit with every class 2-5 sub-instance sent to its
    class solver, also one that fits its limit whole (solve takes that one
    whole): each candidate lifted to original ids with the always-include
    set, the best feasible one's original profit, the fallback scan
    included.  Every candidate is evaluated, and costed in original-id
    units."""
    backend = cfg.dks_backend
    prep = prepare(inst)
    units, _ = to_units(inst.cost + (inst.limit,))
    limit = units[-1]
    best = reference_fallback_scan(inst, prep.always_include, prep.base_profit, units, limit)[0]
    for sub in decompose(prep):
        if sub.class_tag == 1:
            outcome = orchestrator._solve_sub(sub, prep.reduced, cfg)
        elif sub.class_tag == 2:
            outcome = solve_class2(sub)
        elif sub.class_tag == 3:
            outcome = solve_class3(sub, backend)
        elif sub.class_tag == 4:
            outcome = solve_class4(sub, eps=cfg.knapsack_eps)
        else:
            outcome = solve_class5(sub, backend, eps=cfg.knapsack_eps)
        verts = sorted(prep.always_include.union(prep.orig_of[r] for r in outcome.vertices))
        if sum(units[v] for v in verts) <= limit:
            best = max(best, evaluate(inst, verts)[1])
    return best


def reference_validate(inst: QkpInstance) -> list[str]:
    """The problems QkpInstance's check finds in inst's fields, with (u, v)
    tuple keys for duplicates, as the check was before its edge loop keyed
    ints and tested the range first."""
    problems = []
    if inst.n < 0:
        problems.append(f"negative vertex count {inst.n}")
    if len(inst.cost) != inst.n:
        problems.append(f"expected {inst.n} costs, got {len(inst.cost)}")
    if len(inst.vprofit) != inst.n:
        problems.append(f"expected {inst.n} vertex profits, got {len(inst.vprofit)}")
    for i, c in enumerate(inst.cost):
        if c < 0:
            problems.append(f"negative cost at vertex {i}")
    for i, p in enumerate(inst.vprofit):
        if p < 0:
            problems.append(f"negative vertex profit at vertex {i}")
    if inst.limit < 0:
        problems.append("negative cost limit")
    seen = set()
    for u, v, p in inst.edges:
        if u == v:
            problems.append(f"self-loop at vertex {u}")
            continue
        if not (0 <= u < inst.n and 0 <= v < inst.n):
            problems.append(f"edge ({u},{v}) has an out-of-range endpoint")
            continue
        if (u, v) in seen:
            problems.append(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        if p < 0:
            problems.append(f"negative profit on edge ({u},{v})")
    return problems
