"""Exact QKP solver for tests and ratio measurement on small instances."""

from .errors import CapacityError
from .instance import QkpInstance, Solution, evaluate
from .rational import non_negative_int, to_units

DEFAULT_MAX_N = 22


def _greedy_profit(cost, limit, vprofit, later) -> int:
    """Profit of a feasible set filled greedily, in the walk's units.

    Each step takes the untaken vertex that fits the capacity left and has
    the largest marginal profit (its vertex profit plus its edge profits to
    the vertices taken) per unit of cost: zero costs first, ratios compared
    by cross-multiplication, ties to the smaller id.  A vertex that does
    not fit stops fitting for good, since the capacity left only shrinks.
    """
    gain = list(vprofit)
    adj = [[] for _ in gain]
    for u, nbrs in enumerate(later):
        for v, p in nbrs:
            adj[u].append((v, p))
            adj[v].append((u, p))
    room = limit
    profit = 0
    free = [j for j, c in enumerate(cost) if c <= room]
    while free:
        best = free[0]
        for j in free:
            c, cb = cost[j], cost[best]
            if cb and (not c or gain[j] * cb > gain[best] * c):
                best = j
        room -= cost[best]
        profit += gain[best]
        for u, p in adj[best]:
            gain[u] += p
        free = [j for j in free if j != best and cost[j] <= room]
    return profit


def exact_qkp(inst: QkpInstance, max_n: int = DEFAULT_MAX_N) -> Solution:
    """Optimal feasible vertex set by branch and bound.

    Vertices are decided in id order, include branch first, by a
    depth-first walk on an explicit stack, so n is bounded by the guard
    alone, not by the interpreter's recursion limit.  Costs and the limit
    are scaled to ints by one factor, vertex and edge profits by another.

    At depth i, with profit so far P and residual capacity R, one bound
    on the best completion prunes, the upper planes (Gallo, Hammer &
    Simeone 1980): vertex j >= i is worth w_j = 2 (p_j + back_j) + rem_j,
    with back_j its edge profit to the chosen vertices and rem_j its edge
    profit to the vertices >= i.  A set T of vertices >= i that fits R
    adds to P the sum over T of p_j + back_j and T's induced edge profits;
    each induced edge is counted in rem_j at both its ends, so T adds at
    most half the sum of w_j over T.  Only vertices that fit R can be in
    T, and the Dantzig LP bound of the knapsack on their w_j, filled in
    exact ratio order, bounds that sum.  The break item's fraction is
    rounded down, as in the knapsack module's Dantzig bound: T's gain is
    an int at most LP / 2, so at most floor(LP / 2) = floor(floor(LP) / 2),
    and P plus floor(LP) halved and floored bounds the completion.  The
    sum of w_j over every j >= i is twice the vertex profits of i..n-1,
    the profits of edges with both ends >= i and those of edges from a
    chosen vertex to one >= i; the LP bound never exceeds it, so that
    simpler bound would prune no node this one keeps.

    The walk starts from a greedy lower bound, not from 0, as exact QKP
    codes do (Caprara, Pisinger & Toth 1999).  start, the profit of the
    feasible set _greedy_profit fills, is at most OPT; the best profit
    begins at max(start - 1, 0), with the empty set as the best set.  A
    node is pruned when a bound is <= the best profit, and it replaces the
    best set only when its profit is above the best profit.  If OPT = 0,
    the walk is the walk from 0.  Otherwise every node on the path to the
    first optimum in DFS order has a bound of at least OPT > max(start - 1,
    0), and every profit found before that optimum is below OPT, so the
    best profit stays below OPT until the optimum is reached and no node on
    its path is pruned; later ties do not replace it.  So the walk returns
    the same set as a walk from 0 under any other valid bound.  Starting
    from start itself, or with the greedy set as the best set, could return
    another optimum or none.

    Raises CapacityError when n exceeds max_n (22 by default), the guard's
    one source, and ValueError unless max_n is a non-negative int.
    """
    if inst.n > non_negative_int(max_n, "max_n"):
        raise CapacityError(f"oracle limited to n <= {max_n}, got n = {inst.n}")

    n = inst.n
    cost, _ = to_units([*inst.cost, inst.limit])
    limit = cost.pop()
    units, _ = to_units([*inst.vprofit, *(p for _, _, p in inst.edges)])
    vprofit = units[:n]
    # later[i]: (neighbour, edge profit) for the neighbours of i above i
    later = [[] for _ in range(n)]
    for (u, v, _), p in zip(inst.edges, units[n:]):
        later[u].append((v, p))
    # at depth i, for each j >= i: back[j] its edge profit to the chosen
    # vertices, rem[j] its edge profit to the vertices >= i
    back = [0] * n
    rem = [0] * n
    for u, nbrs in enumerate(later):
        for v, p in nbrs:
            rem[u] += p
            rem[v] += p

    vprofit2 = [2 * p for p in vprofit]
    # a fitting vertex costs at most the limit, so (w << shift) // c orders
    # exactly like w / c, as in knapsack._ratio_order
    shift = 2 * limit.bit_length()
    best_profit = max(_greedy_profit(cost, limit, vprofit, later) - 1, 0)
    best_set: tuple[int, ...] = ()
    chosen: list[int] = []
    # nodes (i, cost, profit); an int i marks the end of vertex i's
    # include branch, ~i the end of both its branches
    stack: list = [(0, 0, 0)]
    while stack:
        node = stack.pop()
        if type(node) is int:
            if node >= 0:
                chosen.pop()
                for u, p in later[node]:
                    back[u] -= p
            else:
                for u, p in later[~node]:
                    rem[u] += p
            continue
        i, spent, profit = node
        if profit > best_profit:
            best_profit = profit
            best_set = tuple(chosen)
        if i == n:
            continue
        room = limit - spent
        planes = 0
        keyed = []
        for j in range(i, n):
            c = cost[j]
            if c <= room:
                w = vprofit2[j] + 2 * back[j] + rem[j]
                if c:
                    keyed.append(((w << shift) // c, c, w))
                else:
                    planes += w
        keyed.sort(reverse=True)
        for _, c, w in keyed:
            if c > room:
                planes += w * room // c
                break
            room -= c
            planes += w
        if profit + planes // 2 <= best_profit:
            continue
        for u, p in later[i]:
            rem[u] -= p
        stack.append(~i)
        stack.append((i + 1, spent, profit))
        if spent + cost[i] <= limit:
            for u, p in later[i]:
                back[u] += p
            chosen.append(i)
            stack.append(i)
            stack.append((i + 1, spent + cost[i], profit + vprofit[i] + back[i]))

    total_cost, total_profit = evaluate(inst, best_set)
    return Solution(best_set, total_cost, total_profit)
