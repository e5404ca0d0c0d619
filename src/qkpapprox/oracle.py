"""Exact QKP solver for tests and ratio measurement on small instances."""

import os

from .errors import CapacityError
from .instance import QkpInstance, Solution, evaluate

DEFAULT_MAX_N = 22
ENV_MAX_N = "QKP_ORACLE_MAX_N"


def _max_n(override):
    if override is not None:
        return override
    text = os.environ.get(ENV_MAX_N, str(DEFAULT_MAX_N))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{ENV_MAX_N} must be an integer, got {text!r}") from None


def exact_qkp(inst: QkpInstance, max_n: int | None = None) -> Solution:
    """Optimal feasible vertex set by branch and bound.

    Vertices are decided in id order, include branch first.  At depth i the
    bound adds to the profit so far the vertex profits of i..n-1, the
    profits of edges with both ends >= i and those of edges from a chosen
    vertex to one >= i; every other edge has an excluded end or is already
    counted.  The bound is valid, so pruning at bound <= best keeps the
    first optimum in DFS order.  Raises CapacityError when n exceeds the
    size guard (default 22, overridable via the QKP_ORACLE_MAX_N env var).
    """
    guard = _max_n(max_n)
    if inst.n > guard:
        raise CapacityError(f"oracle limited to n <= {guard}, got n = {inst.n}")

    n = inst.n
    adj = inst.adjacency()
    # forward[i]: profits of edges from i to higher vertices; suffix[i]:
    # vertex profits of i..n-1 plus the profits of edges with both ends >= i
    forward = [sum(p for u, p in adj[i] if u > i) for i in range(n)]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + inst.vprofit[i] + forward[i]

    best_profit = 0
    best_set: tuple[int, ...] = ()
    included = [False] * n
    chosen: list[int] = []
    limit = inst.limit

    def dfs(i, cost, profit, reach):
        # reach: profits of edges from chosen vertices to vertices >= i
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = tuple(chosen)
        if i == n:
            return
        if profit + suffix[i] + reach <= best_profit:
            return
        back = 0
        for u, p in adj[i]:
            if included[u]:
                back += p
        if cost + inst.cost[i] <= limit:
            included[i] = True
            chosen.append(i)
            dfs(
                i + 1,
                cost + inst.cost[i],
                profit + inst.vprofit[i] + back,
                reach - back + forward[i],
            )
            chosen.pop()
            included[i] = False
        dfs(i + 1, cost, profit, reach - back)

    dfs(0, 0, 0, 0)
    cost, profit = evaluate(inst, best_set)
    return Solution(tuple(sorted(best_set)), cost, profit)
