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

    Vertices are decided in id order, include branch first; the bound adds
    all still-reachable vertex and edge profits, so pruning never cuts an
    optimal branch.  Raises CapacityError when n exceeds the size guard
    (default 22, overridable via the QKP_ORACLE_MAX_N env var).
    """
    guard = _max_n(max_n)
    if inst.n > guard:
        raise CapacityError(f"oracle limited to n <= {guard}, got n = {inst.n}")

    n = inst.n
    adj = inst.adjacency()
    # suffix_vp[i]: vertex profits of i..n-1; suffix_ep[i]: profits of edges
    # whose higher endpoint is >= i (everything still collectible at depth i)
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
    limit = inst.limit

    def dfs(i, cost, profit):
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = tuple(chosen)
        if i == n:
            return
        if profit + suffix_vp[i] + suffix_ep[i] <= best_profit:
            return
        if cost + inst.cost[i] <= limit:
            gain = inst.vprofit[i]
            for u, p in adj[i]:
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
