"""0/1 knapsack: profit-scaling FPTAS and an exact solver for tests.

Both run the same dominance sweep: states are (cost, profit) pairs kept on
a Pareto frontier, with parent links for subset recovery.  The FPTAS first
rounds profits to integers via the standard p_hat = floor(p * n / (eps *
p_max)) transformation.  Ties always prefer excluding the newest item, so
outputs are deterministic and lean toward low item indices.

Callers pass exact rationals.  Before the sweep, costs and profits are
scaled to integers by the lcm of their denominators, and the capacity is
scaled by the cost factor and floored.  This is exact: scaling by a
positive factor keeps every comparison, and a sum of integers is at most
C exactly when it is at most floor(C).  The sweep then runs on flat int
lists, with no rational arithmetic.
"""

from array import array
from bisect import bisect_right
from fractions import Fraction
from math import floor

from .errors import CapacityError
from .rational import as_rational, to_units

DEFAULT_MAX_ITEMS = 25
_INT_CAPACITY_GUARD = 1_000_000


def _check_items(items, capacity):
    norm = []
    for cost, profit in items:
        cost = as_rational(cost)
        profit = as_rational(profit)
        if cost < 0 or profit < 0:
            raise ValueError("item costs and profits must be nonnegative")
        norm.append((cost, profit))
    capacity = as_rational(capacity)
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    return norm, capacity


def _sweep(indices, costs, profits, capacity) -> tuple[int, ...]:
    """Pareto sweep over int (cost, profit) states; returns the best subset.

    Every cost must be at most the int capacity.  The frontier is held in
    parallel lists sorted by strictly increasing cost and profit; states
    of equal value keep the variant that excludes the newer item.  State
    id s was added by item added_by[t] for the last t with
    first_id[t] <= s, and parent[s] is the state it extended (id 0 is the
    empty set).
    """
    f_cost, f_profit, f_id = [0], [0], [0]
    parent = array("q", [-1])
    first_id, added_by = [], []
    for idx, cost, profit in zip(indices, costs, profits):
        # the states this item can extend are a prefix of the frontier
        k = bisect_right(f_cost, capacity - cost)
        n = len(f_cost)
        new_id = len(parent)
        first_id.append(new_id)
        added_by.append(idx)
        m_cost, m_profit, m_id = [], [], []
        best = -1
        i = 0
        for j in range(k):
            a_cost = f_cost[j] + cost
            a_profit = f_profit[j] + profit
            while i < n:
                c = f_cost[i]
                if c > a_cost or (c == a_cost and f_profit[i] < a_profit):
                    break
                p = f_profit[i]
                if p > best:
                    m_cost.append(c)
                    m_profit.append(p)
                    m_id.append(f_id[i])
                    best = p
                i += 1
            if a_profit > best:
                m_cost.append(a_cost)
                m_profit.append(a_profit)
                m_id.append(new_id)
                parent.append(f_id[j])
                new_id += 1
                best = a_profit
        # frontier profits increase, so the survivors of the rest are a suffix
        i = bisect_right(f_profit, best, i)
        m_cost += f_cost[i:]
        m_profit += f_profit[i:]
        m_id += f_id[i:]
        f_cost, f_profit, f_id = m_cost, m_profit, m_id

    chosen = []
    state = f_id[-1]
    while state:
        chosen.append(added_by[bisect_right(first_id, state) - 1])
        state = parent[state]
    return tuple(sorted(chosen))


def _integral(usable, capacity):
    """(indices, costs, profits, capacity) of (index, cost, profit) triples, in ints."""
    indices, costs, profits = zip(*usable)
    costs, factor = to_units(costs)
    return indices, costs, to_units(profits)[0], floor(capacity * factor)


def knapsack_fptas(items, capacity, eps) -> tuple[int, ...]:
    """(1 - eps)-approximate 0/1 knapsack; returns chosen item indices.

    items: sequence of (cost, profit) with nonnegative exact rationals.
    eps must lie strictly in (0, 1).
    """
    eps = as_rational(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    norm, capacity = _check_items(items, capacity)
    usable = [
        (i, c, p) for i, (c, p) in enumerate(norm) if c <= capacity and p > 0
    ]
    if not usable:
        return ()
    p_max = max(p for _, _, p in usable)
    scale = Fraction(len(usable)) / (Fraction(eps) * Fraction(p_max))
    # the p_max item always scales to >= 1, so the sweep is never empty
    scaled = []
    for i, c, p in usable:
        p_hat = int(p * scale)
        if p_hat > 0:
            scaled.append((i, c, p_hat))
    return _sweep(*_integral(scaled, capacity))


def knapsack_exact(items, capacity, max_items: int = DEFAULT_MAX_ITEMS) -> tuple[int, ...]:
    """Exact 0/1 knapsack by dominance sweep; returns chosen item indices.

    Guarded: beyond max_items items the sweep only runs when the capacity,
    in the integer units the costs are scaled to, is small enough to bound
    the frontier; otherwise CapacityError.
    """
    norm, capacity = _check_items(items, capacity)
    usable = [
        (i, c, p) for i, (c, p) in enumerate(norm) if c <= capacity and p > 0
    ]
    if not usable:
        return ()
    indices, costs, profits, capacity = _integral(usable, capacity)
    if len(usable) > max_items and capacity > _INT_CAPACITY_GUARD:
        raise CapacityError(
            f"exact knapsack limited to {max_items} items "
            f"(or a capacity of at most {_INT_CAPACITY_GUARD} cost units)"
        )
    return _sweep(indices, costs, profits, capacity)
