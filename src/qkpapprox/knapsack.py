"""0/1 knapsack: the profit-scaling FPTAS.

It rounds profits to integers via the standard p_hat = floor(p * n /
(eps * p_max)) transformation, then runs a dominance sweep: states are
(cost, profit) pairs kept on a Pareto frontier, with parent links for
subset recovery.  Ties always prefer excluding the newest item, so
outputs are deterministic and lean toward low item indices.

Callers pass exact rationals, and no rational arithmetic runs per item.
An item is usable when its cost fits the capacity, compared by cross
multiplication, and its profit is positive.  Costs and profits are then
scaled to integers by the lcm of their denominators, and the capacity is
scaled by the cost factor and floored.  This is exact: scaling by a
positive factor keeps every comparison, and a sum of integers is at most
C exactly when it is at most floor(C).  The FPTAS's profit scaling is an
integer quotient on the profit units P: p_hat = floor(P * n * q / (r *
P_max)) for eps = r/q; items with p_hat = 0 are dropped after it, and
their cost denominators, left in the cost factor, change no comparison.
The sweep then runs on flat int lists.

Before the sweep, items are fixed by an upper bound (Ingargiola & Korsh
1973; Martello & Toth 1990, section 2.7).  When every item fits, all of
them are the answer and nothing else runs.  Otherwise lb is a lower
bound on the optimum, lb <= OPT: it starts as a greedy fill in
profit/cost order and is raised to the profit of each feasible set the
bound's bisects find on the way, a partial solution completed by a
prefix of the ratio order (greedy completions, as in Pisinger 1997 and
Martello, Pisinger & Toth 1999).  An item is fixed out when the floored
Dantzig (fractional knapsack) bound of the sets holding it is below lb,
and fixed in when that of the sets without it is.  The sweep then runs
on the free items alone, in the capacity the fixed-in items leave, and
they are added back.  The sweep prunes by the same bound: it drops every
state whose profit plus the bound of the items still to come, in the
capacity it has left, is below lb.  That table is built only on
frontiers longer than the free item list, so small calls skip it.  Both
cuts are strict, so the chosen subset is the one the plain sweep over
all items picks; _sweep gives the argument.
"""

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .rational import as_rational, to_units

DEFAULT_KNAPSACK_EPS = Fraction(1, 4)  # the FPTAS eps every caller defaults to


def _bound_table(order, costs, profits, start):
    """Prefix sums for the Dantzig bound of the items at positions >= start.

    order lists item positions by nonincreasing profit/cost ratio.  Returns
    (pc, pp, bc, bp): pc[k] and pp[k] are the cost and profit of the first
    k of those items, bc[k] and bp[k] the cost and profit of the (k+1)-th,
    with a (1, 0) sentinel after the last.  For a residual capacity r and
    k = bisect_right(pc, r) - 1 the bound is
    pp[k] + (r - pc[k]) * bp[k] // bc[k].
    """
    pc, pp, bc, bp = [0], [0], [], []
    c = p = 0
    for t in order:
        if t >= start:
            c += costs[t]
            p += profits[t]
            pc.append(c)
            pp.append(p)
            bc.append(costs[t])
            bp.append(profits[t])
    bc.append(1)
    bp.append(0)
    return pc, pp, bc, bp


def _ratio_order(costs, profits, capacity):
    """Item positions by nonincreasing profit/cost, zero costs first.

    Costs are ints in [0, capacity].  Two distinct ratios p/c and p'/c'
    differ by at least 1/(c c'), so once scaled by 2**shift > capacity**2
    their floors differ too: the int key orders exactly like the ratio.
    """
    shift = 2 * capacity.bit_length()
    return sorted(
        range(len(costs)),
        key=lambda t: (costs[t] == 0, (profits[t] << shift) // (costs[t] or 1)),
        reverse=True,
    )


def _fix(order, costs, profits, capacity, lb):
    """(fixed_in, free, lb): item positions in ascending order, and lb raised.

    lb must be at most the optimum, and the returned lb is too.  Every
    set of profit >= the returned lb holds each fixed-in item and none of
    the items in neither list (fixed out).  U(r) is the floored Dantzig bound
    of all items in capacity r, U_t(r) the same bound without item t.
    When the items ahead of t in the order cost at most r, the LP in
    capacity r + c_t takes them and t whole and then goes on as the LP
    without t, so U_t(r) = U(r + c_t) - p_t; otherwise t lies past r's
    break item and U_t(r) = U(r).  t is fixed out when p_t + U_t(C - c_t)
    < lb and fixed in when U_t(C) < lb: one bisect each.

    Each bisect, at index k, also gives a feasible profit, and lb is
    raised to it before the test.  Fixed-out test: p_t + pp[k], t and the
    first k items of the order, which cost at most C - c_t < ahead[t] and
    so do not hold t.  Fixed-in test: pp[k] - p_t.  When t is among the
    first k items, which cost at most C + c_t, they fit without t; when
    it is not, they cost at most ahead[t] <= C and fit whole, for more.
    So lb stays at most the optimum.  lb only rises, so an item tested
    under a smaller lb was only left free more often: a set of profit >=
    the final lb is also >= every lb a test used.  Both tests are strict,
    so every optimal set holds every fixed-in item and no fixed-out one,
    and no item is both.
    """
    pc, pp, bc, bp = _bound_table(order, costs, profits, 0)
    ahead = [0] * len(costs)
    for k, t in enumerate(order):
        ahead[t] = pc[k]
    fixed_in, free = [], []
    for t, (cost, profit) in enumerate(zip(costs, profits)):
        # when the items ahead of t fit in C - c_t, p_t + U_t(C - c_t) =
        # U(C) >= lb, and when they do not fit in C, U_t(C) = U(C) >= lb:
        # only the other case of each test can fix t
        if ahead[t] + cost > capacity:
            r = capacity - cost
            k = bisect_right(pc, r) - 1
            lb = max(lb, profit + pp[k])
            if profit + pp[k] + (r - pc[k]) * bp[k] // bc[k] < lb:
                continue
        if ahead[t] <= capacity:
            r = capacity + cost
            k = bisect_right(pc, r) - 1
            lb = max(lb, pp[k] - profit)
            if pp[k] + (r - pc[k]) * bp[k] // bc[k] - profit < lb:
                fixed_in.append(t)
                continue
        free.append(t)
    return fixed_in, free, lb


def _sweep(indices, costs, profits, capacity) -> tuple[int, ...]:
    """Pareto sweep over int (cost, profit) states; returns the best subset.

    Every cost must be at most the int capacity and every profit positive.
    The frontier is held in parallel lists sorted by strictly increasing
    cost and profit; states of equal value keep the variant that excludes
    the newer item.  State id s was added by item added_by[t] for the last
    t with first_id[t] <= s, and parent[s] is the state it extended (id 0
    is the empty set).

    The subset it returns.  The final frontier's last state has the
    largest profit p* and, among those, the least cost c*.  By the tie
    rule, a state of value v after item j excludes j exactly when the
    items before j reach v; so, by induction over the items, it is the
    colex-least subset of value v: read from the last item down, it
    leaves out every item it can.  The answer is the colex-least subset
    of value (c*, p*).

    Fixing (_fix).  When every item fits the answer is all of them.
    Otherwise lb starts as a greedy fill in exact profit/cost order, and
    _fix raises it, keeping lb <= p*, and splits off the items F that
    every set of profit >= lb holds and the items that none holds.  Every
    subset of value (c*, p*) has profit p* >= lb, so it is F plus a set T
    of free items; the free items in capacity C - cost(F) have greatest
    profit p* - profit(F), least cost for it c* - cost(F), and exactly
    these T as their subsets of that value.  Adding F to each T leaves the
    colex order unchanged, so the sweep over the free items alone, in
    index order and with F put back, returns the same subset.  And
    lb - profit(F) is at most p* - profit(F), the free items' optimum, so
    the pruning below starts from it.

    Pruning by the bound.  Before free item j is merged, a state s = (c, p) is
    dropped when B_j(s) = p + U_j(capacity - c) < lb, where U_j(r) is the
    floor of the Dantzig bound of items j.. in capacity r, and lb <= the
    free items' optimum.  lb is raised to the frontier's largest profit
    and, as the pass goes, to each tested state's completion: s plus the
    first k of items j.. in ratio order, k the bisect's index, which fit
    in capacity - c and are not in s.  A step builds its bound table (O(m)
    for m free items) only when the frontier is longer than m, from the
    ratio order built for fixing.

    The pruned sweep recovers the same subset as the unpruned one.
    - B_j is monotone: a state with cost <= c and profit >= p has
      B_j >= B_j(s), since U_j grows with the residual capacity.
    - B does not grow along a parent chain: the LP of items j.. is at
      least that of items j+1.. alone, and at least item j taken whole
      plus the LP of items j+1.. in the capacity left after it.
    - A merge candidate survives exactly when no candidate ahead of it in
      merge order has a profit at least its own; such a candidate
      dominates it.
    By induction over the items, and as lb never falls, a state with
    B >= lb is on the pruned frontier exactly when it is on the unpruned
    one: its parent had B >= lb, and so had the parent of every candidate
    that could displace it.  A state tested before lb rose within a pass
    is only kept more often.  The unpruned sweep's final best state has B
    equal to its profit, the optimum, which is at least lb; so it and
    every ancestor are kept, and it is still the best final state.
    """
    if sum(costs) <= capacity:
        return tuple(indices)
    order = _ratio_order(costs, profits, capacity)
    room = capacity
    lb = 0
    for t in order:
        if costs[t] <= room:
            room -= costs[t]
            lb += profits[t]
    fixed_in, free, lb = _fix(order, costs, profits, capacity, lb)
    chosen = [indices[t] for t in fixed_in]
    capacity -= sum(costs[t] for t in fixed_in)
    lb -= sum(profits[t] for t in fixed_in)
    # the ratio order of the free items, renumbered to their positions
    rank = [-1] * len(costs)
    for k, t in enumerate(free):
        rank[t] = k
    order = [rank[t] for t in order if rank[t] >= 0]
    indices = [indices[t] for t in free]
    costs = [costs[t] for t in free]
    profits = [profits[t] for t in free]

    f_cost, f_profit, f_id = [0], [0], [0]
    parent = array("q", [-1])
    first_id, added_by = [], []
    m = len(costs)
    for pos, (idx, cost, profit) in enumerate(zip(indices, costs, profits)):
        if len(f_cost) > m:
            lb = max(lb, f_profit[-1])
            pc, pp, bc, bp = _bound_table(order, costs, profits, pos)
            # states with p >= lb always survive, and profits increase
            low = bisect_left(f_profit, lb)
            w = 0
            for i in range(low):
                r = capacity - f_cost[i]
                k = bisect_right(pc, r) - 1
                p = f_profit[i] + pp[k]
                if p > lb:
                    lb = p
                if p + (r - pc[k]) * bp[k] // bc[k] >= lb:
                    f_cost[w] = f_cost[i]
                    f_profit[w] = f_profit[i]
                    f_id[w] = f_id[i]
                    w += 1
            del f_cost[w:low], f_profit[w:low], f_id[w:low]
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

    state = f_id[-1]
    while state:
        chosen.append(added_by[bisect_right(first_id, state) - 1])
        state = parent[state]
    return tuple(sorted(chosen))


def _int_items(items, capacity):
    """(indices, costs, profits, capacity) of the usable items in ints,
    from one pass that checks and converts each item."""
    capacity = as_rational(capacity)
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    num, den = capacity.numerator, capacity.denominator
    indices, costs, profits = [], [], []
    for i, (cost, profit) in enumerate(items):
        cost = as_rational(cost)
        profit = as_rational(profit)
        if cost < 0 or profit < 0:
            raise ValueError("item costs and profits must be nonnegative")
        if profit and cost.numerator * den <= num * cost.denominator:
            indices.append(i)
            costs.append(cost)
            profits.append(profit)
    costs, factor = to_units(costs)
    return indices, costs, to_units(profits)[0], num * factor // den


def knapsack_fptas(items, capacity, eps) -> tuple[int, ...]:
    """(1 - eps)-approximate 0/1 knapsack; returns chosen item indices.

    items: sequence of (cost, profit) with nonnegative exact rationals.
    eps must lie strictly in (0, 1).
    """
    eps = as_rational(eps)
    if not 0 < eps.numerator < eps.denominator:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    indices, costs, profits, capacity = _int_items(items, capacity)
    if not indices:
        return ()
    num = len(indices) * eps.denominator
    den = eps.numerator * max(profits)
    # the p_max item always scales to >= 1, so the sweep is never empty
    kept = []
    for i, c, p in zip(indices, costs, profits):
        p_hat = p * num // den
        if p_hat > 0:
            kept.append((i, c, p_hat))
    return _sweep(*zip(*kept), capacity)

