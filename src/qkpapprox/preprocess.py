"""Instance preparation: pruning, profit rounding, cost bucketing.

Pruning removes everything that can never appear in a feasible solution
and folds zero-cost vertices into a base profit (they are always worth
taking).  Edge profits are then rounded down onto a dyadic level ladder,
and vertex costs are grouped into dyadic buckets; both gadgets feed the
sub-instance decomposition.
"""

from dataclasses import dataclass

from .instance import QkpInstance
from .rational import Rational, as_rational, ceil_log2, floor_log2, pow2, to_units


@dataclass(frozen=True)
class PruneResult:
    reduced: QkpInstance
    base_profit: Rational
    always_include: frozenset  # original ids of folded zero-cost vertices
    orig_of: tuple[int, ...]   # reduced id -> original id


@dataclass(frozen=True)
class PreparedInstance:
    """Pruned, rounded and bucketed instance plus lift-back metadata.

    reduced is the pruned instance over dense reduced ids, with folded
    vertex profits and rounded edge profits; orig_of maps a reduced id to
    its original id.  always_include holds the original ids of the folded
    zero-cost vertices, and base_profit is their profit together.
    profit_levels is the descending ladder of edge-profit values (powers
    of two, then 0); bucket_of maps each reduced vertex to its dyadic cost
    bucket 1..l_buckets+1, where bucket l_buckets+1 is the tail of costs
    <= 2**(k_exp - l_buckets).

    Costs in integer units: den is the lcm of the denominators of the
    original costs and the limit.  orig_cost_units[v] is the original
    vertex v's cost * den, cost_units[r] is reduced.cost[r] * den and
    limit_units is the limit * den, all ints.
    """

    reduced: QkpInstance
    base_profit: Rational
    always_include: frozenset
    orig_of: tuple[int, ...]
    profit_levels: tuple[Rational, ...]
    bucket_of: dict[int, int]
    k_exp: int
    l_buckets: int
    den: int
    cost_units: tuple[int, ...]
    limit_units: int
    orig_cost_units: tuple[int, ...]


def _prune_parts(inst: QkpInstance, units):
    """prune's result, with the reduced instance still as (cost, vprofit, edges).

    units are inst's costs and then its limit, as to_units scales them.
    """
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
    base_profit: Rational = sum((inst.vprofit[z] for z in zero), 0)
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
        # a folded sum of Fractions can be integral: normalise it to an int
        tuple(
            as_rational(inst.vprofit[v] + extra_vp[v])
            if extra_vp[v]
            else inst.vprofit[v]
            for v in survivors
        ),
        tuple((new_id[u], new_id[v], p) for u, v, p in kept_edges),
    )
    return parts, base_profit, frozenset(zero), tuple(survivors)


def prune(inst: QkpInstance) -> PruneResult:
    """Drop unusable vertices/edges and fold zero-cost vertices.

    Removed: vertices with cost above the limit, edges whose endpoint
    costs together exceed the limit, and zero-profit edges.  Zero-cost
    vertices are folded: their vertex profit accrues to base_profit and
    each surviving incident edge profit moves onto the neighbour's vertex
    profit.  The remaining instance is relabeled densely.
    """
    units, _ = to_units(inst.cost + (inst.limit,))
    (cost, vprofit, edges), *folded = _prune_parts(inst, units)
    reduced = QkpInstance.from_canonical(len(cost), cost, vprofit, edges, inst.limit)
    return PruneResult(reduced, *folded)


def smallest_int_above_log2(n: int) -> int:
    """Smallest integer strictly greater than log2(n), n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n.bit_length()


def _rounded_edges(n: int, edges) -> tuple[tuple, tuple[Rational, ...]]:
    """round_profits' edges and level ladder for n vertices; edges non-empty."""
    p_star = max(p for _, _, p in edges)
    l_exp = floor_log2(p_star)
    q = smallest_int_above_log2(n * n)
    levels = tuple(pow2(l_exp - j) for j in range(q + 1)) + (0,)
    cutoff = l_exp - q
    # edge profits repeat, so round each distinct value once
    level_of = {}
    for p in {p for _, _, p in edges}:
        e = floor_log2(p)
        if e >= cutoff:
            level_of[p] = pow2(e)
    rounded = tuple((u, v, level_of[p]) for u, v, p in edges if p in level_of)
    return rounded, levels


def round_profits(inst: QkpInstance) -> tuple[QkpInstance, tuple[Rational, ...]]:
    """Round each edge profit down onto {2^l, ..., 2^(l-q), 0}.

    2^l is the largest power of two at most the top edge profit and q is
    the smallest integer above 2*log2(n).  Edges rounding to 0 are
    dropped; vertex profits stay untouched.  Returns the rounded instance
    and the descending level ladder (empty when there are no edges).
    """
    if not inst.edges:
        return inst, ()
    edges, levels = _rounded_edges(inst.n, inst.edges)
    return QkpInstance(inst.n, inst.cost, inst.vprofit, edges, inst.limit), levels


def bucket_costs(inst: QkpInstance) -> tuple[dict[int, int], int, int]:
    """Group vertices into dyadic cost buckets V_1..V_{l+1}.

    2^k is the smallest power of two at least the top cost and l the
    smallest integer above log2(n); bucket i <= l holds costs in
    (2^(k-i), 2^(k+1-i)] and bucket l+1 the tail (0, 2^(k-l)].  All costs
    must be positive (prune first).
    """
    if inst.n == 0:
        return {}, 0, 1
    for v in range(inst.n):
        if inst.cost[v] <= 0:
            raise ValueError(
                f"bucket_costs needs positive costs; vertex {v} has {inst.cost[v]}"
            )
    c_star = max(inst.cost)
    k = ceil_log2(c_star)
    l = smallest_int_above_log2(inst.n)
    bucket_of = {}
    for v in range(inst.n):
        i = k + 1 - ceil_log2(inst.cost[v])
        bucket_of[v] = i if i <= l else l + 1
    return bucket_of, k, l


def prepare(inst: QkpInstance) -> PreparedInstance:
    """Full preparation pipeline: prune, round profits, bucket costs.

    The reduced instance takes inst's values, already in canonical form,
    without converting them again.
    """
    units, den = to_units(inst.cost + (inst.limit,))
    parts, base_profit, always_include, orig_of = _prune_parts(inst, units)
    cost, vprofit, edges = parts
    levels = ()
    if edges:
        edges, levels = _rounded_edges(len(cost), edges)
    reduced = QkpInstance.from_canonical(len(cost), cost, vprofit, edges, inst.limit)
    bucket_of, k_exp, l_buckets = bucket_costs(reduced)
    return PreparedInstance(
        reduced=reduced,
        base_profit=base_profit,
        always_include=always_include,
        orig_of=orig_of,
        profit_levels=levels,
        bucket_of=bucket_of,
        k_exp=k_exp,
        l_buckets=l_buckets,
        den=den,
        cost_units=tuple(units[v] for v in orig_of),
        limit_units=units[-1],
        orig_cost_units=tuple(units[:-1]),
    )
