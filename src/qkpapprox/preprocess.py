"""Instance preparation: pruning, profit rounding, integer cost units.

Pruning removes everything that can never appear in a feasible solution
and folds zero-cost vertices into a base profit (they are always worth
taking).  Edge profits are then rounded down onto a dyadic level ladder,
which keys the sub-instance decomposition, and the surviving costs and
the limit are scaled to integer units by one factor.

prepare's one walk over the original edges also gathers the candidate
bounds' terms and the fallback scan's pairs.
"""

from dataclasses import dataclass
from operator import itemgetter

from .instance import Edge, QkpInstance
from .rational import Rational, as_rational, floor_log2, pow2, to_units


@dataclass(frozen=True)
class PreparedInstance:
    """Pruned and rounded instance plus lift-back metadata.

    cost, vprofit, edges and limit are the reduced problem, as QkpInstance
    stores it: the pruned instance over dense reduced ids, with folded
    vertex profits and rounded edge profits; orig_of maps a reduced id to
    its original id.  always_include holds the original ids of the folded
    zero-cost vertices, and base_profit is their profit together.

    Costs in integer units: den is the lcm of the denominators of the
    original costs and the limit.  cost_units[r] is cost[r] * den and
    limit_units is limit * den, both ints.

    By original id, weighted_degree[v] sums v's edge profits.  fallback
    is the sorted reduced ids of the set that wins, under _beats on the
    lifted sets, among the always-include set alone, with one affordable
    vertex, and with the ends of one edge whose costs fit together, of
    any profit.
    """

    cost: tuple[Rational, ...]
    vprofit: tuple[Rational, ...]
    edges: tuple[Edge, ...]
    limit: Rational
    base_profit: Rational
    always_include: frozenset
    orig_of: tuple[int, ...]
    den: int
    cost_units: tuple[int, ...]
    limit_units: int
    weighted_degree: tuple[Rational, ...]
    fallback: tuple[int, ...]


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


def _walk(inst: QkpInstance, units):
    """Prune and fold in one pass over inst.edges.

    Vertices with cost above the limit are dropped, and so is every edge
    whose endpoint costs together exceed it.  Zero-cost vertices are
    folded: their vertex profit accrues to base_profit, and each
    surviving edge profit incident to one moves onto the neighbour's
    vertex profit (onto base_profit when both ends have cost 0).  The
    remaining vertices are relabeled densely, in original order.

    units are inst's costs and then its limit, as to_units scales them.
    Returns cost, vprofit and pairs over the reduced ids, then base_profit,
    always_include, orig_of and the weighted degrees.
    pairs are the (ru, rv, p) edges whose ends' costs fit together, of any
    profit; costs are nonnegative, so both ends are affordable.
    """
    n, limit = inst.n, units[-1]
    zero = [v for v in range(n) if units[v] == 0]
    orig_of = tuple(v for v in range(n) if 0 < units[v] <= limit)
    new_id = [-1] * n
    for r, v in enumerate(orig_of):
        new_id[v] = r
    base_profit: Rational = sum((inst.vprofit[z] for z in zero), 0)
    extra = [0] * len(orig_of)
    wdeg, pairs = [0] * n, []
    for u, v, p in inst.edges:
        wdeg[u] += p
        wdeg[v] += p
        if units[u] + units[v] > limit:
            continue
        ru, rv = new_id[u], new_id[v]
        if ru >= 0 and rv >= 0:
            pairs.append((ru, rv, p))
        elif ru >= 0:
            extra[ru] += p
        elif rv >= 0:
            extra[rv] += p
        else:
            base_profit += p

    vp = inst.vprofit
    # a folded sum of Fractions can be integral: normalise it to an int
    vprofit = tuple(as_rational(vp[v] + x) if x else vp[v] for v, x in zip(orig_of, extra))
    cost = tuple(inst.cost[v] for v in orig_of)
    return cost, vprofit, pairs, base_profit, frozenset(zero), orig_of, tuple(wdeg)


def _fallback(vprofit, pairs, base_profit, always, orig_of):
    """PreparedInstance.fallback.  Reduced ids keep the original order, so
    among equal profits the first vertex, and the smallest pair (ru, rv),
    also lift to the smallest tuples.  The three options are compared on
    their lifted sets, which can order differently from their reduced
    ids: with always-include {3}, (0, 2, 3) < (0, 3) but (0, 2) > (0,)."""
    def lift(*reduced_ids):
        return tuple(sorted(always.union(orig_of[r] for r in reduced_ids)))

    best = (base_profit, lift(), ())
    if vprofit:
        r = max(range(len(vprofit)), key=vprofit.__getitem__)
        if _beats(base_profit + vprofit[r], lift(r), best):
            best = (base_profit + vprofit[r], lift(r), (r,))
    top, pu, pv = -1, 0, 0  # pair profits are nonnegative: the first pair replaces it
    for ru, rv, p in pairs:
        s = vprofit[ru] + vprofit[rv] + p
        if s > top or (s == top and (ru < pu or (ru == pu and rv < pv))):
            top, pu, pv = s, ru, rv
    if top >= 0 and _beats(base_profit + top, lift(pu, pv), best):
        best = (base_profit + top, lift(pu, pv), (pu, pv))
    return best[2]


def _rounded_edges(n: int, edges) -> tuple:
    """Edges with each profit rounded down onto the level ladder
    {2^l, ..., 2^(l-q), 0}, for n vertices.

    2^l is the largest power of two at most the top edge profit and q is
    the smallest integer above 2*log2(n).  Edges rounding to 0, zero-profit
    edges among them, are dropped.  Each distinct profit is rounded once,
    and the edges are rebuilt only when a profit is dropped or moves."""
    values = set(map(itemgetter(2), edges))
    p_star = max(values, default=0)
    if p_star <= 0:
        return ()
    l_exp = floor_log2(p_star)
    q = (n * n).bit_length()  # the smallest integer above log2(n*n)
    level_of = {p: pow2(e) for p in values if p > 0 and (e := floor_log2(p)) >= l_exp - q}
    if len(level_of) < len(values):
        edges = [e for e in edges if e[2] in level_of]
    if any(level != p for p, level in level_of.items()):
        edges = [(u, v, level_of[p]) for u, v, p in edges]
    return tuple(edges)


def prepare(inst: QkpInstance) -> PreparedInstance:
    """Full preparation pipeline: pruning and folding (_walk), then
    edge-profit rounding (_rounded_edges; vertex profits stay untouched).

    The reduced problem takes inst's values, already in canonical form,
    without converting them again.
    """
    units, den = to_units(inst.cost + (inst.limit,))
    cost, vprofit, pairs, base_profit, always, orig_of, wdeg = _walk(inst, units)
    return PreparedInstance(
        cost=cost,
        vprofit=vprofit,
        edges=_rounded_edges(len(cost), pairs),
        limit=inst.limit,
        base_profit=base_profit,
        always_include=always,
        orig_of=orig_of,
        den=den,
        cost_units=tuple(units[v] for v in orig_of),
        limit_units=units[-1],
        weighted_degree=wdeg,
        fallback=_fallback(vprofit, pairs, base_profit, always, orig_of),
    )
