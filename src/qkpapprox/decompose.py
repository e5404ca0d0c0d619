"""Split a prepared instance into the five structured sub-instance classes.

The reduced vertices are grouped into dyadic cost buckets here, by
bucket_costs(prep.reduced), for this split alone.  Every rounded edge is keyed by
(bucket of u, bucket of v, profit level) and lands in exactly one
sub-instance; all vertex profits go to the single class-1 sub-instance.
Classes:

  1: vertex profits only (plain knapsack)
  2: both endpoints in the tail bucket
  3: both endpoints in one non-tail bucket
  4: tail x non-tail (bipartite)
  5: two distinct non-tail buckets (bipartite)

Costs of classes 3-5 are rescaled so the light side lies in (1, 2] (class
4: the tail side lies in (0, 1]); the heavy side of 4/5 lies in (d, 2d]
for a power of two d.  The cost limit is divided by the same scale.

No rescaled cost is stored.  Every sub-instance shares prepare's integer
cost units (cost * den, den the lcm of the denominators of the original
costs and the limit) and the limit in the same units, and records its
scale as cost_scale = 2**scale_exp.  One positive factor, den *
cost_scale, turns units into scaled values, so a subset fits the scaled
limit exactly when its units sum to at most limit_units; the class
solvers add and compare ints.  Scaled values are derived views, and
thresholds come from the integer pair limit_ratio().
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from .instance import QkpInstance
from .preprocess import PreparedInstance
from .rational import Rational, as_rational, ceil_log2, pow2, rational_to_json


class SubInstance(NamedTuple):
    """One class-tagged restricted problem over reduced vertex ids.

    vertices lists all members, sorted, and edges the sorted (u, v) pairs
    with u < v; part_a/part_b are set for the bipartite classes 4 and 5
    (part_a is the lighter side).  Class 1 carries no profits: it is
    solved on the reduced instance's vertex profits.  cost_units (by
    reduced id) and limit_units are prepare's units; v's scaled cost is
    cost_units[v] / (den * cost_scale), cost_scale = 2**scale_exp.
    buckets: (i, i) for classes 2/3, (tail, i) for class 4, and (i, j)
    with i < j for class 5 (part_a lives in bucket j, part_b in i).
    A NamedTuple, so immutable and cheap to build, one per cell.
    """

    class_tag: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cost_units: tuple[int, ...]
    limit_units: int
    den: int
    scale_exp: int = 0
    part_a: Optional[tuple[int, ...]] = None
    part_b: Optional[tuple[int, ...]] = None
    profit_level: Optional[Rational] = None
    buckets: Optional[tuple[int, int]] = None
    d_gap: Optional[int] = None

    @property
    def cost_scale(self) -> Rational:
        return pow2(self.scale_exp)

    def limit_ratio(self) -> tuple[int, int]:
        """Ints (num, den) with num / den == scaled_limit, den > 0."""
        e, units = self.scale_exp, self.limit_units
        return (units, self.den << e) if e >= 0 else (units << -e, self.den)

    @property
    def scaled_limit(self) -> Rational:
        return as_rational(Fraction(*self.limit_ratio()))

    def to_json_obj(self) -> dict:
        return {
            "class": self.class_tag,
            "vertices": list(self.vertices),
            "part_a": list(self.part_a) if self.part_a is not None else None,
            "part_b": list(self.part_b) if self.part_b is not None else None,
            "edge_count": len(self.edges),
            "profit_level": (
                rational_to_json(self.profit_level)
                if self.profit_level is not None
                else None
            ),
            "cost_scale": rational_to_json(self.cost_scale),
            "scaled_limit": rational_to_json(self.scaled_limit),
            "buckets": list(self.buckets) if self.buckets is not None else None,
            "d_gap": rational_to_json(self.d_gap) if self.d_gap is not None else None,
        }


def bucket_costs(inst: QkpInstance) -> tuple[tuple[int, ...], int, int]:
    """Group vertices into dyadic cost buckets V_1..V_{l+1}: the tuple of
    each vertex's bucket, k and l.

    2^k is the smallest power of two at least the top cost and l the
    smallest integer above log2(n); bucket i <= l holds costs in
    (2^(k-i), 2^(k+1-i)] and bucket l+1 the tail (0, 2^(k-l)].  All costs
    must be positive (prepare prunes the zero costs first).
    """
    if inst.n == 0:
        return (), 0, 1
    for v, c in enumerate(inst.cost):
        if c <= 0:
            raise ValueError(f"bucket_costs needs positive costs; vertex {v} has {c}")
    k = ceil_log2(max(inst.cost))
    l = inst.n.bit_length()  # the smallest integer above log2(n)
    return tuple(min(k + 1 - ceil_log2(c), l + 1) for c in inst.cost), k, l


def decompose(prep: PreparedInstance) -> list[SubInstance]:
    """All sub-instances of the prepared instance, class 1 first.

    Only occupied (bucket pair, level) cells produce a sub-instance, so
    the count stays within 2*(log2 n + 1)^3 + 1.  One pass over the
    reduced edges groups them by cell.
    """
    inst = prep.reduced
    bucket, k, l = bucket_costs(inst)
    tail = l + 1
    shared = (prep.cost_units, prep.limit_units, prep.den)

    subs = [SubInstance(1, tuple(range(inst.n)), (), *shared)]

    cells: dict[tuple[int, int, Rational], list[tuple[int, int]]] = {}
    get = cells.get
    for u, v, p in inst.edges:
        bu, bv = bucket[u], bucket[v]
        key = (bu, bv, p) if bu <= bv else (bv, bu, p)
        cell = get(key)
        if cell is None:
            cells[key] = [(u, v)]
        else:
            cell.append((u, v))

    for key in sorted(cells):
        b_lo, b_hi, level = key
        edges = cells[key]
        edges.sort()
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
            part_a = tuple([v for v in members if bucket[v] == b_hi])
            part_b = tuple([v for v in members if bucket[v] == b_lo])
        subs.append(
            SubInstance(
                tag, members, tuple(edges), *shared,
                exp, part_a, part_b, level, buckets, d_gap,
            )
        )
    return subs
