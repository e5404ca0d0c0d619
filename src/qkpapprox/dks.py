"""Densest-k-subgraph backends: the pluggable black box of the pipeline.

A backend maps (unweighted graph, k) to a set of exactly min(k, n)
vertices.  A UGraph holds one representation, neighbour rows: one
ascending tuple of neighbour ids per vertex.  The class solvers build the
rows straight from a sub-instance (UGraph.from_rows), the exact search
turns them into bitmasks, and the greedy peel walks them.

The exact backend is one lexicographic branch and bound that returns the
set plain enumeration in itertools.combinations order would (the first
one with the most edges), on one work budget: it raises
CapacityError once it has pushed more than budget frames, and at once for
a graph above max_n vertices with more than budget k-subsets.  It pushes
at most C(n - 2, k - 2) - 1 frames, fewer than the C(n, k) subsets, so a
graph with at most budget k-subsets always completes.  The search prunes
with _completion_bound: each of the t vertices still to pick adds its
edges into the chosen set plus at most min(t - 1, its degree into the
candidates) edges among the picks, each counted at both ends.  It is
valid, so it skips only prefixes that cannot beat the best, and it is
never looser than assuming all C(t, 2) pairs among the picks are edges.
When a child is pruned, the same bound over the whole rest of its frame
is tried, and if it cannot beat the best the frame ends at once.  Every
sibling it skips would have been pruned or could not have won, so the
walk pushes the same frames and the budget trips at the same push.
The greedy backend peels minimum-degree vertices and never fails.
"""

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import CapacityError
from .rational import Rational, as_rational, non_negative_int

DEFAULT_EXACT_MAX_N = 25
DEFAULT_BUDGET = 60_000


@dataclass(frozen=True, init=False)
class UGraph:
    """Undirected unweighted graph on vertices 0..n-1, held as neighbour
    rows: nbrs[v] is the ascending tuple of v's neighbours, and n, the
    vertex count, is the number of rows.

    UGraph(n, edges) checks its input: n and every endpoint must be a
    non-negative int (bool excluded), endpoints below n and no self-loops.
    Repeated edges, in either orientation, are kept once.
    """

    nbrs: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges):
        rows = [set() for _ in range(non_negative_int(n, "n"))]
        for u, v in edges:
            if (type(u) is not int or type(v) is not int or u == v
                    or not (0 <= u < n and 0 <= v < n)):
                raise ValueError(f"bad edge ({u!r},{v!r}) for n={n}")
            rows[u].add(v)
            rows[v].add(u)
        object.__setattr__(self, "nbrs", tuple(tuple(sorted(row)) for row in rows))

    @classmethod
    def from_rows(cls, nbrs: tuple[tuple[int, ...], ...]) -> "UGraph":
        """A graph from rows already canonical: each ascending, without
        repeats or v itself, u in nbrs[v] exactly when v is in nbrs[u].
        Nothing is checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "nbrs", nbrs)
        return graph

    @property
    def n(self) -> int:
        return len(self.nbrs)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (u, v) with u < v, sorted."""
        return tuple((u, v) for u, row in enumerate(self.nbrs) for v in row if u < v)


@dataclass(frozen=True)
class DksBackend:
    """A DkS solver plus the approximation-ratio exponent it claims.

    declared_alpha is a declaration, not a checked ratio.  It only chooses
    solve_class5's case: degree selection or replication into one DkS call.
    """

    name: str
    declared_alpha: Rational
    solver: Callable[[UGraph, int], tuple[int, ...]] = field(compare=False)

    def __post_init__(self):
        alpha = as_rational(self.declared_alpha)
        if not 0 <= alpha < 1:
            raise ValueError(f"declared_alpha must be in [0, 1), got {alpha}")
        object.__setattr__(self, "declared_alpha", alpha)


def solve_dks(graph: UGraph, k: int, backend: DksBackend) -> tuple[int, ...]:
    """Exactly min(k, n) distinct vertices chosen by the backend, sorted
    (else RuntimeError: also for an id that is not an int); deterministic."""
    k_eff = min(non_negative_int(k, "k"), graph.n)
    if k_eff == 0:
        return ()
    if k_eff == graph.n:
        return tuple(range(graph.n))
    chosen = tuple(backend.solver(graph, k_eff))
    # a float, bool, None or str id is no vertex: it passes the range test or fails the sort
    if all(type(v) is int for v in chosen):
        chosen = tuple(sorted(chosen))
        if len(set(chosen)) == len(chosen) == k_eff and 0 <= chosen[0] and chosen[-1] < graph.n:
            return chosen
    raise RuntimeError(
        f"backend {backend.name} returned {chosen}, wanted {k_eff}"
        f" distinct vertices of 0..{graph.n - 1}"
    )


def _neighbor_masks(graph: UGraph) -> list[int]:
    """Bit v of masks[u] is set when u and v are adjacent."""
    masks = []
    for row in graph.nbrs:
        mask = 0
        for v in row:
            mask |= 1 << v
        masks.append(mask)
    return masks


def _completion_bound(cand_masks, cand_bits: int, mask: int, t: int) -> int:
    """Most edges that t more vertices, drawn from cand_masks, can add to
    the set with vertex bitmask mask; cand_bits is the candidates' own
    vertex bitmask.

    A pick u adds its gain g_u into the set and at most min(t - 1, c_u)
    edges to the other picks, c_u its degree into the candidates; each of
    those edges is counted at both ends.  So the bound is half the sum of
    the t largest 2 g_u + min(t - 1, c_u), floored.  It is valid: the t
    picks T add sum g_u + 1/2 sum deg_T(u) edges, and deg_T(u) <=
    min(t - 1, c_u).  It is never looser than C(t, 2) plus the t largest
    gains, since the t largest of a sum are at most the t largest of each
    part, and each cap is at most t - 1.
    """
    cap = t - 1
    scores = []
    for m in cand_masks:
        d = (m & cand_bits).bit_count()
        scores.append(2 * (m & mask).bit_count() + (d if d < cap else cap))
    scores.sort(reverse=True)
    return sum(scores[:t]) // 2


def _lex_first_densest(masks: list[int], k: int, budget: int) -> tuple[int, ...]:
    """The first k-subset, in itertools.combinations order, with the most
    induced edges; 1 <= k < len(masks).  CapacityError once more than
    budget frames are pushed.

    A depth-first walk over prefixes in that order, with an explicit stack
    so its depth does not grow with k.  Each frame holds the next vertex to
    try and the prefix's vertex bitmask and induced edge count.  The best
    is replaced only on a strict gain.  A child prefix is skipped when its
    edges plus _completion_bound, over the vertices after it, cannot beat
    the best.  That bound is valid, so the first maximum's prefixes all
    bound above the best until it is reached, and skipping never changes
    the result.  Until the first complete subset is scored there is no
    best to beat, so the first descent computes no bound.  The bound is
    never looser than C(t, 2) plus the t largest gains, so the walk
    visits a subset of the prefixes that bound would.  A child
    with one vertex left to pick is a flat loop, and a child with exactly
    as many later vertices as it still needs has one completion, scored
    directly; neither is bounded, since the bound would cost what scoring
    does.

    The frame cut: when child v of prefix P (edges induced, t slots left)
    is pruned, edges + CB(after v, P, t) bounds every later sibling, CB
    being _completion_bound over the vertices after v.  If it cannot beat
    the best, the frame ends.  Let s_u = 2 g_u + min(t - 1, c_u) be the
    frame's scores and s'_u the child scores of a later sibling w, with
    g_u the gain into P and a(u, w) the adjacency.  Then s'_u <= s_u +
    a(u, w): an edge to w adds 2 to u's gain and takes w out of u's capped
    degree.  Over the t - 1 picks the a(u, w) sum to at most
    min(t - 1, c_w), so 2 g_w plus the t - 1 largest s' is at most s_w
    plus the t - 1 largest s after w, at most the t largest s after v.
    The floors keep the inequality, so the child bound
    g_w + CB(after w, P + w, t - 1) is at most CB(after v, P, t).  The
    sibling w = n - t, scored directly, adds no more than that child bound.
    Every skipped sibling would thus have been pruned, or scored without a
    strict gain, so the cut pushes exactly the frames the uncut walk does,
    the budget trips at the same push, and the result is the same.

    Only the other children are pushed, each at most once.  Such a child
    holds j <= k - 2 vertices, the last below n - k + j - 1, so there are
    at most sum_{j=1}^{k-2} C(n - k - 1 + j, j) = C(n - 2, k - 2) - 1
    pushes, by the hockey-stick identity.
    """
    if k == 1:
        return (0,)  # no single vertex induces an edge
    n = len(masks)
    best_edges = -1
    best: tuple[int, ...] = ()
    prefix: list[int] = []
    frames = [[0, 0, 0]]  # per depth: next vertex, prefix mask, prefix edges
    pushes = 0
    while frames:
        frame = frames[-1]
        v, mask, edges = frame
        t = k - len(prefix)  # vertices still to pick, v's slot included
        if v > n - t:
            frames.pop()
            if prefix:
                prefix.pop()
            continue
        frame[0] = v + 1
        child_mask = mask | (1 << v)
        child_edges = edges + (masks[v] & mask).bit_count()
        if t == 2:
            for u in range(v + 1, n):
                e = child_edges + (masks[u] & child_mask).bit_count()
                if e > best_edges:
                    best_edges = e
                    best = (*prefix, v, u)
        elif v == n - t:
            for u in range(v + 1, n):
                child_edges += (masks[u] & child_mask).bit_count()
                child_mask |= 1 << u
            if child_edges > best_edges:
                best_edges = child_edges
                best = (*prefix, *range(v, n))
        else:
            later = masks[v + 1:]
            later_bits = (1 << n) - (2 << v)  # the bits of v + 1..n - 1
            if best_edges < 0 or (  # nothing to beat on the first descent
                child_edges
                + _completion_bound(later, later_bits, child_mask, t - 1)
                > best_edges
            ):
                pushes += 1
                if pushes > budget:
                    raise CapacityError(f"exact DkS budget {budget} exceeded")
                prefix.append(v)
                frames.append([v + 1, child_mask, child_edges])
            elif (
                edges + _completion_bound(later, later_bits, mask, t)
                <= best_edges
            ):
                frame[0] = n  # no later sibling can beat the best: pop
    return best


def dks_exact(
    graph: UGraph,
    k: int,
    max_n: int = DEFAULT_EXACT_MAX_N,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """The first k-subset, in itertools.combinations order, with the most
    induced edges, or CapacityError past the budget.

    A graph above max_n vertices with more than budget k-subsets raises at
    once.  Every other graph runs _lex_first_densest, which raises once it
    has pushed more than budget frames.  It pushes at most
    C(n - 2, k - 2) - 1 < C(n, k), so a graph with at most budget
    k-subsets always completes.  k, max_n and budget must be non-negative
    ints (bool excluded), else ValueError.
    """
    k_eff = min(non_negative_int(k, "k"), graph.n)
    non_negative_int(max_n, "max_n")
    non_negative_int(budget, "budget")
    if k_eff == 0:
        return ()
    if k_eff == graph.n:
        return tuple(range(graph.n))
    if graph.n > max_n and math.comb(graph.n, k_eff) > budget:
        raise CapacityError(
            f"exact DkS limited to n <= {max_n} or C(n, k) <= {budget},"
            f" got n = {graph.n}, k = {k_eff}"
        )
    return _lex_first_densest(_neighbor_masks(graph), k_eff, budget)


def dks_greedy_peel(graph: UGraph, k: int) -> tuple[int, ...]:
    """Peel minimum-degree vertices (ties: smallest id) down to min(k, n).

    A heap of (degree, id) entries, one pushed per degree drop; an entry
    whose degree is no longer the vertex's, or whose vertex is peeled, is
    skipped.  Pops follow the entries' order alone, so the result does not
    depend on the order of the rows.
    """
    n = graph.n
    k_eff = min(non_negative_int(k, "k"), n)
    if k_eff == n:
        return tuple(range(n))
    nbrs = graph.nbrs
    deg = list(map(len, nbrs))
    live = [True] * n
    heap = list(zip(deg, range(n)))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    for _ in range(n - k_eff):
        d, v = pop(heap)
        while not live[v] or d != deg[v]:
            d, v = pop(heap)
        live[v] = False
        for u in nbrs[v]:
            if live[u]:
                deg[u] -= 1
                push(heap, (deg[u], u))
    return tuple(v for v in range(n) if live[v])


EXACT_BACKEND = DksBackend("exact", 0, dks_exact)
# alpha = 1/2 is declared, not proven: min-degree peeling is only known to
# be within an O(n/k)-type factor of the densest k-subgraph (Asahiro,
# Iwama, Tamaki & Tokuyama 2000; Feige, Kortsarz & Peleg 2001).  The value
# only steers solve_class5's case choice (see DksBackend).
GREEDY_BACKEND = DksBackend("greedy", Fraction(1, 2), dks_greedy_peel)

_BACKENDS = {"exact": EXACT_BACKEND, "greedy": GREEDY_BACKEND}


def get_backend(name: str) -> DksBackend:
    try:
        return _BACKENDS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(
            f"unknown DkS backend {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None
