"""Quadratic knapsack instances and solutions.

An instance is a graph with vertex costs, vertex profits (the diagonal
terms) and nonnegative edge profits, plus a cost limit.  A solution is a
vertex subset; its profit is the sum of vertex profits and induced-edge
profits.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rational import Rational, as_rational, rational_from_json, rational_to_json

Edge = tuple[int, int, Rational]


@dataclass(frozen=True)
class QkpInstance:
    """A QKP instance: vertex costs/profits, weighted edges, cost limit.

    Edges are stored with u < v; there are no self-loops or duplicates in a
    valid instance (see validate).  Instances are immutable.
    """

    n: int
    cost: tuple[Rational, ...]
    vprofit: tuple[Rational, ...]
    edges: tuple[Edge, ...]
    limit: Rational

    def __post_init__(self):
        object.__setattr__(self, "cost", tuple(as_rational(c) for c in self.cost))
        object.__setattr__(self, "vprofit", tuple(as_rational(p) for p in self.vprofit))
        canon = []
        for u, v, p in self.edges:
            if v < u:
                u, v = v, u
            canon.append((u, v, as_rational(p)))
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "limit", as_rational(self.limit))
        object.__setattr__(self, "_adj", None)

    @classmethod
    def from_canonical(cls, n, cost, vprofit, edges, limit) -> "QkpInstance":
        """An instance from fields already in the form __post_init__ leaves
        them: tuples of ints and non-integral Fractions, edges with u < v.

        Nothing is checked or converted, so the data must come from a
        valid instance (prepare's reduced instance does).
        """
        inst = object.__new__(cls)
        for name, value in (
            ("n", n), ("cost", cost), ("vprofit", vprofit), ("edges", edges),
            ("limit", limit), ("_adj", None),
        ):
            object.__setattr__(inst, name, value)
        return inst

    def adjacency(self) -> tuple[tuple[tuple[int, Rational], ...], ...]:
        """Per-vertex sorted (neighbor, edge profit) lists; O(deg) queries."""
        if self._adj is None:
            nbrs: list[list[tuple[int, Rational]]] = [[] for _ in range(self.n)]
            for u, v, p in self.edges:
                if 0 <= u < self.n and 0 <= v < self.n and u != v:
                    nbrs[u].append((v, p))
                    nbrs[v].append((u, p))
            object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in nbrs))
        return self._adj


@dataclass(frozen=True)
class Solution:
    """A vertex subset with its cost and profit on the owning instance."""

    vertices: tuple[int, ...]
    total_cost: Rational
    total_profit: Rational

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "cost": rational_to_json(self.total_cost),
            "profit": rational_to_json(self.total_profit),
        }


def evaluate(inst: QkpInstance, subset: Iterable[int]) -> tuple[Rational, Rational]:
    """Cost and profit of the induced subgraph on `subset`.

    Profit is the sum of vertex profits plus profits of edges with both
    endpoints selected.  Raises ValueError on an invalid vertex id.
    Each edge is visited from its lower endpoint only: the sorted
    adjacency row is read from its largest neighbour down, to the first
    one below the vertex.
    """
    chosen = frozenset(subset)
    for v in chosen:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < inst.n:
            raise ValueError(f"invalid vertex id {v!r} for instance with n={inst.n}")
    cost = sum((inst.cost[v] for v in chosen), 0)
    profit = sum((inst.vprofit[v] for v in chosen), 0)
    adj = inst.adjacency()
    for u in chosen:
        for v, p in reversed(adj[u]):
            if v < u:
                break
            if v in chosen:
                profit += p
    return cost, profit


def validate(inst: QkpInstance) -> list[str]:
    """All invariant violations of the instance; empty list means ok."""
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
    n = inst.n
    seen = set()  # u * n + v of each in-range edge: one int per ordered pair
    for u, v, p in inst.edges:
        if not (0 <= u < v < n or 0 <= v < u < n):
            problems.append(f"self-loop at vertex {u}" if u == v else
                            f"edge ({u},{v}) has an out-of-range endpoint")
            continue
        key = u * n + v
        if key in seen:
            problems.append(f"duplicate edge ({u},{v})")
        seen.add(key)
        if p < 0:
            problems.append(f"negative profit on edge ({u},{v})")
    return problems


def instance_to_json_obj(inst: QkpInstance) -> dict:
    return {
        "n": inst.n,
        "limit": rational_to_json(inst.limit),
        "costs": [rational_to_json(c) for c in inst.cost],
        "vertex_profits": [rational_to_json(p) for p in inst.vprofit],
        "edges": [[u, v, rational_to_json(p)] for u, v, p in inst.edges],
    }


def _json_int(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def instance_from_json_obj(obj: dict) -> QkpInstance:
    try:
        return QkpInstance(
            n=_json_int(obj["n"]),
            cost=tuple(rational_from_json(c) for c in obj["costs"]),
            vprofit=tuple(rational_from_json(p) for p in obj["vertex_profits"]),
            edges=tuple(
                (_json_int(e[0]), _json_int(e[1]), rational_from_json(e[2]))
                for e in obj["edges"]
            ),
            limit=rational_from_json(obj["limit"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, one trailing \\n."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_instance(path: str) -> QkpInstance:
    """Read an instance JSON file; decimal literals parse exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh, parse_float=Fraction)
    return instance_from_json_obj(obj)
