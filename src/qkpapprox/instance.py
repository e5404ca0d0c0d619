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

from .errors import InvalidInstanceError
from .rational import Rational, as_rational, rational_to_json

Edge = tuple[int, int, Rational]


@dataclass(frozen=True)
class QkpInstance:
    """A QKP instance: vertex costs/profits, weighted edges, cost limit.

    Valid by construction: the constructor stores exact rationals and
    edges with u < v, and raises InvalidInstanceError (a ValueError) unless
    there are n costs and profits, all nonnegative as is the limit, and the
    edges form a simple graph on the int ids 0..n-1.  Instances are immutable.
    """

    n: int
    cost: tuple[Rational, ...]
    vprofit: tuple[Rational, ...]
    edges: tuple[Edge, ...]
    limit: Rational

    def __post_init__(self):
        n = self.n
        if type(n) is not int:
            raise InvalidInstanceError(f"invalid instance: expected an integer n, got {n!r}")
        cost = tuple(c if type(c) is int else as_rational(c) for c in self.cost)
        vprofit = tuple(p if type(p) is int else as_rational(p) for p in self.vprofit)
        limit = as_rational(self.limit)
        problems = []
        if n < 0:
            problems.append(f"negative vertex count {n}")
        if len(cost) != n:
            problems.append(f"expected {n} costs, got {len(cost)}")
        if len(vprofit) != n:
            problems.append(f"expected {n} vertex profits, got {len(vprofit)}")
        problems += [f"negative cost at vertex {i}" for i, c in enumerate(cost) if c < 0]
        problems += [f"negative vertex profit at vertex {i}"
                     for i, p in enumerate(vprofit) if p < 0]
        if limit < 0:
            problems.append("negative cost limit")
        edges = []
        seen = set()  # u * n + v of each in-range edge: one int per pair
        for u, v, p in self.edges:
            if type(p) is not int:
                p = as_rational(p)
            if type(u) is not int or type(v) is not int:
                problems.append(f"edge ({u!r},{v!r}): expected an integer endpoint")
                continue
            if v < u:
                u, v = v, u
            if not 0 <= u < v < n:
                problems.append(f"self-loop at vertex {u}" if u == v else
                                f"edge ({u},{v}) has an out-of-range endpoint")
                continue
            key = u * n + v
            if key in seen:
                problems.append(f"duplicate edge ({u},{v})")
            seen.add(key)
            if p < 0:
                problems.append(f"negative profit on edge ({u},{v})")
            edges.append((u, v, p))
        if problems:
            raise InvalidInstanceError("invalid instance: " + "; ".join(problems))
        # frozen: the fields are set through the instance dict
        vars(self).update(cost=cost, vprofit=vprofit, edges=tuple(edges), limit=limit, _rows=None)

    @classmethod
    def from_canonical(cls, n, cost, vprofit, edges, limit) -> "QkpInstance":
        """An instance from fields already in the form __post_init__ leaves
        them: tuples of ints and non-integral Fractions, edges with u < v.

        The only path that skips the constructor's check, so only for data
        derived from a checked instance (prepare's reduced instance is).
        """
        inst = object.__new__(cls)
        vars(inst).update(n=n, cost=cost, vprofit=vprofit, edges=edges, limit=limit, _rows=None)
        return inst

    def higher_neighbours(self) -> tuple[tuple[tuple[int, Rational], ...], ...]:
        """Row u holds (v, p) for each edge (u, v, p) in edge order: each
        edge is stored once, at its lower endpoint.  Built on first use."""
        if self._rows is None:
            rows = [[] for _ in range(self.n)]
            for u, v, p in self.edges:
                rows[u].append((v, p))
            object.__setattr__(self, "_rows", tuple(map(tuple, rows)))
        return self._rows


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
    Each edge is visited once, from its lower endpoint's row.
    """
    chosen = frozenset(subset)
    for v in chosen:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < inst.n:
            raise ValueError(f"invalid vertex id {v!r} for instance with n={inst.n}")
    cost = sum((inst.cost[v] for v in chosen), 0)
    profit = sum((inst.vprofit[v] for v in chosen), 0)
    rows = inst.higher_neighbours()
    for u in chosen:
        for v, p in rows[u]:
            if v in chosen:
                profit += p
    return cost, profit


def instance_to_json_obj(inst: QkpInstance) -> dict:
    return {
        "n": inst.n,
        "limit": rational_to_json(inst.limit),
        "costs": [rational_to_json(c) for c in inst.cost],
        "vertex_profits": [rational_to_json(p) for p in inst.vprofit],
        "edges": [[u, v, rational_to_json(p)] for u, v, p in inst.edges],
    }


def _array(value, what: str, size: int | None = None) -> list:
    """value, when it is a JSON array (of size entries, if given)."""
    if type(value) is not list or (size is not None and len(value) != size):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def instance_from_json_obj(obj: dict) -> QkpInstance:
    """ValueError on a malformed document, InvalidInstanceError on an invalid instance."""
    try:
        edges = (_array(e, "an edge [u, v, profit]", 3)
                 for e in _array(obj["edges"], "an edge array"))
        fields = dict(
            n=obj["n"],
            cost=tuple(as_rational(c) for c in _array(obj["costs"], "a cost array")),
            vprofit=tuple(as_rational(p) for p in
                          _array(obj["vertex_profits"], "a vertex profit array")),
            edges=tuple((u, v, as_rational(p)) for u, v, p in edges),
            limit=as_rational(obj["limit"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    return QkpInstance(**fields)


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, one trailing \\n."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_instance(path: str) -> QkpInstance:
    """Read an instance JSON file; decimal literals parse exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh, parse_float=Fraction)
    return instance_from_json_obj(obj)
