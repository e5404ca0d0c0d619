"""Random instance generation for benchmarks and tests."""

import random
from fractions import Fraction

from .instance import QkpInstance
from .rational import as_rational


def random_instance(
    n: int,
    density: float,
    max_cost: int = 20,
    max_profit: int = 20,
    limit_frac="1/2",
    seed=None,
) -> QkpInstance:
    """Deterministic random instance for a fixed seed.

    Integer costs in [0, max_cost] (zero-cost vertices exercise the fold),
    vertex profits in [0, max_profit], and each vertex pair gets an edge
    with probability `density` carrying an integer profit in
    [0, max_profit].  The limit is limit_frac times the total cost, kept
    exact.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if max_cost < 1 or max_profit < 0:
        raise ValueError("max_cost must be >= 1 and max_profit >= 0")
    frac = Fraction(as_rational(limit_frac))
    if frac < 0:
        raise ValueError(f"limit_frac must be nonnegative, got {limit_frac}")
    rng = random.Random(seed)
    costs = tuple(rng.randint(0, max_cost) for _ in range(n))
    vprofits = tuple(rng.randint(0, max_profit) for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(0, max_profit)))
    limit = as_rational(frac * sum(costs))
    return QkpInstance(
        n=n, cost=costs, vprofit=vprofits, edges=tuple(edges), limit=limit
    )
