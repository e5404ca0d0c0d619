"""Seeded instance sets for the benchmark workloads.

Each workload is a fixed list of QKP instances built from the benchmark
seed alone, plus the DkS backend the solver runs with.  The solver only
ever receives the generated instances.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from qkpapprox import QkpInstance, random_instance


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    build: Callable[[int], list]
    oracle: bool  # exact_qkp references are computed in set-up


RANDOM_LARGE_N = 100
RANDOM_LARGE_COUNT = 32


def random_large(seed: int) -> list:
    """The random_instance family at n=100, greedy backend.

    Knapsack-bound: the class-1 FPTAS over all vertices dominates.  Only
    draws whose limit (half the total cost) is half-integral are kept, so
    the knapsack compares every state cost against a Fraction capacity,
    which is about 1.4x slower than an integral one.  Leaving the parity
    to the draw would make the pass time swing with it instead of with
    the solver.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < RANDOM_LARGE_COUNT:
        inst = random_instance(
            RANDOM_LARGE_N, 0.1, 1000, 1000, "1/2", seed=rng.randrange(2**32)
        )
        if isinstance(inst.limit, Fraction):
            out.append(inst)
    return out


# (count, lowest cost, highest cost) per group: three dyadic buckets
# (512,1024], (256,512], (128,256] and a tail of costs <= 8.  With the
# limit 6400 the top bucket's class-3 sub-instances stay small enough for
# exact DkS, the two lower buckets' exceed its size guard (capacity
# fallback to greedy), and the (1,2) bucket pair has more light vertices
# than its scaled limit, so class 5 takes the replication case.
BUCKET_GROUPS = ((20, 513, 1024), (32, 257, 512), (44, 129, 256), (24, 1, 8))
BUCKET_EDGE_PROFITS = (1, 2, 4, 8, 16)
BUCKETED_COUNT = 36


def bucketed_instance(rng: random.Random) -> QkpInstance:
    costs = [rng.randint(lo, hi) for count, lo, hi in BUCKET_GROUPS for _ in range(count)]
    n = len(costs)
    edges = [
        (u, v, rng.choice(BUCKET_EDGE_PROFITS))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.5
    ]
    return QkpInstance(n=n, cost=tuple(costs), vprofit=(0,) * n, edges=tuple(edges), limit=6400)


def bucketed_exact(seed: int) -> list:
    """Crafted dyadic-bucket instances reaching classes 2-5, exact backend."""
    rng = random.Random(seed)
    return [bucketed_instance(rng) for _ in range(BUCKETED_COUNT)]


ORACLE_COUNT = 200


def oracle_small(seed: int) -> list:
    """Small random instances that the exact oracle can solve."""
    rng = random.Random(seed)
    return [
        random_instance(rng.randint(12, 20), 0.5, 20, 20, "1/2", seed=rng.randrange(2**32))
        for _ in range(ORACLE_COUNT)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-large", "greedy", random_large, oracle=False),
        Workload("bucketed-exact", "exact", bucketed_exact, oracle=False),
        Workload("oracle-small", "exact", oracle_small, oracle=True),
    )
}
