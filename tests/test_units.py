"""Integer cost units: exact against the rational definitions they replace."""

import hashlib
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rational_cost_instance, scaled_cost
from qkpapprox.classsolvers import _case1_applies, _limit_over
from qkpapprox.decompose import decompose
from qkpapprox.instance import QkpInstance, dumps_canonical
from qkpapprox.orchestrator import SolveConfig, solve
from qkpapprox.preprocess import prepare
from qkpapprox.rational import pow2

ALPHAS = (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def cost_values(den: int):
    """Costs on and next to powers of two, below 1, and general p/den."""
    return st.one_of(
        st.integers(-3, 5).map(pow2),
        st.tuples(st.integers(0, 5), st.sampled_from((-1, 1))).map(
            lambda t: pow2(t[0]) + Fraction(t[1], den)
        ),
        st.integers(1, den - 1).map(lambda k: Fraction(k, den)),
        st.integers(1, 64 * den).map(lambda k: Fraction(k, den)),
    )


@st.composite
def rational_instances(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    den = draw(st.sampled_from((2, 3, 7)))
    # dividing everything by 64 puts the top cost below 1 (negative scales)
    shrink = draw(st.sampled_from((1, 1, 64)))
    costs = tuple(Fraction(draw(cost_values(den))) / shrink for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v, draw(st.integers(1, 40))))
    limit_den = draw(st.sampled_from((1, 2, 3, 7)))
    limit = Fraction(draw(st.integers(1, 80 * limit_den)), limit_den) / shrink
    return QkpInstance(n=n, cost=costs, vprofit=(0,) * n, edges=tuple(edges), limit=limit)


@given(rational_instances())
@settings(max_examples=150, deadline=None)
def test_units_match_their_fraction_definitions(inst):
    prep = prepare(inst)
    red = prep.reduced
    assert prep.limit_units == red.limit * prep.den
    assert all(prep.cost_units[r] == inst.cost[v] * prep.den for r, v in enumerate(prep.orig_of))
    assert all(u == c * prep.den for u, c in zip(prep.cost_units, red.cost))
    assert all(isinstance(u, int) for u in prep.cost_units + (prep.limit_units,))
    for sub in decompose(prep):
        scale = Fraction(sub.cost_scale)
        limit = Fraction(red.limit) / scale
        assert sub.scaled_limit == limit
        num, den = sub.limit_ratio()
        assert den > 0 and Fraction(num, den) == limit
        for v in sub.vertices:
            assert scaled_cost(sub, v) == Fraction(red.cost[v]) / scale
        # a units sum fits limit_units exactly when the scaled sum fits
        members = list(sub.vertices)
        for r in range(len(members) + 1):
            fits = sum(sub.cost_units[v] for v in members[:r]) <= sub.limit_units
            scaled = sum((Fraction(scaled_cost(sub, v)) for v in members[:r]), Fraction(0))
            assert fits == (scaled <= limit)
        divisors = {1, 2, 4}
        if sub.d_gap is not None:
            divisors |= {sub.d_gap, 4 * sub.d_gap, 8 * sub.d_gap}
        for x in divisors:
            assert _limit_over(sub, x) == math.floor(limit / x)
        for alpha in ALPHAS:
            p, q = Fraction(alpha).numerator, Fraction(alpha).denominator
            edge = int(float(limit) ** ((q + p) / (q - p)))
            for n_a in {0, 1, max(0, edge - 1), edge, edge + 1, math.floor(limit) + 1}:
                expected = Fraction(n_a) ** (q - p) <= limit ** (q + p)
                assert _case1_applies(sub, n_a, alpha) == expected


# solve() on rational_cost_instance(seed), seed 0..29 (exact backend on odd
# seeds, greedy on even), recorded before costs became integer units
GOLDEN_VERTICES = [
    (5, 6, 9, 10, 11, 13, 14, 15, 16, 17),
    (0, 2, 3, 5, 8, 9),
    (0, 6),
    (0,),
    (3, 7),
    (1, 3, 4, 7, 8, 9, 10, 12, 13),
    (0, 1, 4, 6, 9, 11, 12, 13, 15, 17, 18, 20, 22),
    (0, 2, 5, 7, 9, 11, 12, 13, 15),
    (1, 4),
    (0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 17, 18, 19),
    (0, 1, 2, 4, 6, 8, 10, 16, 18, 20, 22),
    (0, 4, 5, 9, 10, 11, 14, 18, 19),
    (1, 5, 7, 8, 9, 10, 11, 13, 14, 15, 17),
    (1, 5, 6, 7, 8, 10, 11),
    (1, 2),
    (0, 10),
    (1, 2, 3, 4, 6, 7, 9, 13, 15, 16),
    (0, 1, 2, 3, 5, 8, 9, 11, 13, 17, 18, 19, 20, 21),
    (0, 5, 6),
    (1, 3, 4, 6),
    (6, 7, 8),
    (0, 5, 10),
    (1, 3, 4, 5, 9),
    (0, 1, 3, 5, 7, 9, 11),
    (0, 1, 2, 16),
    (1, 3, 4, 5, 7, 9, 10, 12, 14, 15, 16, 17),
    (0, 1, 5, 7, 10),
    (0, 1, 3, 4, 6, 11, 13, 14, 15, 18),
    (1, 3, 4, 5, 6, 7, 8),
    (0, 1, 2, 3, 4, 5, 9, 10, 14, 16, 19, 21, 22),
]
# sha256 over each solve's report (every candidate's case, cost and profit)
# and its decomposition dump, recorded with GOLDEN_VERTICES
GOLDEN_DIGEST = "a850cec14c2d204f66ad4fb960663741bcdef881eb6f7c938606520552dae1dc"


def test_rational_cost_solves_match_recorded_results():
    digest = hashlib.sha256()
    for seed, expected in enumerate(GOLDEN_VERTICES):
        inst = rational_cost_instance(seed)
        cfg = SolveConfig(dks_backend="exact" if seed % 2 else "greedy")
        solution, report = solve(inst, cfg)
        assert solution.vertices == expected, seed
        digest.update(dumps_canonical(report.to_json_obj()).encode())
        dump = [sub.to_json_obj() for sub in decompose(prepare(inst))]
        digest.update(dumps_canonical(dump).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
