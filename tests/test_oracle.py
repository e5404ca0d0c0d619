"""Exact oracle behaviour and guards."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_opt, reference_exact_qkp
from qkpapprox import random_instance
from qkpapprox.errors import CapacityError
from qkpapprox.instance import QkpInstance
from qkpapprox.oracle import _greedy_profit, exact_qkp


def test_triangle_limit_two():
    inst = QkpInstance(
        n=3, cost=(1, 1, 1), vprofit=(0, 0, 0),
        edges=((0, 1, 1), (1, 2, 1), (0, 2, 1)), limit=2,
    )
    assert exact_qkp(inst).total_profit == 1


def test_zero_limit_zero_cost_vertex():
    inst = QkpInstance(n=2, cost=(0, 3), vprofit=(5, 9), edges=(), limit=0)
    sol = exact_qkp(inst)
    assert sol.total_profit == 5
    assert sol.vertices == (0,)


def test_all_zero_profits():
    inst = QkpInstance(n=3, cost=(1, 1, 1), vprofit=(0, 0, 0), edges=(), limit=2)
    assert exact_qkp(inst).total_profit == 0


def test_matches_brute_force_enumeration():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 12)
        inst = QkpInstance(
            n=n,
            cost=tuple(rng.randint(0, 9) for _ in range(n)),
            vprofit=tuple(rng.randint(0, 9) for _ in range(n)),
            edges=tuple(
                (u, v, rng.randint(0, 9))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ),
            limit=rng.randint(0, 30),
        )
        expected, _ = brute_force_opt(inst)
        sol = exact_qkp(inst)
        assert sol.total_profit == expected
        assert sol.total_cost <= inst.limit


@pytest.mark.parametrize("seed", range(6))
def test_tighter_bound_keeps_the_first_optimum(seed):
    # the bound drops edges to excluded vertices; on instances with many
    # tied optima (profits up to 2) and without, the set is the one the
    # looser bound returns
    rng = random.Random(seed)
    for n in range(12, 17):
        for max_profit in (2, 20):
            inst = random_instance(
                n,
                rng.choice([0.2, 0.5, 0.9]),
                rng.choice([1, 5, 20]),
                max_profit,
                rng.choice(["1/4", "1/2", "2/3"]),
                seed=rng.randrange(2**32),
            )
            assert exact_qkp(inst) == reference_exact_qkp(inst)


def test_greedy_start_keeps_the_first_optimum_on_a_tie():
    # the greedy fill takes vertex 2 (the one positive marginal profit),
    # then 3: {2, 3} at profit 6.  {0, 1} ties it and comes first in DFS
    # order, so the walk must return {0, 1}, as a walk from 0 does, not
    # the greedy set or no set
    inst = QkpInstance(
        n=4, cost=(1, 1, 1, 1), vprofit=(0, 0, 1, 0),
        edges=((0, 1, 6), (2, 3, 5)), limit=2,
    )
    assert _greedy_profit([1, 1, 1, 1], 2, [0, 0, 1, 0], [[(1, 6)], [], [(3, 5)], []]) == 6
    sol = exact_qkp(inst)
    ref = reference_exact_qkp(inst)
    assert sol == ref
    assert repr(sol) == repr(ref)
    assert sol.vertices == (0, 1)


def _rationals(max_value):
    return st.one_of(
        st.integers(0, max_value),
        st.fractions(0, max_value, max_denominator=6),
    )


@st.composite
def oracle_data(draw):
    """(n, costs, vertex profits, edges): int and Fraction values, zero
    costs and zero-profit edges, and profits from a small palette, so that
    tied optima are common."""
    n = draw(st.integers(0, 12))
    palette = draw(st.lists(_rationals(9), min_size=1, max_size=5))
    profits = st.sampled_from(palette)
    cost = [draw(_rationals(9)) for _ in range(n)]
    vprofit = [draw(profits) for _ in range(n)]
    edges = tuple(
        (u, v, draw(profits))
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    )
    return n, cost, vprofit, edges


@given(oracle_data(), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_same_optimum_and_tuple_as_the_reference(data, brute_k):
    # any valid bound keeps the first optimum in DFS order, so the
    # upper-plane bound must return the reference's set, cost and profit;
    # each draw is solved at limits from 0 to above the total cost, and
    # enumerated at one of them
    n, cost, vprofit, edges = data
    total = sum(cost, Fraction(0))
    for k in range(10):
        inst = QkpInstance(
            n=n, cost=cost, vprofit=vprofit, edges=edges, limit=total * k / 8
        )
        sol = exact_qkp(inst)
        ref = reference_exact_qkp(inst)
        assert sol == ref
        assert repr(sol) == repr(ref)
        if k == brute_k and n <= 10:
            assert sol.total_profit == brute_force_opt(inst)[0]


def test_long_path_needs_no_recursion():
    # one node per vertex on the first descent: at 1,500 vertices a
    # recursive walk passes the interpreter's recursion limit
    n = 1500
    inst = QkpInstance(
        n=n, cost=(1,) * n, vprofit=(0,) * n,
        edges=tuple((i, i + 1, 1) for i in range(n - 1)), limit=n,
    )
    sol = exact_qkp(inst, max_n=n)
    assert sol.total_profit == n - 1
    assert sol.vertices == tuple(range(n))


def test_size_guard():
    inst = QkpInstance(n=30, cost=(1,) * 30, vprofit=(1,) * 30, edges=(), limit=5)
    with pytest.raises(CapacityError):
        exact_qkp(inst)
    assert exact_qkp(inst, max_n=30).total_profit == 5


@pytest.mark.parametrize("env", ["5", "abc"])
def test_guard_ignores_the_environment(monkeypatch, env):
    # only qkp bench reads QKP_ORACLE_MAX_N; the library takes max_n alone
    monkeypatch.setenv("QKP_ORACLE_MAX_N", env)
    inst = QkpInstance(n=12, cost=(1,) * 12, vprofit=(1,) * 12, edges=(), limit=3)
    assert exact_qkp(inst).total_profit == 3


@pytest.mark.parametrize("guard", [-1, True, 6.5, "30", None])
def test_size_guard_must_be_a_non_negative_int(guard):
    # True would read as 1 and 6.5 as a bound; "30" or None would compare as a TypeError
    # (a negative QKP_ORACLE_MAX_N: tests/test_cli.py)
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(1, 1), edges=(), limit=1)
    with pytest.raises(ValueError, match="max_n must be a non-negative int"):
        exact_qkp(inst, max_n=guard)
