"""Knapsack FPTAS, and its sweep run exactly."""

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    exact_sweep,
    reference_greedy_fixed_count,
    reference_knapsack_exact,
    reference_knapsack_fptas,
)
from qkpapprox import knapsack, prepare, random_instance
from qkpapprox.knapsack import knapsack_fptas


def total(items, chosen):
    cost = sum(items[i][0] for i in chosen)
    profit = sum(items[i][1] for i in chosen)
    return cost, profit


def brute_opt(items, capacity):
    """The best profit over every subset of the items that fits."""
    sums = [(0, 0)]
    for c, p in items:
        sums += [(s + c, q + p) for s, q in sums if s + c <= capacity]
    return max(q for _, q in sums)


def test_fptas_symmetric_tie():
    items = [(1, 10), (1, 10)]
    chosen = knapsack_fptas(items, 1, Fraction(1, 2))
    assert total(items, chosen) == (1, 10)
    assert chosen == (0,)  # tie leans toward the lower index


def test_fptas_small_exhaustive_case():
    items = [(2, 3), (3, 4), (4, 5)]
    chosen = knapsack_fptas(items, 5, Fraction(1, 10))
    cost, profit = total(items, chosen)
    assert cost <= 5
    assert profit == 7  # brute force over all 8 subsets


def test_fptas_zero_capacity():
    assert knapsack_fptas([(2, 3), (1, 1)], 0, Fraction(1, 4)) == ()


def test_fptas_eps_validation():
    with pytest.raises(ValueError):
        knapsack_fptas([(1, 1)], 1, 0)
    with pytest.raises(ValueError):
        knapsack_fptas([(1, 1)], 1, 1)


def test_fptas_rejects_negative_values():
    with pytest.raises(ValueError):
        knapsack_fptas([(-1, 1)], 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        knapsack_fptas([(1, 1)], -1, Fraction(1, 2))


def test_fptas_cost_denominator_on_a_dropped_item():
    # item 1 has the only non-unit cost denominator, and its profit scales
    # to p_hat = 0; the cost factor still counts it, the sweep never sees it
    items = [(3, 100), (Fraction(1, 2), 1), (2, 50), (4, 70)]
    eps = Fraction(1, 4)
    for capacity in (5, Fraction(11, 2), Fraction(20, 3), 9):
        picked = knapsack_fptas(items, capacity, eps)
        assert 1 not in picked
        assert picked == reference_knapsack_fptas(items, capacity, eps)


def test_exact_small_case():
    items = [(2, 3), (3, 4), (4, 5)]
    chosen = exact_sweep(items, 5)
    assert total(items, chosen) == (5, 7)


def test_exact_single_heavy_item():
    assert exact_sweep([(10, 5)], 4) == ()


def test_exact_all_zero_cost():
    items = [(0, 3), (0, 1), (0, 2)]
    assert exact_sweep(items, 0) == (0, 1, 2)


def test_exact_sweep_on_fraction_costs():
    # 30 items of cost 1/3 and capacity 5 are 15 units: the same answer as
    # the items scaled by 3
    thirds = exact_sweep([(Fraction(1, 3), 1)] * 30, 5)
    assert thirds == exact_sweep([(1, 1)] * 30, 15)
    assert len(thirds) == 15


def test_exact_many_integral_items_allowed():
    rng = random.Random(0)
    items = [(rng.randint(1, 9), rng.randint(0, 9)) for _ in range(60)]
    chosen = exact_sweep(items, 40)
    cost, profit = total(items, chosen)
    assert cost <= 40
    greedy_lb = max(p for c, p in items if c <= 40)
    assert profit >= greedy_lb


def test_fptas_respects_ratio_on_random_integral_instances():
    rng = random.Random(42)
    for trial in range(200):
        n = rng.randint(1, 100)
        items = [(rng.randint(1, 30), rng.randint(0, 50)) for _ in range(n)]
        capacity = rng.randint(0, 15 * n)
        exact = exact_sweep(items, capacity)
        opt = total(items, exact)[1]
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
            chosen = knapsack_fptas(items, capacity, eps)
            cost, profit = total(items, chosen)
            assert cost <= capacity
            assert profit >= (1 - eps) * opt


def test_fptas_exact_rational_inputs():
    items = [(Fraction(1, 2), Fraction(3, 7)), (Fraction(1, 3), Fraction(2, 7))]
    chosen = knapsack_fptas(items, Fraction(5, 6), Fraction(1, 4))
    cost, profit = total(items, chosen)
    assert cost <= Fraction(5, 6)
    assert profit == Fraction(5, 7)


def test_fptas_deterministic():
    rng = random.Random(3)
    items = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(20)]
    a = knapsack_fptas(items, 30, Fraction(1, 4))
    b = knapsack_fptas(items, 30, Fraction(1, 4))
    assert a == b


def test_exact_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 10)
        items = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n)]
        capacity = rng.randint(0, 30)
        chosen = exact_sweep(items, capacity)
        cost, profit = total(items, chosen)
        assert cost <= capacity
        assert profit == brute_opt(items, capacity)


_denominators = st.sampled_from([1, 2, 4, 8, 64, 3, 6, 7, 10])
_costs = st.one_of(
    st.integers(0, 12),
    st.builds(Fraction, st.integers(0, 96), _denominators),
)
_profits = st.one_of(
    st.integers(0, 12),
    st.builds(Fraction, st.integers(0, 48), st.sampled_from([1, 2, 3, 5])),
)
# few distinct values, so equal costs and equal profits are common
_tied_items = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, Fraction(5, 2)]), st.sampled_from([0, 1, 3])),
    max_size=14,
)
_items = st.one_of(st.lists(st.tuples(_costs, _profits), max_size=14), _tied_items)
_capacities = st.one_of(
    st.integers(0, 40), st.builds(Fraction, st.integers(0, 160), _denominators)
)
# numerators above 1 and large denominators check the integer profit scaling
_eps = st.sampled_from(
    [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 10),
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(2, 7),
        Fraction(99, 100),
    ]
)


@settings(max_examples=300)
@given(items=_items, capacity=_capacities, eps=_eps)
def test_integer_sweep_matches_rational_reference(items, capacity, eps):
    assert knapsack_fptas(items, capacity, eps) == reference_knapsack_fptas(
        items, capacity, eps
    )
    assert exact_sweep(items, capacity) == reference_knapsack_exact(items, capacity)


def _bound_spy():
    """Patch the sweep's bound-table helper with a call-counting wrapper."""
    return mock.patch.object(knapsack, "_bound_table", wraps=knapsack._bound_table)


def _pruned(spy):
    """Whether the sweep built a pruning table: fixing builds the one from
    item 0, pruning only starts past the first item."""
    return any(call.args[3] > 0 for call in spy.call_args_list)


class _FixSpy:
    """Wraps knapsack._fix: counts the items each call fixed in and out, and
    keeps each call's (costs, profits, capacity, lb, returned lb, fixed_in,
    free)."""

    def __init__(self):
        self.fix = knapsack._fix
        self.fixed_in = self.fixed_out = 0
        self.calls = []

    def __call__(self, order, costs, profits, capacity, lb):
        fixed_in, free, raised = self.fix(order, costs, profits, capacity, lb)
        self.fixed_in += len(fixed_in)
        self.fixed_out += len(costs) - len(fixed_in) - len(free)
        self.calls.append((costs, profits, capacity, lb, raised, fixed_in, free))
        return fixed_in, free, raised


class _SweepSpy:
    """Keeps, for each knapsack._sweep call that fixes, the (costs, profits,
    capacity, lb) it holds as it returns: the free items, the capacity the
    fixed-in ones leave, and the last lb.  lb never falls after fixing, so
    the last one bounds every lb the pruning used."""

    def __init__(self):
        self.finals = []

    def __call__(self, frame, event, arg):
        if event == "return" and frame.f_code is knapsack._sweep.__code__:
            names = frame.f_locals
            if "lb" in names:  # not when every item fits
                self.finals.append(
                    (names["costs"], names["profits"], names["capacity"], names["lb"])
                )

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


# tied ratios (multiples of a few base items), zero costs, and capacities
# of 0, exactly one item's cost, and at least the total cost
_ratio_items = st.builds(
    lambda base, k: (base[0] * k, base[1] * k),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (0, 1), (0, 0), (3, 0)]),
    st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(5, 3)]),
)


@st.composite
def _fixing_knapsacks(draw):
    items = draw(
        st.one_of(
            st.lists(_ratio_items, min_size=1, max_size=30),
            st.lists(st.tuples(_costs, _profits), min_size=1, max_size=30),
        )
    )
    costs = [c for c, _ in items]
    total_cost = sum(costs)
    capacity = draw(
        st.one_of(
            st.sampled_from(
                [0, total_cost, total_cost + 1, Fraction(total_cost, 2), total_cost // 3]
            ),
            st.sampled_from(costs),
        )
    )
    return items, capacity


@settings(max_examples=300)
@given(knap=_fixing_knapsacks(), eps=_eps)
def test_fixed_items_keep_the_reference_subset(knap, eps):
    items, capacity = knap
    assert knapsack_fptas(items, capacity, eps) == reference_knapsack_fptas(
        items, capacity, eps
    )
    assert exact_sweep(items, capacity) == reference_knapsack_exact(items, capacity)


# long item lists, so the frontier outgrows the item count and the sweep
# prunes: a few distinct values for heavy ties, zero costs, small profits
_long_costs = st.one_of(
    st.integers(0, 300), st.sampled_from([0, 1, 2, 50, 100, 150, 200])
)
_long_profits = st.one_of(
    st.integers(0, 30),
    st.sampled_from([0, 1, 4, 5, 8]),
    st.builds(Fraction, st.integers(0, 90), st.sampled_from([2, 3, 7])),
)
# tiny values: the LP bound often equals lb exactly along the best chain
_tight_items = st.tuples(st.integers(0, 6), st.integers(0, 3))


@st.composite
def _long_knapsacks(draw):
    items = draw(
        st.one_of(
            st.lists(st.tuples(_long_costs, _long_profits), min_size=20, max_size=60),
            st.lists(_tight_items, min_size=20, max_size=60),
        )
    )
    total_cost = sum(c for c, _ in items)
    # about half the total cost, as an int or a Fraction
    capacity = draw(
        st.sampled_from(
            [
                total_cost // 2,
                total_cost // 2 + 1,
                Fraction(total_cost, 2),
                Fraction(total_cost, 3),
                Fraction(3 * total_cost + 1, 7),
            ]
        )
    )
    return items, capacity


# no shrink phase: shrinking 20-60-item failures against the rational
# reference sweep takes minutes, and the unshrunk example already fails
@settings(max_examples=60, phases=[p for p in Phase if p is not Phase.shrink])
@given(knap=_long_knapsacks(), eps=_eps)
def _check_long_sweep(knap, eps):
    items, capacity = knap
    assert knapsack_fptas(items, capacity, eps) == reference_knapsack_fptas(
        items, capacity, eps
    )
    assert exact_sweep(items, capacity) == reference_knapsack_exact(items, capacity)


def test_pruned_sweep_matches_rational_reference():
    with _bound_spy() as spy:
        _check_long_sweep()
    assert _pruned(spy)  # the pruning branch ran


def test_pruned_sweep_keeps_states_at_the_bound():
    # a bound equal to lb must keep the state: off-by-one pruning rules
    # empty or cut the frontier here
    rng = random.Random(5)
    with _bound_spy() as spy:
        for _ in range(20):
            items = [(rng.randint(0, 6), rng.randint(0, 3)) for _ in range(20)]
            total_cost = sum(c for c, _ in items)
            for capacity in (total_cost // 2, Fraction(total_cost, 2)):
                assert knapsack_fptas(items, capacity, Fraction(1, 2)) == (
                    reference_knapsack_fptas(items, capacity, Fraction(1, 2))
                )
                assert exact_sweep(items, capacity) == reference_knapsack_exact(
                    items, capacity
                )
    assert _pruned(spy)


# 8-14 items, few enough to list every subset, and a capacity well below
# the total, so that the sweep prunes: tied ratios, zero costs, ints and
# Fractions
@st.composite
def _small_knapsacks(draw):
    items = draw(
        st.one_of(
            st.lists(_ratio_items, min_size=8, max_size=14),
            st.lists(st.tuples(_costs, _profits), min_size=8, max_size=14),
            st.lists(_tight_items, min_size=8, max_size=14),
        )
    )
    total_cost = sum(c for c, _ in items)
    capacity = draw(
        st.sampled_from(
            [
                total_cost // 2,
                Fraction(total_cost, 2),
                Fraction(total_cost, 3),
                total_cost // 4,
            ]
        )
    )
    return items, capacity


def test_raised_lb_never_passes_the_optimum():
    # every lb that fixing and pruning use is at most the optimum of the
    # scaled int items they run on, found by listing every subset
    raised = [0, 0]  # calls in which _fix and the sweep raised lb

    @settings(max_examples=300)
    @given(knap=_small_knapsacks(), eps=_eps)
    def check(knap, eps):
        items, capacity = knap
        fix = _FixSpy()
        with mock.patch.object(knapsack, "_fix", fix), _SweepSpy() as sweep:
            knapsack_fptas(items, capacity, eps)
            exact_sweep(items, capacity)
        assert len(fix.calls) == len(sweep.finals)
        for call, final in zip(fix.calls, sweep.finals):
            costs, profits, capacity, lb, top, fixed_in, _ = call
            assert lb <= top <= brute_opt(zip(costs, profits), capacity)
            start = top - sum(profits[t] for t in fixed_in)  # the sweep's first lb
            costs, profits, capacity, last = final
            assert last <= brute_opt(zip(costs, profits), capacity)
            raised[0] += top > lb
            raised[1] += last > start

    check()
    assert all(raised)


@pytest.mark.parametrize("seed", [1, 2])
def test_pruned_class1_knapsack_matches_reference(seed):
    # the class-1 call of solve: the reduced instance's vertex profits
    # under its Fraction limit
    reduced = prepare(random_instance(100, 0.1, 1000, 1000, "1/2", seed=seed)).reduced
    items = list(zip(reduced.cost, reduced.vprofit))
    limit = reduced.limit
    eps = Fraction(1, 4)
    fix = _FixSpy()
    with _bound_spy() as spy, mock.patch.object(knapsack, "_fix", fix):
        chosen = knapsack_fptas(items, limit, eps)
        exact = exact_sweep(items, limit)
    assert _pruned(spy)
    # both fixing rules fire: the sweep runs on part of the items only
    assert fix.fixed_in and fix.fixed_out
    assert chosen == reference_knapsack_fptas(items, limit, eps)
    assert exact == reference_knapsack_exact(items, limit)


def test_raised_lb_fixes_more_than_the_greedy_fill():
    # class-1 knapsacks as above: fixing with the raised lb fixes at least
    # the items that fixing with the greedy fill alone does, on every call,
    # and more in total (seeds 1 and 2 alone gain nothing: the completions
    # in _fix do not pass their greedy fill)
    fix = _FixSpy()
    with mock.patch.object(knapsack, "_fix", fix):
        for seed in range(1, 7):
            inst = random_instance(100, 0.1, 1000, 1000, "1/2", seed=seed)
            reduced = prepare(inst).reduced
            items = list(zip(reduced.cost, reduced.vprofit))
            knapsack_fptas(items, reduced.limit, Fraction(1, 4))
            exact_sweep(items, reduced.limit)
    fixed = [len(costs) - len(free) for costs, *_, free in fix.calls]
    greedy = [reference_greedy_fixed_count(*call[:3]) for call in fix.calls]
    assert len(fixed) == 12
    assert all(f >= g for f, g in zip(fixed, greedy))
    assert sum(fixed) > sum(greedy)
