"""prepare: pruning and profit rounding; bucket_costs, which decompose calls."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_opt,
    qkp_instances,
    rational_cost_instance,
    rational_instances,
    reduced_instance,
    reference_prepare,
    unrounded_reduced,
)
from qkpapprox.decompose import bucket_costs
from qkpapprox.instance import QkpInstance
from qkpapprox.preprocess import prepare
from qkpapprox.rational import pow2


def test_prune_drops_overweight_vertex_and_edge():
    inst = QkpInstance(n=2, cost=(5, 12), vprofit=(0, 0), edges=((0, 1, 3),), limit=10)
    result = prepare(inst)
    assert len(result.cost) == 1
    assert result.edges == ()
    assert result.orig_of == (0,)


def test_prune_folds_zero_cost_vertex():
    inst = QkpInstance(n=2, cost=(0, 1), vprofit=(2, 1), edges=((0, 1, 5),), limit=1)
    result = prepare(inst)
    assert result.base_profit == 2
    assert result.always_include == frozenset({0})
    assert len(result.cost) == 1
    assert result.vprofit == (6,)


def test_prune_drops_pair_cost_violating_edge():
    inst = QkpInstance(n=2, cost=(6, 6), vprofit=(0, 0), edges=((0, 1, 4),), limit=10)
    result = prepare(inst)
    assert len(result.cost) == 2
    assert result.edges == ()


def test_prune_zero_profit_edges_dropped():
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(0, 0), edges=((0, 1, 0),), limit=5)
    assert prepare(inst).edges == ()


def test_prune_chained_zero_cost_vertices():
    # edge between two zero-cost vertices lands in base_profit
    inst = QkpInstance(
        n=3,
        cost=(0, 0, 2),
        vprofit=(1, 2, 0),
        edges=((0, 1, 4), (1, 2, 3)),
        limit=5,
    )
    result = prepare(inst)
    assert result.base_profit == 1 + 2 + 4
    assert len(result.cost) == 1
    assert result.vprofit == (3,)
    assert result.always_include == frozenset({0, 1})


@given(qkp_instances(max_n=8, allow_zero_cost=True))
@settings(max_examples=60)
def test_prune_preserves_optimum(inst):
    prep = prepare(inst)
    opt_before, _ = brute_force_opt(inst)
    opt_after, _ = brute_force_opt(unrounded_reduced(inst, prep))
    assert opt_after + prep.base_profit == opt_before


def test_round_profits_level_ladder():
    # n=4, top profit 10: levels 8..1/4 plus 0; profit 3 -> 2; 1/4, the
    # lowest level, stays; 1/5 is dropped
    inst = QkpInstance(
        n=4,
        cost=(1, 1, 1, 1),
        vprofit=(0, 0, 0, 0),
        edges=((0, 1, 10), (0, 2, Fraction(1, 4)), (1, 2, 3), (2, 3, Fraction(1, 5))),
        limit=10,
    )
    prep = prepare(inst)
    by_pair = {(u, v): p for u, v, p in prep.edges}
    assert by_pair == {(0, 1): 8, (0, 2): Fraction(1, 4), (1, 2): 2}


def test_round_profits_single_edge():
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(0, 0), edges=((0, 1, 7),), limit=5)
    prep = prepare(inst)
    assert prep.edges == ((0, 1, 4),)


def test_round_profits_fixed_point():
    inst = QkpInstance(
        n=4,
        cost=(1, 1, 1, 1),
        vprofit=(0, 0, 0, 0),
        edges=((0, 1, 8), (1, 2, 4), (2, 3, 1)),
        limit=10,
    )
    assert prepare(inst).edges == inst.edges


def test_round_profits_no_edges():
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(3, 4), edges=(), limit=5)
    prep = prepare(inst)
    assert reduced_instance(prep) == inst
    assert prep.edges == ()


def test_round_profits_keeps_vertex_profits():
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(3, Fraction(1, 7)), edges=((0, 1, 5),), limit=5)
    assert prepare(inst).vprofit == (3, Fraction(1, 7))


def test_bucket_costs_dyadic_ranges():
    # n=8, top cost 10 -> k=4, l=4; cost 10 in V_1, 3 in V_3, 1/2 in tail V_5
    inst = QkpInstance(
        n=8,
        cost=(10, 3, Fraction(1, 2), 9, 4, 2, 1, 16),
        vprofit=(0,) * 8,
        edges=(),
        limit=20,
    )
    bucket_of, k, l = bucket_costs(inst.cost)
    assert (k, l) == (4, 4)
    assert bucket_of[0] == 1
    assert bucket_of[1] == 3
    assert bucket_of[2] == 5
    assert bucket_of[7] == 1  # 16 = 2^k boundary
    assert bucket_of[6] == 5  # cost 1 <= 2^(k-l) = 1 -> tail


def test_bucket_costs_small_instance():
    # n=2, single positive cost 1: k=0, l=2, cost 1 in (1/2, 1] -> V_1
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(0, 0), edges=(), limit=5)
    bucket_of, k, l = bucket_costs(inst.cost)
    assert (k, l) == (0, 2)
    assert bucket_of[0] == 1 and bucket_of[1] == 1


def test_bucket_costs_all_equal_share_bucket():
    inst = QkpInstance(n=5, cost=(6,) * 5, vprofit=(0,) * 5, edges=(), limit=30)
    bucket_of, _, _ = bucket_costs(inst.cost)
    assert len(bucket_of) == inst.n
    assert len(set(bucket_of)) == 1


def test_bucket_costs_rejects_zero_cost():
    inst = QkpInstance(n=1, cost=(0,), vprofit=(0,), edges=(), limit=1)
    with pytest.raises(ValueError):
        bucket_costs(inst.cost)


@given(qkp_instances(max_n=10, allow_zero_cost=False))
@settings(max_examples=80)
def test_bucket_membership_inequality(inst):
    bucket_of, k, l = bucket_costs(inst.cost)
    assert len(bucket_of) == inst.n
    for v, i in enumerate(bucket_of):
        c = inst.cost[v]
        if i <= l:
            assert pow2(k - i) < c <= pow2(k + 1 - i)
        else:
            assert i == l + 1 and 0 < c <= pow2(k - l)


@given(qkp_instances(max_n=10))
@settings(max_examples=80)
def test_rounded_profit_within_factor_two(inst):
    prep = prepare(inst)
    before = {(u, v): p for u, v, p in inst.edges}
    for ru, rv, p in prep.edges:
        assert p <= before[(prep.orig_of[ru], prep.orig_of[rv])] < 2 * p


def test_rounding_lemma_small_cases():
    # post-prune, the rounded optimum keeps at least a quarter of the value
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = tuple(
            (u, v, rng.randint(0, 30))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        )
        inst = QkpInstance(
            n=n,
            cost=tuple(rng.randint(1, 8) for _ in range(n)),
            vprofit=(0,) * n,
            edges=edges,
            limit=rng.randint(2, 16),
        )
        prep = prepare(inst)
        opt_pruned, _ = brute_force_opt(unrounded_reduced(inst, prep))
        opt_rounded, _ = brute_force_opt(reduced_instance(prep))
        assert 4 * opt_rounded >= opt_pruned


def test_prepare_bundles_everything():
    inst = QkpInstance(
        n=4,
        cost=(0, 2, 3, 12),
        vprofit=(5, 0, 1, 9),
        edges=((0, 1, 6), (1, 2, 3), (2, 3, 8)),
        limit=6,
    )
    prep = prepare(inst)
    assert prep.base_profit == 5
    assert prep.always_include == frozenset({0})
    assert len(prep.cost) == 2
    assert prep.vprofit == (6, 1)  # vertex 1 absorbed the folded edge
    assert max(p for _, _, p in prep.edges) == 2  # top remaining rounded profit
    bucket_of, _, l = bucket_costs(prep.cost)
    assert len(bucket_of) == len(prep.cost)
    assert l >= 1


def test_prepare_empty_instance():
    inst = QkpInstance(n=0, cost=(), vprofit=(), edges=(), limit=0)
    prep = prepare(inst)
    assert len(prep.cost) == 0
    assert prep.edges == ()
    assert bucket_costs(prep.cost)[0] == ()


def _assert_canonical(prep):
    """prep's reduced problem passes the checked constructor, which stores
    the same values, type for type."""
    checked = reduced_instance(prep)
    fields = (prep.cost, prep.vprofit, prep.edges, prep.limit)
    assert fields == (checked.cost, checked.vprofit, checked.edges, checked.limit)
    for a, b in zip(
        prep.cost + prep.vprofit + (prep.limit,),
        checked.cost + checked.vprofit + (checked.limit,),
    ):
        assert type(a) is type(b)
    assert [type(p) for *_, p in prep.edges] == [type(p) for *_, p in checked.edges]


def test_reduced_instance_is_canonical():
    # vertex 1 folds 1/2 + 1/2 from zero-cost vertex 0: the int 1, as a
    # checked construction would store it
    folded = QkpInstance(
        n=3, cost=(0, 1, 2), vprofit=(0, Fraction(1, 2), Fraction(1, 3)),
        edges=((0, 1, Fraction(1, 2)), (1, 2, 3)), limit=Fraction(7, 2),
    )
    assert type(prepare(folded).vprofit[0]) is int
    for inst in [folded] + [rational_cost_instance(seed) for seed in range(30)]:
        _assert_canonical(prepare(inst))


@given(st.one_of(rational_instances(), qkp_instances(max_n=10, allow_zero_cost=True)))
@settings(max_examples=200, deadline=None)
def test_reduced_fields_pass_the_checked_constructor(inst):
    # the rounding-lemma tests brute-force reduced_instance(prep)
    _assert_canonical(prepare(inst))


@given(st.one_of(rational_instances(), qkp_instances(max_n=10)))
@settings(max_examples=300, deadline=None)
# no edges; every vertex unaffordable
@example(QkpInstance(n=3, cost=(1, 2, 0), vprofit=(1, 0, 2), edges=(), limit=1))
@example(QkpInstance(n=2, cost=(5, 6), vprofit=(1, 1), edges=((0, 1, 2),), limit=4))
# a zero-profit pair ties the base and the singletons at profit 0 and,
# unioned with the zero-cost vertex 2, has the smallest vertex tuple
@example(QkpInstance(n=3, cost=(1, 1, 0), vprofit=(0, 0, 0), edges=((0, 1, 0),), limit=2))
# equal pair profits out of edge order: the smaller pair (0, 1) wins
@example(QkpInstance(n=3, cost=(1, 1, 1), vprofit=(0, 0, 0), edges=((0, 2, 5), (0, 1, 5)), limit=2))
# a pair of zero-cost vertices, and a zero-cost vertex beside an infeasible pair
@example(QkpInstance(
    n=4, cost=(0, 0, Fraction(5, 2), 3), vprofit=(1, Fraction(1, 3), 0, 2),
    edges=((0, 1, 4), (1, 2, Fraction(1, 2)), (2, 3, 7), (0, 3, 0)), limit=Fraction(9, 2),
))
def test_prepare_matches_multi_walk_reference(inst):
    assert prepare(inst) == reference_prepare(inst)
