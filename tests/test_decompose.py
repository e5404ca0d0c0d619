"""Sub-instance decomposition."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_opt,
    profit_mass,
    qkp_instances,
    reference_decompose,
    scaled_cost,
    subinstance_as_qkp,
    subinstance_count_bound,
)
from qkpapprox.decompose import SubInstance, bucket_costs, decompose
from qkpapprox.instance import QkpInstance
from qkpapprox.preprocess import prepare
from qkpapprox.rational import pow2


def test_single_cell_gives_class1_plus_class3():
    # all costs in one non-tail bucket, all edges at one level
    inst = QkpInstance(
        n=4,
        cost=(8, 8, 8, 8),
        vprofit=(0, 0, 0, 0),
        edges=((0, 1, 4), (1, 2, 4), (2, 3, 4)),
        limit=16,
    )
    subs = decompose(prepare(inst))
    assert [s.class_tag for s in subs] == [1, 3]
    assert subs[1].profit_level == 4
    assert set(subs[1].vertices) == {0, 1, 2, 3}


def test_distinct_non_tail_buckets_give_class5():
    # costs 8 and 3 with n=4: buckets 1 and 2 (both non-tail)
    inst = QkpInstance(
        n=4,
        cost=(8, 8, 3, 3),
        vprofit=(0, 0, 0, 0),
        edges=((0, 2, 4), (1, 3, 4)),
        limit=16,
    )
    prep = prepare(inst)
    subs = decompose(prep)
    five = [s for s in subs if s.class_tag == 5]
    assert len(five) == 1
    sub = five[0]
    assert sub.profit_level == 4
    assert sub.buckets == (1, 2)
    # heavier bucket is part_b, lighter part_a
    assert set(sub.part_b) == {0, 1}
    assert set(sub.part_a) == {2, 3}
    assert sub.d_gap == 2
    for v in sub.part_a:
        assert 1 < scaled_cost(sub, v) <= 2
    for v in sub.part_b:
        assert sub.d_gap < scaled_cost(sub, v) <= 2 * sub.d_gap


def test_two_levels_two_bucket_pairs_make_five_subs():
    # 4 heavy (bucket 1) + 4 tail vertices, edges at levels 8 and 4 in the
    # heavy-heavy and heavy-tail cells: 1 + 2*2 sub-instances
    inst = QkpInstance(
        n=8,
        cost=(16, 16, 16, 16, 1, 1, 1, 1),
        vprofit=(0,) * 8,
        edges=(
            (0, 1, 8),
            (2, 3, 4),
            (0, 4, 8),
            (1, 5, 4),
        ),
        limit=64,
    )
    prep = prepare(inst)
    assert bucket_costs(prep.reduced)[2] == 4
    subs = decompose(prep)
    assert len(subs) == 5
    tags = sorted(s.class_tag for s in subs)
    assert tags == [1, 3, 3, 4, 4]
    assert len(subs) <= subinstance_count_bound(8) == 2 * (math.log2(8) + 1) ** 3 + 1


def test_tail_only_cell_is_class2():
    inst = QkpInstance(
        n=8,
        cost=(16, 1, 1, 1, 1, 1, 1, 1),
        vprofit=(0,) * 8,
        edges=((1, 2, 4), (3, 4, 4)),
        limit=64,
    )
    subs = decompose(prepare(inst))
    twos = [s for s in subs if s.class_tag == 2]
    assert len(twos) == 1
    assert set(twos[0].vertices) == {1, 2, 3, 4}


def test_class4_orientation_and_scaling():
    inst = QkpInstance(
        n=8,
        cost=(16, 16, 1, 1, 1, 1, 1, 1),
        vprofit=(0,) * 8,
        edges=((0, 2, 8), (1, 3, 8)),
        limit=64,
    )
    prep = prepare(inst)
    subs = decompose(prep)
    four = [s for s in subs if s.class_tag == 4]
    assert len(four) == 1
    sub = four[0]
    assert set(sub.part_b) == {0, 1}
    assert set(sub.part_a) == {2, 3}
    _, k, l = bucket_costs(prep.reduced)
    assert sub.cost_scale == pow2(k - l)
    for v in sub.part_a:
        assert 0 < scaled_cost(sub, v) <= 1
    for v in sub.part_b:
        assert sub.d_gap < scaled_cost(sub, v) <= 2 * sub.d_gap


@given(qkp_instances(max_n=12))
@settings(max_examples=100)
def test_edges_partition_and_mass_conservation(inst):
    prep = prepare(inst)
    subs = decompose(prep)
    assert sum(1 for s in subs if s.class_tag == 1) == 1
    seen = {}
    for s in subs:
        for e in s.edges:
            assert e not in seen, "edge assigned to two sub-instances"
            seen[e] = s.class_tag
    assert len(seen) == len(prep.reduced.edges)
    mass = sum(profit_mass(s, prep.reduced.vprofit) for s in subs)
    expected = sum(p for _, _, p in prep.reduced.edges) + sum(prep.reduced.vprofit)
    assert mass == expected
    n = max(prep.reduced.n, 1)
    assert len(subs) <= subinstance_count_bound(n)


@given(qkp_instances(max_n=12))
@settings(max_examples=60)
def test_scaled_ranges_per_class(inst):
    prep = prepare(inst)
    for sub in decompose(prep):
        if sub.class_tag == 3:
            for v in sub.vertices:
                assert 1 < scaled_cost(sub, v) <= 2
        elif sub.class_tag == 4:
            for v in sub.part_a:
                assert 0 < scaled_cost(sub, v) <= 1
            for v in sub.part_b:
                assert sub.d_gap < scaled_cost(sub, v) <= 2 * sub.d_gap
            assert sub.d_gap >= 1
        elif sub.class_tag == 5:
            for v in sub.part_a:
                assert 1 < scaled_cost(sub, v) <= 2
            for v in sub.part_b:
                assert sub.d_gap < scaled_cost(sub, v) <= 2 * sub.d_gap
            assert sub.d_gap >= 2
        if sub.class_tag in (4, 5):
            parts = set(sub.part_a) | set(sub.part_b)
            assert parts == set(sub.vertices)
            for u, v in sub.edges:
                assert (u in sub.part_a) != (v in sub.part_a)


def test_averaging_bound_against_oracle():
    # the best sub-instance holds at least OPT/(number of sub-instances)
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 10)
        inst = QkpInstance(
            n=n,
            cost=tuple(rng.randint(1, 10) for _ in range(n)),
            vprofit=tuple(rng.randint(0, 6) for _ in range(n)),
            edges=tuple(
                (u, v, rng.randint(0, 12))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.6
            ),
            limit=rng.randint(1, 40),
        )
        prep = prepare(inst)
        subs = decompose(prep)
        opt_prep, _ = brute_force_opt(prep.reduced)
        if opt_prep == 0:
            continue
        best_share = Fraction(0)
        for sub in subs:
            # sub-instance at the unscaled limit: scale values back up
            sub_qkp, _ = subinstance_as_qkp(sub, vprofit=prep.reduced.vprofit)
            raw = QkpInstance(
                n=sub_qkp.n,
                cost=tuple(Fraction(c) * Fraction(sub.cost_scale) for c in sub_qkp.cost),
                vprofit=sub_qkp.vprofit,
                edges=sub_qkp.edges,
                limit=prep.reduced.limit,
            )
            share, _ = brute_force_opt(raw)
            best_share = max(best_share, Fraction(share))
        assert best_share * len(subs) >= opt_prep


def test_debug_dump_shape():
    inst = QkpInstance(
        n=4, cost=(8, 8, 8, 8), vprofit=(1, 0, 0, 0),
        edges=((0, 1, 4),), limit=16,
    )
    subs = decompose(prepare(inst))
    dump = [s.to_json_obj() for s in subs]
    assert dump[0]["class"] == 1
    assert all({"class", "vertices", "edge_count", "cost_scale"} <= set(d) for d in dump)


def _assert_matches_reference(prep):
    got, want = decompose(prep), reference_decompose(prep)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is SubInstance
        for name in SubInstance._fields:
            x, y = getattr(a, name), getattr(b, name)
            assert x == y and type(x) is type(y), name
    return got


# one anchor of cost 64 fixes k = 6; with n <= 15 vertices the tail holds
# the costs <= 2^(6 - l) with l <= 4, so (0, 4] is always tail and
# [17, 64] never is
_TAIL_COSTS = st.builds(Fraction, st.integers(1, 12), st.just(3))
_MID_COSTS = st.one_of(st.integers(17, 64), st.builds(Fraction, st.integers(34, 128), st.just(2)))


@st.composite
def _bucketed_instances(draw):
    """An anchor, then zero-cost, tail and non-tail vertices, edges in a
    shuffled order with either orientation, int and Fraction profits."""
    costs = [64] + [
        draw(st.one_of(st.just(0), _TAIL_COSTS, _MID_COSTS))
        for _ in range(draw(st.integers(1, 14)))
    ]
    n = len(costs)
    edges = [
        (u, v, draw(st.sampled_from([1, 2, 3, 8, Fraction(1, 3), Fraction(5, 2)])))
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.integers(0, 99)) < 50
    ]
    edges = [(v, u, p) if draw(st.booleans()) else (u, v, p) for u, v, p in draw(st.permutations(edges))]
    limit = draw(st.sampled_from([64, Fraction(129, 2), 100, Fraction(1000, 7)]))
    return QkpInstance(n=n, cost=tuple(costs), vprofit=(0,) * n, edges=tuple(edges), limit=limit)


@given(_bucketed_instances())
@settings(max_examples=200, deadline=None)
def test_one_cell_pass_matches_the_reference(inst):
    _assert_matches_reference(prepare(inst))


def test_one_cell_pass_reaches_every_class():
    # vertices 0-1 in bucket 1, 2-3 in bucket 2, 4-6 in the tail and 7 of
    # cost 0; the edges come in reverse order, some of them flipped
    inst = QkpInstance(
        n=8,
        cost=(64, 64, 20, Fraction(61, 2), 1, Fraction(4, 3), 2, 0),
        vprofit=(0,) * 8,
        edges=tuple(reversed((
            (0, 1, 8), (2, 3, 8), (0, 2, 8), (1, 3, Fraction(1, 3)),
            (4, 5, 2), (6, 5, 2), (0, 4, 8), (7, 3, 1), (3, 6, 2),
        ))),
        limit=Fraction(201, 2),
    )
    subs = _assert_matches_reference(prepare(inst))
    assert {s.class_tag for s in subs} == {1, 2, 3, 4, 5}
