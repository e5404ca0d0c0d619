"""Core data model: evaluation, feasibility, validation, JSON round trip."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_opt,
    instance_degree,
    qkp_instances,
    reference_validate,
)
from qkpapprox.instance import (
    QkpInstance,
    dumps_canonical,
    evaluate,
    instance_from_json_obj,
    instance_to_json_obj,
    load_instance,
)
from qkpapprox.orchestrator import solve


def triangle(limit=2):
    return QkpInstance(
        n=3,
        cost=(1, 1, 1),
        vprofit=(0, 0, 0),
        edges=((0, 1, 1), (1, 2, 1), (0, 2, 1)),
        limit=limit,
    )


def test_evaluate_full_triangle():
    cost, profit = evaluate(triangle(), {0, 1, 2})
    assert (cost, profit) == (3, 3)


def test_evaluate_empty_set():
    assert evaluate(triangle(), set()) == (0, 0)


def test_evaluate_path_with_vertex_profit():
    inst = QkpInstance(
        n=3,
        cost=(1, 1, 1),
        vprofit=(2, 0, 0),
        edges=((0, 1, 1), (1, 2, 1)),
        limit=10,
    )
    cost, profit = evaluate(inst, {0, 1})
    assert (cost, profit) == (2, 3)


def test_evaluate_rejects_bad_vertex():
    with pytest.raises(ValueError):
        evaluate(triangle(), {0, 7})


def test_feasible_boundary_equality():
    # a set whose cost equals the limit is feasible: solve takes both
    inst = QkpInstance(n=2, cost=(1, 1), vprofit=(1, 1), edges=(), limit=2)
    assert evaluate(inst, {0, 1}) == (2, 2)
    assert solve(inst)[0].vertices == (0, 1)


def test_infeasible_over_limit():
    inst = QkpInstance(n=2, cost=(3, 3), vprofit=(1, 1), edges=(), limit=5)
    assert evaluate(inst, {0, 1})[0] == 6
    assert solve(inst)[0].vertices == (0,)


def test_empty_set_feasible_at_zero_limit():
    inst = QkpInstance(n=1, cost=(1,), vprofit=(1,), edges=(), limit=0)
    assert evaluate(inst, set()) == (0, 0)
    assert solve(inst)[0].vertices == ()


def test_validate_ok():
    assert triangle().edges == ((0, 1, 1), (1, 2, 1), (0, 2, 1))


def test_validate_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        QkpInstance(n=3, cost=(1, 1, 1), vprofit=(0, 0, 0), edges=((2, 2, 5),), limit=2)


def test_validate_negative_cost():
    with pytest.raises(ValueError, match="negative cost"):
        QkpInstance(n=2, cost=(1, -1), vprofit=(0, 0), edges=(), limit=2)


def test_validate_duplicate_edge_and_bad_id():
    with pytest.raises(ValueError) as err:
        QkpInstance(
            n=2, cost=(1, 1), vprofit=(0, 0), edges=((0, 1, 1), (1, 0, 2), (0, 5, 1)), limit=2
        )
    found = str(err.value)
    assert "duplicate" in found
    assert "out-of-range" in found


@pytest.mark.parametrize("n, edge", [
    (2, (0.0, 1, 1)),
    (2, (0, True, 1)),
    (2.0, (0, 1, 1)),
    (True, (0, 1, 1)),
])
def test_non_int_vertex_count_or_endpoint_rejected(n, edge):
    # a float id would fail later as a list index, a bool would be kept
    with pytest.raises(ValueError, match="invalid instance: .*expected an integer"):
        QkpInstance(n=n, cost=(1, 1), vprofit=(0, 0), edges=(edge,), limit=2)


def test_replace_checks_the_new_fields():
    with pytest.raises(ValueError, match="invalid instance: negative cost limit"):
        dataclasses.replace(triangle(), limit=-1)


def test_json_negative_cost_is_invalid_not_malformed():
    obj = {"n": 2, "limit": 3, "costs": [1, -1], "vertex_profits": [0, 0], "edges": []}
    with pytest.raises(ValueError) as err:
        instance_from_json_obj(obj)
    assert str(err.value) == "invalid instance: negative cost at vertex 1"


def test_edges_canonicalized_to_sorted_order():
    inst = QkpInstance(n=3, cost=(1, 1, 1), vprofit=(0, 0, 0), edges=((2, 0, 5),), limit=2)
    assert inst.edges == ((0, 2, 5),)


def test_rationals_normalized():
    inst = QkpInstance(
        n=1, cost=(Fraction(4, 2),), vprofit=("1/3",), edges=(), limit="7"
    )
    assert inst.cost == (2,)
    assert inst.vprofit == (Fraction(1, 3),)
    assert inst.limit == 7


def test_floats_rejected():
    with pytest.raises(TypeError):
        QkpInstance(n=1, cost=(0.5,), vprofit=(0,), edges=(), limit=1)


@given(qkp_instances(max_n=8), st.randoms(use_true_random=False), st.integers(1, 6))
def test_profit_matches_brute_force_pair_sum(drawn, rng, den):
    # cross-check evaluate against a raw scan over all vertex pairs, on the
    # drawn instance rebuilt with its edges shuffled, each pair's endpoints
    # flipped at random and the edge profits divided by den
    import itertools

    edges = []
    for u, v, p in drawn.edges:
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, Fraction(p, den)))
    rng.shuffle(edges)
    inst = dataclasses.replace(drawn, edges=tuple(edges))
    # the rows hold inst.edges, each once, at its lower endpoint, in edge order
    rows = inst.higher_neighbours()
    assert len(rows) == inst.n
    for u, row in enumerate(rows):
        assert list(row) == [(v, p) for a, v, p in inst.edges if a == u]
    for r in (0, inst.n // 2, inst.n):
        for combo in itertools.islice(itertools.combinations(range(inst.n), r), 8):
            chosen = set(combo)
            expected = sum(inst.vprofit[v] for v in chosen)
            for u, v, p in inst.edges:
                if u in chosen and v in chosen:
                    expected += p
            assert evaluate(inst, chosen)[1] == expected


@given(qkp_instances(max_n=7), st.data())
def test_evaluate_monotone_in_subset(inst, data):
    subset = data.draw(
        st.sets(st.integers(0, max(0, inst.n - 1)), max_size=inst.n)
        if inst.n
        else st.just(set())
    )
    superset = set(range(inst.n))
    assert evaluate(inst, subset)[1] <= evaluate(inst, superset)[1]


@given(qkp_instances(max_n=6))
def test_empty_always_feasible(inst):
    assert evaluate(inst, set()) == (0, 0)


def test_json_round_trip(tmp_path):
    inst = QkpInstance(
        n=3,
        cost=(1, Fraction(5, 2), 3),
        vprofit=(0, 1, Fraction(1, 3)),
        edges=((0, 1, 2), (1, 2, Fraction(7, 4))),
        limit=Fraction(9, 2),
    )
    path = tmp_path / "inst.json"
    path.write_text(dumps_canonical(instance_to_json_obj(inst)))
    again = load_instance(str(path))
    assert again == inst
    # non-integral rationals serialize as p/q strings
    obj = json.loads(path.read_text())
    assert obj["limit"] == "9/2"
    assert obj["costs"][1] == "5/2"


def test_json_decimal_literals_parse_exactly():
    obj = {
        "n": 1,
        "limit": 0.1,
        "costs": [1],
        "vertex_profits": [0],
        "edges": [],
    }
    text = json.dumps(obj)
    parsed = json.loads(text, parse_float=Fraction)
    inst = instance_from_json_obj(parsed)
    assert inst.limit == Fraction(1, 10)


@pytest.mark.parametrize(
    "n, endpoint",
    [("6.5", "0"), ("true", "0"), ('"6"', "0"), ("6.0", "0"),
     ("6", "0.5"), ("6", "true"), ("6", '"0"')],
)
def test_json_rejects_non_integer_n_and_endpoints(n, endpoint):
    text = (
        f'{{"n": {n}, "limit": 3, "costs": [1, 1, 1, 1, 1, 1],'
        f' "vertex_profits": [0, 0, 0, 0, 0, 0], "edges": [[{endpoint}, 1, 2]]}}'
    )
    with pytest.raises(ValueError, match="expected an integer"):
        instance_from_json_obj(json.loads(text, parse_float=Fraction))


def test_adjacency_degree():
    inst = triangle()
    assert [instance_degree(inst, v) for v in range(3)] == [2, 2, 2]
    assert instance_to_json_obj(inst)["n"] == 3


@st.composite
def _malformed_fields(draw):
    """Instance fields with self-loops, negative and out-of-range ids,
    duplicates in either orientation and negative profits, some costs and
    vertex profits negative."""
    n = draw(st.integers(0, 5))
    ids = st.integers(-2, n + 1)
    edges = tuple(
        draw(st.lists(st.tuples(ids, ids, st.integers(-3, 3)), max_size=12))
    )
    cost = tuple(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    vprofit = tuple(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    limit = draw(st.integers(-1, 5))
    return dict(n=n, cost=cost, vprofit=vprofit, edges=edges, limit=limit)


@given(_malformed_fields())
@settings(max_examples=300)
# both orientations of a pair are one edge once canonicalised: a duplicate
@example(dict(
    n=3, cost=(1, 1, 1), vprofit=(0, 0, 0),
    edges=((0, 1, 1), (1, 0, 2), (2, 2, 1), (-1, 1, 0), (0, 1, -1)), limit=2,
))
def test_validate_messages_match_tuple_keyed_reference(fields):
    # the reference reads the canonicalised fields, built unchecked
    edges = tuple((min(u, v), max(u, v), p) for u, v, p in fields["edges"])
    canon = QkpInstance.from_canonical(
        fields["n"], fields["cost"], fields["vprofit"], edges, fields["limit"]
    )
    expected = reference_validate(canon)
    if not expected:
        assert QkpInstance(**fields) == canon
        return
    with pytest.raises(ValueError) as err:
        QkpInstance(**fields)
    assert str(err.value) == "invalid instance: " + "; ".join(expected)
