"""Densest-k-subgraph backends."""

import dataclasses
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_dks,
    induced_edge_count,
    reference_completion_bound,
    reference_dks_enum,
    reference_greedy_peel,
    reference_lex_pushes,
)
from qkpapprox import dks
from qkpapprox.dks import (
    DEFAULT_BUDGET,
    EXACT_BACKEND,
    GREEDY_BACKEND,
    DksBackend,
    UGraph,
    _completion_bound,
    _neighbor_masks,
    dks_exact,
    dks_greedy_peel,
    get_backend,
    solve_dks,
)
from qkpapprox.errors import CapacityError


def triangle():
    return UGraph(3, ((0, 1), (1, 2), (0, 2)))


def test_exact_triangle_k2():
    chosen = solve_dks(triangle(), 2, EXACT_BACKEND)
    assert len(chosen) == 2
    assert induced_edge_count(triangle(), chosen) == 1


def test_exact_two_triangles_plus_isolated():
    g = UGraph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    chosen = solve_dks(g, 3, EXACT_BACKEND)
    assert induced_edge_count(g, chosen) == 3
    assert brute_force_dks(7, g.edges, 3) == 3


def test_k_zero_returns_empty():
    assert solve_dks(triangle(), 0, EXACT_BACKEND) == ()
    assert solve_dks(triangle(), 0, GREEDY_BACKEND) == ()


def test_exact_star_k2():
    g = UGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    chosen = dks_exact(g, 2)
    assert induced_edge_count(g, chosen) == 1


def test_greedy_peel_path():
    # degrees (1,2,2,1): peel 0, then 1 (tie on degree 1 goes to smaller id)
    g = UGraph(4, ((0, 1), (1, 2), (2, 3)))
    chosen = dks_greedy_peel(g, 2)
    assert chosen == (2, 3)
    assert induced_edge_count(g, chosen) == 1


def test_greedy_clique_k3():
    g = UGraph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    chosen = dks_greedy_peel(g, 3)
    assert len(chosen) == 3
    assert induced_edge_count(g, chosen) == 3


def test_greedy_empty_graph():
    g = UGraph(4, ())
    chosen = dks_greedy_peel(g, 2)
    assert len(chosen) == 2
    assert induced_edge_count(g, chosen) == 0


def test_greedy_returns_all_when_k_exceeds_n():
    g = UGraph(3, ((0, 1),))
    assert dks_greedy_peel(g, 9) == (0, 1, 2)


def test_greedy_finds_planted_clique_with_tendrils():
    # 4-clique with a path of low-degree tendrils hanging off vertex 0
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, 4), (4, 5), (5, 6)]
    g = UGraph(7, tuple(edges))
    assert dks_greedy_peel(g, 4) == (0, 1, 2, 3)


def test_exact_capacity_guard():
    g = UGraph(30, tuple((u, u + 1) for u in range(29)))
    with pytest.raises(CapacityError):
        dks_exact(g, 15, budget=10, max_n=25)


def test_exact_node_budget_guard():
    rng = random.Random(5)
    edges = tuple(
        (u, v) for u in range(24) for v in range(u + 1, 24) if rng.random() < 0.5
    )
    g = UGraph(24, edges)
    with pytest.raises(CapacityError):
        dks_exact(g, 12, budget=50)


@pytest.mark.parametrize("answer", [(0, 0), (4, 5)])
def test_solve_dks_rejects_repeated_or_out_of_range_ids(answer):
    path = UGraph(4, ((0, 1), (1, 2), (2, 3)))
    stub = DksBackend("stub", 0, lambda graph, k: answer)
    with pytest.raises(RuntimeError):
        solve_dks(path, 2, stub)


@pytest.mark.parametrize("answer", [(1.5, 2), (0.0, 1), (True, 2), (None, 1), ("0", "1")])
def test_solve_dks_rejects_ids_that_are_not_ints(answer):
    # a float or bool id passes the range test, and None or a str fails the sort
    path = UGraph(4, ((0, 1), (1, 2), (2, 3)))
    stub = DksBackend("stub", 0, lambda graph, k: answer)
    with pytest.raises(RuntimeError, match="distinct vertices of 0..3"):
        solve_dks(path, 2, stub)


@pytest.mark.parametrize("k", [1.5, 2.5, True, False, -1, "2"])
def test_entry_points_reject_a_k_that_is_not_a_nonnegative_int(k):
    path = UGraph(4, ((0, 1), (1, 2), (2, 3)))
    calls = [
        lambda: dks_exact(path, k),
        lambda: dks_greedy_peel(path, k),
        lambda: solve_dks(path, k, EXACT_BACKEND),
        lambda: solve_dks(path, k, GREEDY_BACKEND),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="k must be a non-negative int"):
            call()


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_n", -1),
        ("max_n", "25"),
        ("max_n", None),
        ("budget", -1),
        ("budget", 1.5),
        ("budget", True),
        ("budget", None),
    ],
)
def test_exact_rejects_a_guard_that_is_not_a_nonnegative_int(name, value):
    hexagon = UGraph(6, tuple((v, (v + 1) % 6) for v in range(6)))
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative int, got {value!r}$"):
        dks_exact(hexagon, 3, **{name: value})


@pytest.mark.parametrize(
    "n, edges",
    [
        (-1, ()),
        (True, ()),
        (2.0, ()),
        (3, ((True, 2),)),
        (3, ((0, 1.0),)),
        (3, ((0, 3),)),
        (3, ((-1, 2),)),
        (3, ((1, 1),)),
    ],
)
def test_graph_rejects_a_bad_n_or_endpoint(n, edges):
    with pytest.raises(ValueError):
        UGraph(n, edges)


def test_graph_rows_are_ascending_and_symmetric():
    g = UGraph(5, ((3, 1), (0, 3), (1, 3), (4, 0), (2, 0)))
    assert g.nbrs == ((2, 3, 4), (3,), (0,), (0, 1), (0,))
    assert g.edges == ((0, 2), (0, 3), (0, 4), (1, 3))
    assert [len(g.nbrs[v]) for v in range(5)] == [3, 1, 1, 2, 1]
    assert UGraph.from_rows(g.nbrs) == g


def test_graph_size_is_its_row_count():
    rows = ((1,), (0,), ())
    assert UGraph.from_rows(rows).n == len(rows) == 3
    assert UGraph(4, ()).n == 4
    assert [f.name for f in dataclasses.fields(UGraph)] == ["nbrs"]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 24))
    density = draw(st.sampled_from([0, 0.1, 0.3, 0.6, 1]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    return UGraph(n, edges)


@given(random_graphs())
@settings(max_examples=150, deadline=None)
def test_greedy_peel_matches_set_based_peel(g):
    for k in range(g.n + 1):
        assert dks_greedy_peel(g, k) == reference_greedy_peel(g, k)


def test_backend_alpha_validated():
    with pytest.raises(ValueError):
        DksBackend("bad", 1, dks_exact)
    assert get_backend("exact").declared_alpha == 0
    assert float(get_backend("greedy").declared_alpha) == 0.5
    with pytest.raises(ValueError):
        get_backend("nope")


def test_exact_matches_enumeration_random_graphs():
    rng = random.Random(123)
    for _ in range(120):
        n = rng.randint(1, 12)
        density = rng.choice([0.2, 0.5, 0.8])
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        )
        g = UGraph(n, edges)
        k = rng.randint(0, n)
        chosen = solve_dks(g, k, EXACT_BACKEND)
        assert len(chosen) == min(k, n)
        assert induced_edge_count(g, chosen) == brute_force_dks(n, edges, k)


def test_branch_and_bound_agrees_with_enumeration():
    # past the budget: a budget below C(n, k) either runs out or returns
    # exactly what enumeration would
    rng = random.Random(9)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(6, 18)
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = UGraph(n, edges)
        k = rng.randint(2, n - 1)
        budget = rng.randint(1, math.comb(n, k) - 1)
        try:
            chosen = dks_exact(g, k, budget=budget)
        except CapacityError:
            outcomes.add("raised")
            continue
        outcomes.add("completed")
        assert chosen == reference_dks_enum(n, g.edges, k)
    assert outcomes == {"raised", "completed"}


def test_budget_of_every_subset_always_completes(monkeypatch):
    # with nothing pruned the walk pushes the most frames it can, and it
    # must still finish within C(n, k), indeed within C(n - 2, k - 2) - 1
    monkeypatch.setattr(dks, "_completion_bound", lambda *args: 1 << 30)
    rng = random.Random(16)
    for n in range(1, 17):
        edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = UGraph(n, edges)
        for k in range(n + 1):
            expected = reference_dks_enum(n, g.edges, k)
            assert dks_exact(g, k, budget=math.comb(n, k)) == expected
            if 2 <= k < n and math.comb(n - 2, k - 2) > 1:
                tight = math.comb(n - 2, k - 2) - 1
                assert dks_exact(g, k, budget=tight) == expected
                with pytest.raises(CapacityError):
                    dks_exact(g, k, budget=tight - 1)


@st.composite
def enumerable_dks_inputs(draw):
    """(graph, k) with comb(n, k) <= DEFAULT_BUDGET.

    n runs to 20 with every k, and to 40 with k <= 2: past
    DEFAULT_EXACT_MAX_N only graphs with at most DEFAULT_BUDGET k-subsets
    are searched.  Densities 0 and 1 make every k-subset tie.
    """
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n if n <= 20 else 2))
    if math.comb(n, k) > DEFAULT_BUDGET:
        k = draw(st.sampled_from([0, 1, 2, n - 2, n - 1, n]))
    density = draw(st.sampled_from([0, 0.5, 1]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    return UGraph(n, edges), k


@given(enumerable_dks_inputs())
@settings(max_examples=150, deadline=None)
def test_exact_returns_first_maximum_in_enumeration_order(case):
    g, k = case
    assert dks_exact(g, k) == reference_dks_enum(g.n, g.edges, k)


@pytest.mark.parametrize("density", [0, 0.002])
def test_exact_enumeration_path_handles_k_near_n(density):
    # comb(1200, 1199) = 1200 is within the budget, and the walk must not
    # go one call frame deep per chosen vertex.
    n = 1200
    rng = random.Random(11)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    assert dks_exact(UGraph(n, edges), n - 1) == reference_dks_enum(n, edges, n - 1)
    if not edges:
        assert dks_exact(UGraph(n, edges), n - 1) == tuple(range(n - 1))


@st.composite
def completion_cases(draw):
    """(n, edges, candidates, candidate bitmask, prefix) on n <= 12.

    The candidates are an index suffix, with its bitmask built the way
    _lex_first_densest builds it, or an arbitrary subset, so the bound is
    checked for any candidate set; the prefix is a random subset of the
    other vertices.
    """
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0, 0.3, 0.7, 1]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    if draw(st.booleans()):
        split = draw(st.integers(0, n - 1))
        cands = list(range(split, n))
        cand_bits = (1 << n) - (1 << split)
    else:
        cands = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        cand_bits = sum(1 << v for v in cands)
    prefix = [v for v in range(n) if v not in cands and draw(st.booleans())]
    return n, edges, cands, cand_bits, prefix


@given(completion_cases())
@settings(max_examples=200, deadline=None)
def test_completion_bound_between_best_completion_and_reference(case):
    n, edges, cands, cand_bits, prefix = case
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    cand_masks = [masks[v] for v in cands]
    mask = sum(1 << v for v in prefix)
    # best[t]: most edges any t candidates add to the prefix, from the edge list
    best = [-1] * (len(cands) + 1)
    for r in range(len(cands) + 1):
        for picks in itertools.combinations(cands, r):
            added = set(picks)
            present = added.union(prefix)
            gain = sum(
                1 for u, v in edges if u in present and v in present
                and (u in added or v in added)
            )
            best[r] = max(best[r], gain)
    for t in range(len(cands) + 1):
        bound = _completion_bound(cand_masks, cand_bits, mask, t)
        assert best[t] <= bound <= reference_completion_bound(cand_masks, mask, t)


@st.composite
def frame_cut_cases(draw):
    """(masks, prefix mask, v, t) for a frame of the exact walk on n <= 12:
    t >= 3 slots left, a pruned child v < n - t, and a prefix drawn from
    the vertices before v."""
    n = draw(st.integers(4, 12))
    density = draw(st.sampled_from([0, 0.3, 0.7, 1]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    t = draw(st.integers(3, n - 1))
    v = draw(st.integers(0, n - t - 1))
    mask = sum(1 << u for u in range(v) if draw(st.booleans()))
    return _neighbor_masks(UGraph(n, edges)), mask, v, t


@given(frame_cut_cases())
@settings(max_examples=300, deadline=None)
def test_frame_bound_covers_every_later_sibling(case):
    # the lemma behind the frame cut: a later sibling w's child bound,
    # g_w + CB(after w, P + w, t - 1), is at most CB(after v, P, t)
    masks, mask, v, t = case
    n = len(masks)
    frame_bound = _completion_bound(masks[v + 1:], (1 << n) - (2 << v), mask, t)
    for w in range(v + 1, n - t + 1):
        gain = (masks[w] & mask).bit_count()
        child = _completion_bound(
            masks[w + 1:], (1 << n) - (2 << w), mask | (1 << w), t - 1
        )
        assert gain + child <= frame_bound


def test_frame_cut_keeps_every_push(monkeypatch):
    # the cut skips only siblings the uncut walk would prune, so the walk
    # pushes exactly the uncut walk's frames: that count completes, one
    # fewer trips the budget
    spy = mock.Mock(wraps=_completion_bound)
    monkeypatch.setattr(dks, "_completion_bound", spy)
    rng = random.Random(14)
    cut = 0
    for n in (5, 9, 13, 16, 18):
        for density in (0, 0.5, 1):
            edges = tuple(
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < density
            )
            g = UGraph(n, edges)
            masks = _neighbor_masks(g)
            for k in range(n + 1):
                expected = reference_dks_enum(n, g.edges, k)
                spy.reset_mock()
                pushes = reference_lex_pushes(masks, k) if 1 <= k < n else 0
                uncut_calls = spy.call_count
                spy.reset_mock()
                assert dks_exact(g, k, budget=pushes) == expected
                cut += spy.call_count < uncut_calls
                if pushes:
                    with pytest.raises(CapacityError):
                        dks_exact(g, k, budget=pushes - 1)
    assert cut  # the frame cut fired, with fewer bound calls


@given(
    st.integers(1, 10),
    st.integers(0, 14),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
)
@settings(max_examples=80)
def test_output_size_always_min_k_n(n, k, raw_edges):
    edges = tuple((u % n, v % n) for u, v in raw_edges if u % n != v % n)
    g = UGraph(n, edges)
    for backend in (EXACT_BACKEND, GREEDY_BACKEND):
        chosen = solve_dks(g, k, backend)
        assert len(chosen) == min(k, n)
        assert len(set(chosen)) == len(chosen)


def test_deterministic_outputs():
    rng = random.Random(77)
    edges = tuple(
        (u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.4
    )
    g = UGraph(10, edges)
    for backend in (EXACT_BACKEND, GREEDY_BACKEND):
        assert solve_dks(g, 4, backend) == solve_dks(g, 4, backend)
