"""Class-2..5 solvers and the replication transform."""

import gc
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    anchored_instance,
    random_class3_sub,
    reference_feasible_b_subsets,
    reference_greedy_peel,
    reference_replicate_edges,
    random_class4_sub,
    random_class5_case2_sub,
    replicated_costs,
    sub_cost,
    sub_edge_count,
    sub_from_scaled,
    subinstance_as_qkp,
)
from qkpapprox import classsolvers, orchestrator
from qkpapprox.classsolvers import (
    _adj_sets,
    _degree_select,
    _feasible_b_subsets,
    replicate,
    solve_class2,
    solve_class3,
    solve_class4,
    solve_class5,
)
from qkpapprox.decompose import decompose
from qkpapprox.dks import EXACT_BACKEND, GREEDY_BACKEND, DksBackend, UGraph, dks_greedy_peel
from qkpapprox.instance import QkpInstance
from qkpapprox.oracle import exact_qkp
from qkpapprox.orchestrator import SolveConfig, solve
from qkpapprox.preprocess import prepare


def make_sub(class_tag, costs, edges, limit, part_a=None, part_b=None, d=None):
    return sub_from_scaled(
        class_tag,
        costs,
        edges,
        limit,
        part_a=part_a,
        part_b=part_b,
        profit_level=1,
        buckets=(1, 1),
        d_gap=d,
    )


def solve_tail(sub):
    """A class-2 sub-instance on the path solve runs: a tail that fits is
    taken whole by the orchestrator, and only an overflowing one reaches
    solve_class2."""
    return orchestrator._solve_sub(sub, None, SolveConfig(dks_backend=GREEDY_BACKEND))


def test_class2_takes_everything():
    sub = make_sub(2, [1, 1, 1, 1, 1], [(0, 1), (2, 3)], limit=100)
    out = solve_tail(sub)
    assert out.vertices == (0, 1, 2, 3, 4)
    assert sub_edge_count(sub, out.vertices) == 2


def test_class2_empty():
    sub = make_sub(2, [], [], limit=0)
    assert solve_class2(sub).vertices == ()


def test_class2_boundary_cost():
    # n vertices each costing exactly limit/n: everything still fits
    sub = make_sub(2, [Fraction(5, 4)] * 4, [(0, 1)], limit=5)
    out = solve_class2(sub)
    assert sub_cost(sub, out.vertices) == 5


def test_class2_overflowing_tail_takes_two_parts():
    # c* = 33 puts the cost-4 clique in the tail (2^(k-l) = 64/16 = 4),
    # and the tail costs 56 against a limit of 33.  Next-fit into parts of
    # 16 units gives four vertices a part; two parts are a K8.
    inst = QkpInstance(
        n=15,
        cost=(33,) + (4,) * 14,
        vprofit=(0,) * 15,
        edges=tuple((u, v, 1) for u in range(1, 15) for v in range(u + 1, 15)),
        limit=33,
    )
    for backend in ("greedy", "exact"):
        sol, report = solve(inst, SolveConfig(dks_backend=backend))
        assert (sol.total_profit, sol.vertices) == (28, tuple(range(1, 9)))
        assert report.best_class == 2
        assert all(rec.feasible for rec in report.records)


def test_class2_output_always_fits():
    rng = random.Random(12)
    for trial in range(300):
        # tail costs below half the limit and a total below twice it, as
        # every decomposed class-2 sub-instance has
        limit = rng.randint(4, 40)
        costs = []
        while len(costs) < 2 or rng.random() < 0.9:
            c = Fraction(rng.randint(1, 4 * limit - 4), 8)  # < limit/2
            if sum(costs) + c >= 2 * limit:
                break
            costs.append(c)
        n = len(costs)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        ]
        sub = make_sub(2, costs, edges, limit)
        out = solve_tail(sub)
        assert sub_cost(sub, out.vertices) <= limit, trial
        assert 21 * sub_edge_count(sub, out.vertices) >= len(edges), trial
        assert out.case == ("sum_all" if sum(costs) <= limit else "tail_split")


def test_class3_dks_path():
    costs = [Fraction(3, 2)] * 6
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    sub = make_sub(3, costs, edges, limit=8)
    out = solve_class3(sub, EXACT_BACKEND)
    assert out.case == "dks"
    assert len(out.vertices) == 4  # t = floor(8/2)
    assert sub_cost(sub, out.vertices) <= 8


def test_class3_sampling_constant():
    # the subset-sampling bound t(t-1)/(r(r-1)) bottoms out at 1/10
    r, t = 5, 2
    assert Fraction(t * (t - 1), r * (r - 1)) == Fraction(1, 10)


def test_class3_degenerate_limit_enumerates():
    costs = [Fraction(3, 2)] * 5
    edges = [(0, 1), (1, 2)]
    sub = make_sub(3, costs, edges, limit=3)
    out = solve_class3(sub, EXACT_BACKEND)
    assert out.case == "enum_small"
    assert sub_cost(sub, out.vertices) <= 3
    assert sub_edge_count(sub, out.vertices) == 1


def test_class4_k43_main_path():
    # complete bipartite K_{4,3}: d=4, limit=32 picks 2 heavy + 1 light
    part_a = (0, 1, 2, 3)
    part_b = (4, 5, 6)
    costs = [Fraction(1, 2)] * 4 + [5, 5, 5]
    edges = [(a, b) for a in part_a for b in part_b]
    sub = make_sub(4, costs, edges, limit=32, part_a=part_a, part_b=part_b, d=4)
    out = solve_class4(sub)
    assert out.case == "main"
    chosen_b = [v for v in out.vertices if v in part_b]
    chosen_a = [v for v in out.vertices if v in part_a]
    assert len(chosen_b) == 2 and len(chosen_a) == 1
    assert sub_edge_count(sub, out.vertices) == 2


def test_class4_small_limit_enumerates():
    part_a = (0, 1, 2, 3)
    part_b = (4, 5)
    costs = [Fraction(1, 4)] * 4 + [3, 3]
    edges = [(0, 4), (1, 4), (2, 5)]
    sub = make_sub(4, costs, edges, limit=6, part_a=part_a, part_b=part_b, d=2)
    out = solve_class4(sub)
    assert out.case == "enum_b4"
    assert sub_cost(sub, out.vertices) <= 6
    assert sub_edge_count(sub, out.vertices) >= 2


def test_class4_empty_heavy_side():
    sub = make_sub(4, [Fraction(1, 2)] * 3, [], limit=4, part_a=(0, 1, 2), part_b=(), d=1)
    assert solve_class4(sub).vertices == ()


def test_replicated_graph_shape():
    # one light, one heavy vertex, d=2: copies share the light neighbor
    sub = make_sub(
        5, [Fraction(3, 2), 3], [(0, 1)], limit=5, part_a=(0,), part_b=(1,), d=2
    )
    rep = replicate(sub)
    assert rep.graph.n == 3
    assert len(rep.graph.edges) == 2
    costs = replicated_costs(rep, sub)
    assert costs[1] == costs[2] == Fraction(3, 2)
    assert rep.copy_base(1) == rep.copy_base(2) == 1


def test_replicated_graph_is_canonical():
    # light ids above heavy ids, so sub.edges come in heavy-vertex order
    # and the copies' edges must be sorted before the graph trusts them
    sub = make_sub(
        5, [3, 3, Fraction(3, 2), Fraction(3, 2)], [(0, 2), (0, 3), (1, 2)],
        limit=12, part_a=(2, 3), part_b=(0, 1), d=2,
    )
    rng = random.Random(7)
    for sub in [sub] + [random_class5_case2_sub(rng) for _ in range(10)]:
        graph = replicate(sub).graph
        checked = UGraph(graph.n, graph.edges)
        assert (graph.edges, graph.nbrs) == (checked.edges, checked.nbrs)


def test_replicated_rows_match_the_d_fold_edge_list():
    sub = make_sub(
        5, [3, 3, Fraction(3, 2), Fraction(3, 2)], [(0, 2), (0, 3), (1, 2)],
        limit=12, part_a=(2, 3), part_b=(0, 1), d=2,
    )
    rng = random.Random(11)
    for sub in [sub] + [random_class5_case2_sub(rng) for _ in range(20)]:
        graph = replicate(sub).graph
        reference = UGraph(graph.n, reference_replicate_edges(sub))
        assert graph.n == reference.n
        for v in range(graph.n):
            assert graph.nbrs[v] == reference.nbrs[v], v


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_greedy_peel_on_replicated_graphs_matches_set_based_peel(seed):
    sub = random_class5_case2_sub(random.Random(seed))
    graph = replicate(sub).graph
    reference = UGraph(graph.n, reference_replicate_edges(sub))
    for k in range(graph.n + 1):
        assert dks_greedy_peel(graph, k) == reference_greedy_peel(reference, k)


def test_replicated_degrees_match_base():
    rng = random.Random(4)
    for _ in range(30):
        sub = random_class5_case2_sub(rng)
        if not sub.edges:
            continue
        rep = replicate(sub)
        n_a = len(rep.a_members)
        base_deg = {
            b: sum(1 for u, v in sub.edges if b in (u, v)) for b in sub.part_b
        }
        for b_idx, b in enumerate(rep.b_members):
            for j in range(rep.d):
                local = n_a + b_idx * rep.d + j
                assert len(rep.graph.nbrs[local]) == base_deg[b]


def test_replication_value_bound_tiny():
    # base optimum 1 replicates to at least d times the profit
    d = 2
    sub = make_sub(
        5, [1, 4], [(0, 1)], limit=5, part_a=(0,), part_b=(1,), d=d
    )
    rep = replicate(sub)
    base_inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
    rep_inst = QkpInstance(
        n=rep.graph.n,
        cost=replicated_costs(rep, sub),
        vprofit=(0,) * rep.graph.n,
        edges=tuple((u, v, 1) for u, v in rep.graph.edges),
        limit=sub.scaled_limit,
    )
    base_opt = exact_qkp(base_inst).total_profit
    rep_opt = exact_qkp(rep_inst).total_profit
    assert base_opt == 1
    assert rep_opt == 2
    assert rep_opt >= d * base_opt


def test_class5_case_threshold_exact_backend():
    # alpha=0: case 2 iff the light side outnumbers the scaled limit
    part_a = tuple(range(10))
    part_b = (10,)
    costs = [Fraction(3, 2)] * 10 + [3]
    edges = [(a, 10) for a in part_a]
    sub = make_sub(5, costs, edges, limit=8, part_a=part_a, part_b=part_b, d=2)
    out = solve_class5(sub, EXACT_BACKEND)
    assert out.case == "case2"

    small_a = tuple(range(5))
    costs = [Fraction(3, 2)] * 5 + [3]
    edges = [(a, 5) for a in small_a]
    sub = make_sub(5, costs, edges, limit=8, part_a=small_a, part_b=(5,), d=2)
    out = solve_class5(sub, EXACT_BACKEND)
    assert out.case == "case1"


def test_class5_replication_cap_falls_back_to_case1(monkeypatch):
    monkeypatch.setattr(classsolvers, "REPLICATION_CAP", 5)
    part_a = tuple(range(10))
    part_b = (10,)
    costs = [Fraction(3, 2)] * 10 + [3]
    edges = [(a, 10) for a in part_a]
    sub = make_sub(5, costs, edges, limit=8, part_a=part_a, part_b=part_b, d=2)
    out = solve_class5(sub, EXACT_BACKEND)
    assert out.case == "case1"
    assert "replication_cap_exceeded" in out.fallbacks


def test_class5_case2_takes_light_picks_from_the_dks_result():
    # a stub DkS returns the last k local ids: light ids 4..9 and both
    # copies of the heavy vertex, so the two light picks are 4 and 5, not
    # the equally connected 0 and 1
    last_k = DksBackend("last-k", 0, lambda graph, k: tuple(range(graph.n - k, graph.n)))
    part_a = tuple(range(10))
    costs = [Fraction(3, 2)] * 10 + [3]
    edges = [(a, 10) for a in part_a]
    sub = make_sub(5, costs, edges, limit=8, part_a=part_a, part_b=(10,), d=2)
    out = solve_class5(sub, last_k)
    assert (out.case, out.vertices, out.fallbacks) == ("case2", (4, 5, 10), ())


def test_class5_small_limit_enumerates():
    sub = make_sub(
        5,
        [Fraction(3, 2), Fraction(3, 2), 3],
        [(0, 2), (1, 2)],
        limit=6,
        part_a=(0, 1),
        part_b=(2,),
        d=2,
    )
    out = solve_class5(sub, EXACT_BACKEND)
    assert out.case == "enum_b4"
    assert sub_cost(sub, out.vertices) <= 6


def test_class_outputs_always_feasible():
    rng = random.Random(2024)
    for trial in range(1000):
        pick = trial % 3
        if pick == 0:
            sub = random_class3_sub(rng)
            out = solve_class3(sub, GREEDY_BACKEND if trial % 2 else EXACT_BACKEND)
        elif pick == 1:
            sub = random_class4_sub(rng)
            out = solve_class4(sub)
        else:
            sub = random_class5_case2_sub(rng)
            out = solve_class5(sub, GREEDY_BACKEND if trial % 2 else EXACT_BACKEND)
        assert sub_cost(sub, out.vertices) <= sub.scaled_limit, (trial, pick)


def test_class2_profit_is_full_edge_mass():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        sub = make_sub(2, [Fraction(1, n)] * n, edges, limit=10)
        out = solve_tail(sub)
        assert sub_edge_count(sub, out.vertices) == len(edges)


def test_class3_ratio_bound_quick():
    rng = random.Random(5)
    for _ in range(40):
        sub = random_class3_sub(rng)
        if not sub.edges:
            continue
        out = solve_class3(sub, EXACT_BACKEND)
        alg = sub_edge_count(sub, out.vertices)
        inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        opt = exact_qkp(inst).total_profit
        assert 10 * alg >= opt


def test_class4_ratio_bound_quick():
    rng = random.Random(6)
    for _ in range(40):
        sub = random_class4_sub(rng)
        if not sub.edges:
            continue
        out = solve_class4(sub)
        alg = sub_edge_count(sub, out.vertices)
        inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        opt = exact_qkp(inst).total_profit
        assert 16 * alg >= opt


def test_class5_case2_ratio_bound_quick():
    rng = random.Random(7)
    for _ in range(40):
        sub = random_class5_case2_sub(rng)
        if not sub.edges:
            continue
        out = solve_class5(sub, EXACT_BACKEND)
        assert out.case == "case2"
        alg = sub_edge_count(sub, out.vertices)
        inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        opt = exact_qkp(inst).total_profit
        assert 16 * alg >= opt


@given(
    st.lists(st.integers(0, 9), max_size=9),
    st.integers(0, 30),
    st.integers(0, 8),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_feasible_b_subsets_matches_recursive_reference(costs, budget, max_size, data):
    part_b = tuple(range(10, 10 + len(costs)))
    cost_of = {v: c for v, c in zip(part_b, costs)}
    everything, capped = reference_feasible_b_subsets(part_b, cost_of, budget, max_size, 10**9)
    assert not capped
    count = len(everything)
    cap = data.draw(st.sampled_from((0, 1, count - 1, count, count + 1, count // 2)))
    assert _feasible_b_subsets(part_b, cost_of, budget, max_size, cap) == (
        reference_feasible_b_subsets(part_b, cost_of, budget, max_size, cap)
    )


def test_feasible_b_subsets_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        out, capped = _feasible_b_subsets(tuple(range(8)), [1] * 8, 5, 7, 10**6)
        assert (len(out), capped) == (1 + 8 + 28 + 56 + 70 + 56, False)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_degree_select_ranks_the_pool():
    # vertex 0 has the most degree into the heavy pick 2, but only 1 is in
    # the pool
    sub = make_sub(4, [Fraction(1, 2)] * 3, [(0, 2)], limit=1, part_a=(0, 1), part_b=(2,), d=1)
    assert _degree_select(_adj_sets(sub), [2], (1,), 1) == (1, 2)


def test_degree_selection_fits_by_construction_on_decomposed_instances():
    """Instances at the edge of the fit arguments (helpers.anchored_instance),
    both backends: no class 2-5 candidate is infeasible, and every class-4
    main and class-5 case1/case2 record picks at most floor(L/4d) heavy
    vertices and at most m_a light ones, the counts its solver's docstring
    bounds the cost with (m_a is ceil(|A|/4) in class 4, floor(L/4) in
    class 5)."""
    rng = random.Random(1)
    seen = Counter()
    for trial in range(300):
        inst = anchored_instance(rng)
        prep = prepare(inst)
        subs = decompose(prep)
        for backend in ("greedy", "exact"):
            _, report = solve(inst, SolveConfig(dks_backend=backend))
            # one record per sub-instance, in decompose order, then the scan
            for sub, rec in zip(subs[1:], report.records[1:]):
                where = (trial, backend, sub.class_tag, rec.case)
                assert rec.feasible, where
                if rec.case not in ("main", "case1", "case2"):
                    continue
                seen[rec.case] += 1
                num, den = sub.limit_ratio()
                chosen = set(rec.vertices)
                heavy = sum(prep.orig_of[b] in chosen for b in sub.part_b)
                light = sum(prep.orig_of[a] in chosen for a in sub.part_a)
                m_a = -(-len(sub.part_a) // 4) if sub.class_tag == 4 else num // (4 * den)
                assert heavy <= num // (4 * den * int(sub.d_gap)), where
                assert light <= m_a, where
    assert all(seen[case] > 0 for case in ("main", "case1", "case2")), seen
