"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here; nothing is calibrated later.
"""

import random
from fractions import Fraction

from helpers import (
    brute_force_dks,
    brute_force_opt,
    exact_sweep,
    induced_edge_count,
    profit_mass,
    random_bipartite_sub,
    random_class3_sub,
    random_class4_sub,
    random_class5_case2_sub,
    replicated_costs,
    sub_cost,
    sub_edge_count,
    subinstance_as_qkp,
    subinstance_count_bound,
    tail_instance,
)
from qkpapprox.classsolvers import (
    replicate,
    solve_class2,
    solve_class3,
    solve_class4,
    solve_class5,
)
from qkpapprox.cli import main
from qkpapprox.decompose import decompose
from qkpapprox.dks import EXACT_BACKEND, GREEDY_BACKEND, UGraph, solve_dks
from qkpapprox.generate import random_instance
from qkpapprox.instance import QkpInstance
from qkpapprox.knapsack import knapsack_fptas
from qkpapprox.oracle import exact_qkp
from qkpapprox.orchestrator import SolveConfig, guaranteed_floor, solve
from qkpapprox.preprocess import prepare


def _passed(num, detail):
    print(f"[acceptance] criterion {num} PASS - {detail}")


def test_criterion_1_feasibility_suite():
    """1,000 random instances, n in [2,60], both backends: cost <= limit."""
    densities = (0.1, 0.5, 0.9)
    rng = random.Random(20240601)
    for trial in range(1000):
        n = rng.randint(2, 60)
        density = densities[trial % 3]
        backend = "exact" if trial % 2 else "greedy"
        inst = random_instance(
            n=n,
            density=density,
            max_cost=20,
            max_profit=20,
            limit_frac=Fraction(rng.randint(1, 3), 4),
            seed=rng.randrange(2**30),
        )
        sol, _ = solve(inst, SolveConfig(dks_backend=backend))
        assert sol.total_cost <= inst.limit, f"trial {trial}: cost over limit"
    _passed(1, "1000/1000 solutions feasible (zero tolerance)")


def test_criterion_2_oracle_floor():
    """300 instances, n <= 14, exact DkS, eps 1/4: ALG >= floor(n) * OPT."""
    rng = random.Random(77)
    cfg = SolveConfig(dks_backend="exact", knapsack_eps=Fraction(1, 4))
    ratios = []
    for trial in range(300):
        n = rng.randint(2, 14)
        inst = random_instance(
            n=n,
            density=rng.choice([0.2, 0.5, 0.8]),
            max_cost=15,
            max_profit=25,
            limit_frac=Fraction(rng.randint(1, 3), 4),
            seed=rng.randrange(2**30),
        )
        opt = exact_qkp(inst).total_profit
        sol, _ = solve(inst, cfg)
        floor = guaranteed_floor(n)
        assert sol.total_profit >= floor * opt, f"trial {trial}: below floor"
        if opt > 0:
            ratios.append(Fraction(sol.total_profit) / Fraction(opt))
    mean_ratio = float(sum(ratios) / len(ratios))
    _passed(2, f"300/300 above guaranteed floor; mean ALG/OPT = {mean_ratio:.4f}")


def test_criterion_3_rounding_lemma():
    """200 edge-profit-only instances, n <= 12: rounding keeps >= 1/4 of OPT."""
    rng = random.Random(55)
    for trial in range(200):
        n = rng.randint(2, 12)
        edges = tuple(
            (u, v, rng.randint(0, 40))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.3, 0.6, 0.9])
        )
        inst = QkpInstance(
            n=n,
            cost=tuple(rng.randint(1, 10) for _ in range(n)),
            vprofit=(0,) * n,
            edges=edges,
            limit=rng.randint(1, 40),
        )
        opt_original, _ = brute_force_opt(inst)
        # the ladder applies to the pruned graph, where the top edge is
        # feasible; prep.reduced is the instance decompose receives
        prep = prepare(inst)
        opt_rounded, _ = brute_force_opt(prep.reduced)
        assert 4 * (opt_rounded + prep.base_profit) >= opt_original, f"trial {trial}"
    _passed(3, "200/200 satisfy 4*OPT(rounded) >= OPT(original), exact arithmetic")


def test_criterion_4_decomposition_soundness():
    """500 instances: unique edge assignment, count bound, exact mass."""
    rng = random.Random(404)
    for trial in range(500):
        n = rng.randint(1, 30)
        inst = random_instance(
            n=n,
            density=rng.choice([0.1, 0.4, 0.8]),
            max_cost=18,
            max_profit=18,
            limit_frac=Fraction(rng.randint(1, 3), 4),
            seed=rng.randrange(2**30),
        )
        prep = prepare(inst)
        subs = decompose(prep)
        seen = set()
        for s in subs:
            for e in s.edges:
                assert e not in seen, f"trial {trial}: edge in two sub-instances"
                seen.add(e)
        assert len(seen) == len(prep.reduced.edges), f"trial {trial}: edge lost"
        mass = sum(profit_mass(s, prep.reduced.vprofit) for s in subs)
        expected = sum(p for _, _, p in prep.reduced.edges) + sum(prep.reduced.vprofit)
        assert mass == expected, f"trial {trial}: profit mass not conserved"
        assert len(subs) <= subinstance_count_bound(max(prep.reduced.n, 1))
    _passed(4, "500/500 decompositions sound (partition, count bound, mass)")


def test_criterion_5_class_level_bounds():
    """Stated ratios: every overflowing class-2 sub-instance of 40
    tail_instance draws, and 100 conforming sub-instances per class 3-5
    with exact DkS."""
    rng = random.Random(5)
    checked2 = 0
    for _ in range(40):
        for sub in decompose(prepare(tail_instance(rng))):
            overflows = sum(sub.cost_units[v] for v in sub.vertices) > sub.limit_units
            if sub.class_tag != 2 or not overflows:
                continue
            out = solve_class2(sub)
            assert out.case == "tail_split"
            assert sub_cost(sub, out.vertices) <= sub.scaled_limit
            alg = sub_edge_count(sub, out.vertices)
            assert 21 * alg >= len(sub.edges), f"class 2 ratio violated (alg={alg})"
            checked2 += 1
    assert checked2 == 15  # the rest fit whole and never reach solve_class2

    rng = random.Random(505)
    checked3 = 0
    while checked3 < 100:
        sub = random_class3_sub(rng)
        if not sub.edges:
            continue
        out = solve_class3(sub, EXACT_BACKEND)
        assert sub_cost(sub, out.vertices) <= sub.scaled_limit
        alg = sub_edge_count(sub, out.vertices)
        inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        opt = exact_qkp(inst).total_profit
        if opt == 0:
            continue
        assert 10 * alg >= opt, f"class 3 ratio violated (opt={opt}, alg={alg})"
        checked3 += 1

    checked4 = 0
    while checked4 < 100:
        sub = random_class4_sub(rng)
        if not sub.edges:
            continue
        out = solve_class4(sub)
        assert sub_cost(sub, out.vertices) <= sub.scaled_limit
        alg = sub_edge_count(sub, out.vertices)
        inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        opt = exact_qkp(inst).total_profit
        if opt == 0:
            continue
        assert 16 * alg >= opt, f"class 4 ratio violated (opt={opt}, alg={alg})"
        checked4 += 1

    checked5 = 0
    while checked5 < 100:
        sub = random_class5_case2_sub(rng)
        if not sub.edges:
            continue
        out = solve_class5(sub, EXACT_BACKEND)
        assert out.case == "case2"
        assert sub_cost(sub, out.vertices) <= sub.scaled_limit
        alg = sub_edge_count(sub, out.vertices)
        inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        opt = exact_qkp(inst).total_profit
        if opt == 0:
            continue
        assert 16 * alg >= opt, f"class 5 ratio violated (opt={opt}, alg={alg})"
        checked5 += 1
    _passed(
        5,
        f"class 2 keeps >= 1/21 of its edges ({checked2}), class 3 >= OPT/10, "
        "class 4 >= OPT/16, class 5 case 2 >= OPT/16 (100 each)",
    )


def test_criterion_6_replication_inequality():
    """100 tiny bipartite instances: OPT(replicated) >= d * OPT(base)."""
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        d = rng.choice([2, 4])
        sub = random_bipartite_sub(rng, d)
        if not sub.edges:
            continue
        rep = replicate(sub)
        base_inst, _ = subinstance_as_qkp(sub, unit_edge_profit=True)
        rep_inst = QkpInstance(
            n=rep.graph.n,
            cost=replicated_costs(rep, sub),
            vprofit=(0,) * rep.graph.n,
            edges=tuple((u, v, 1) for u, v in rep.graph.edges),
            limit=sub.scaled_limit,
        )
        opt_base = exact_qkp(base_inst).total_profit
        opt_rep = exact_qkp(rep_inst).total_profit
        assert opt_rep >= d * opt_base, f"replication bound failed (d={d})"
        checked += 1
    _passed(6, "100/100 satisfy OPT(replicated) >= d * OPT(base), exact")


def test_criterion_7_knapsack_fptas():
    """200 integral instances, n <= 100: profit >= (1-eps)*OPT, feasible."""
    rng = random.Random(707)
    eps_grid = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
    for trial in range(200):
        n = rng.randint(1, 100)
        items = [(rng.randint(1, 30), rng.randint(0, 50)) for _ in range(n)]
        capacity = rng.randint(0, 15 * n)
        opt_set = exact_sweep(items, capacity)
        opt = sum(items[i][1] for i in opt_set)
        for eps in eps_grid:
            chosen = knapsack_fptas(items, capacity, eps)
            cost = sum(items[i][0] for i in chosen)
            profit = sum(items[i][1] for i in chosen)
            assert cost <= capacity, f"trial {trial}: infeasible at eps={eps}"
            assert profit >= (1 - eps) * opt, f"trial {trial}: ratio at eps={eps}"
    _passed(7, "200 instances x eps in {1/2, 1/4, 1/10}: ratio and feasibility hold")


def test_criterion_8_dks_backends():
    """dks_exact equals enumeration (200 graphs, n <= 12); sizes exact."""
    rng = random.Random(808)
    for trial in range(200):
        n = rng.randint(1, 12)
        density = rng.choice([0.2, 0.5, 0.8])
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        )
        g = UGraph(n, edges)
        k = rng.randint(0, n + 2)
        exact_set = solve_dks(g, k, EXACT_BACKEND)
        greedy_set = solve_dks(g, k, GREEDY_BACKEND)
        assert len(exact_set) == min(k, n)
        assert len(greedy_set) == min(k, n)
        assert induced_edge_count(g, exact_set) == brute_force_dks(n, edges, k)
    _passed(8, "200/200 exact == enumeration; both backends return min(k, n) vertices")


def test_criterion_9_determinism(tmp_path, capsys):
    """solve and bench byte-identical across reruns with fixed seed/config."""
    inst_path = tmp_path / "inst.json"
    assert main([
        "generate", "--n", "14", "--density", "0.6", "--seed", "99",
        "--output", str(inst_path),
    ]) == 0

    sol_a, sol_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (sol_a, sol_b):
        assert main([
            "solve", "--input", str(inst_path), "--output", str(out),
            "--dks", "exact", "--eps", "1/4",
        ]) == 0
    assert sol_a.read_bytes() == sol_b.read_bytes()

    bench_json_a, bench_json_b = tmp_path / "ba.json", tmp_path / "bb.json"
    bench_args = ["bench", "--trials", "5", "--n-range", "4:8", "--dks", "exact", "--seed", "13"]
    assert main(bench_args + ["--json-out", str(bench_json_a)]) == 0
    text_a = capsys.readouterr().out
    assert main(bench_args + ["--json-out", str(bench_json_b)]) == 0
    text_b = capsys.readouterr().out
    assert text_a == text_b
    assert bench_json_a.read_bytes() == bench_json_b.read_bytes()
    _passed(9, "solution files, bench tables and bench JSON byte-identical")
