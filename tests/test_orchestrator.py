"""End-to-end solves, the guaranteed floor and determinism."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_opt,
    bucketed_instance,
    instance_total_profit,
    qkp_instances,
    rational_instances,
    rationals,
    reference_solve,
    tail_instance,
    ungated_best,
)
from qkpapprox import orchestrator, random_instance
from qkpapprox.classsolvers import ClassOutcome
from qkpapprox.decompose import SubInstance, decompose
from qkpapprox.dks import DksBackend, dks_exact, dks_greedy_peel, get_backend
from qkpapprox.instance import QkpInstance, evaluate
from qkpapprox.orchestrator import (
    RunReport,
    SolveConfig,
    _beats,
    guaranteed_floor,
    solve,
)
from qkpapprox.preprocess import prepare


def test_path_instance():
    inst = QkpInstance(
        n=3, cost=(1, 1, 1), vprofit=(0, 0, 0),
        edges=((0, 1, 1), (1, 2, 1)), limit=2,
    )
    sol, report = solve(inst)
    assert sol.total_profit == 1
    assert sol.total_cost <= 2


def test_always_include_base_profit():
    inst = QkpInstance(
        n=2, cost=(0, 50), vprofit=(7, 100), edges=(), limit=1
    )
    sol, _ = solve(inst)
    assert sol.total_profit == 7
    assert sol.vertices == (0,)


def test_unconstrained_limit_saturates():
    inst = QkpInstance(
        n=4,
        cost=(1, 2, 3, 4),
        vprofit=(1, 1, 1, 1),
        edges=((0, 1, 5), (2, 3, 5)),
        limit=10,
    )
    sol, _ = solve(inst)
    assert sol.total_profit == instance_total_profit(inst)
    assert sol.vertices == (0, 1, 2, 3)


def test_floor_values():
    assert guaranteed_floor(8) == Fraction(1, 8256)
    assert guaranteed_floor(1) == Fraction(1, 192)
    assert guaranteed_floor(16) < guaranteed_floor(8)
    with pytest.raises(ValueError):
        guaranteed_floor(0)


@pytest.mark.parametrize("n", [2.5, True, Fraction(8), "8"])
def test_floor_needs_an_int_n(n):
    # 2.5 raised AttributeError, True read as 1, Fraction(8) as 8
    with pytest.raises(ValueError, match="n must be an int >= 1"):
        guaranteed_floor(n)


def test_invalid_instance_rejected():
    # the constructor refuses it, so solve never sees an invalid instance
    with pytest.raises(ValueError):
        QkpInstance(n=1, cost=(-1,), vprofit=(0,), edges=(), limit=1)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(knapsack_eps=Fraction(3, 2))
    with pytest.raises(ValueError):
        DksBackend("exact", 2, dks_exact)


@pytest.mark.parametrize("name", ["nope", 3, [1]])
def test_config_rejects_an_unknown_backend(name):
    # resolved when the config is built, not inside solve
    with pytest.raises(ValueError) as err:
        SolveConfig(dks_backend=name)
    assert str(err.value) == f"unknown DkS backend {name!r}; choose from ['exact', 'greedy']"
    assert SolveConfig(dks_backend="exact").dks_backend is get_backend("exact")


def test_config_normalises_eps_and_alpha():
    # floats are refused when the config is built, not inside a solver
    with pytest.raises(TypeError):
        SolveConfig(dks_backend=DksBackend("greedy", 0.5, dks_greedy_peel))
    with pytest.raises(TypeError):
        SolveConfig(knapsack_eps=0.25)
    backend = DksBackend("greedy", "1/2", dks_greedy_peel)
    assert backend.declared_alpha == Fraction(1, 2)
    cfg = SolveConfig(dks_backend=backend)
    # reaches class 5, the one reader of alpha
    inst = random_instance(30, 0.4, 1000, 20, "1/3", seed=1)
    _, report = solve(inst, cfg)
    assert any(r.class_tag == 5 and r.case == "case1" for r in report.records)


def test_determinism_same_config():
    inst = QkpInstance(
        n=6,
        cost=(3, 1, 4, 1, 5, 2),
        vprofit=(0, 2, 0, 1, 0, 0),
        edges=((0, 1, 3), (1, 2, 5), (2, 3, 1), (3, 4, 8), (4, 5, 2), (0, 5, 4)),
        limit=8,
    )
    for backend in ("greedy", "exact"):
        cfg = SolveConfig(dks_backend=backend)
        sol1, rep1 = solve(inst, cfg)
        sol2, rep2 = solve(inst, cfg)
        # plain data, records included: no wall-clock field tells them apart
        assert (sol1, rep1) == (sol2, rep2)


def test_report_invariants():
    inst = QkpInstance(
        n=5,
        cost=(2, 2, 2, 2, 2),
        vprofit=(1, 0, 0, 0, 1),
        edges=((0, 1, 4), (1, 2, 2), (3, 4, 6)),
        limit=6,
    )
    sol, report = solve(inst)
    assert isinstance(report, RunReport)
    assert report.solution == sol
    feas = [evaluate(inst, r.vertices)[1] for r in report.records if r.feasible]
    assert max(feas) == sol.total_profit
    assert report.records[-1].case == "singleton_pair_scan"
    prep = prepare(inst)
    lifted = prep.always_include.union(prep.orig_of[r] for r in prep.fallback)
    assert report.records[-1].vertices == tuple(sorted(lifted))
    obj = report.to_json_obj()
    # the CLI times the solve; the library's report holds no wall time
    assert "wall_ms" not in obj
    assert [(r["size"], r["cost"], r["profit"]) for r in obj["records"]] == [
        (len(r.vertices), *evaluate(inst, r.vertices)) for r in report.records
    ]


@given(qkp_instances(max_n=10), st.sampled_from(["greedy", "exact"]))
@settings(max_examples=60, deadline=None)
def test_solve_always_feasible_and_dominated_by_oracle(inst, backend):
    sol, _ = solve(inst, SolveConfig(dks_backend=backend))
    assert sol.total_cost <= inst.limit
    opt, _ = brute_force_opt(inst)
    assert sol.total_profit <= opt
    assert sol.total_profit >= 0


@given(qkp_instances(max_n=10))
@settings(max_examples=40, deadline=None)
def test_exact_backend_respects_floor(inst):
    sol, _ = solve(inst, SolveConfig(dks_backend="exact"))
    opt, _ = brute_force_opt(inst)
    if inst.n >= 1:
        assert sol.total_profit >= guaranteed_floor(inst.n) * opt


@given(qkp_instances(max_n=8), st.integers(-3, 5))
@settings(max_examples=60, deadline=None)
def test_profit_scaling_by_powers_of_two_keeps_argmax(inst, exp):
    gamma = Fraction(2) ** exp
    scaled = QkpInstance(
        n=inst.n,
        cost=inst.cost,
        vprofit=tuple(p * gamma for p in inst.vprofit),
        edges=tuple((u, v, p * gamma) for u, v, p in inst.edges),
        limit=inst.limit,
    )
    sol, _ = solve(inst, SolveConfig(dks_backend="greedy"))
    sol_scaled, _ = solve(scaled, SolveConfig(dks_backend="greedy"))
    assert sol_scaled.vertices == sol.vertices
    assert sol_scaled.total_profit == gamma * sol.total_profit


def test_zero_vertex_instance():
    inst = QkpInstance(n=0, cost=(), vprofit=(), edges=(), limit=0)
    sol, report = solve(inst)
    assert sol.vertices == ()
    assert sol.total_profit == 0


def test_everything_pruned_leaves_base_candidate():
    inst = QkpInstance(n=2, cost=(9, 9), vprofit=(5, 5), edges=((0, 1, 3),), limit=4)
    sol, _ = solve(inst)
    assert sol.vertices == ()
    assert sol.total_profit == 0


@pytest.mark.parametrize("backend, best_class", [("exact", 0), ("greedy", 3)])
def test_fallback_scan_wins_and_loses_a_tie_on_the_same_set(backend, best_class):
    # both edges round to profit 2, so class 3 sees two equal edges: the
    # exact DkS takes (0, 1), of original profit 2, and the scan's pair
    # (2, 3), of profit 3, wins; the greedy peel takes (2, 3) itself, and
    # the class candidate, ranked before the scan, keeps the tie
    inst = QkpInstance(
        n=4, cost=(1, 1, 1, 1), vprofit=(0, 0, 0, 0),
        edges=((0, 1, 2), (2, 3, 3)), limit=2,
    )
    sol, report = solve(inst, SolveConfig(dks_backend=backend))
    assert (sol.vertices, sol.total_cost, sol.total_profit) == ((2, 3), 2, 3)
    assert report.best_class == best_class
    assert [(r.class_tag, r.vertices) for r in report.records[1:]] == [
        (3, (0, 1) if backend == "exact" else (2, 3)),
        (0, (2, 3)),
    ]


@st.composite
def _tied_instances(draw):
    """Class 1 first finds the isolated vertices 2 and 3, of profit 6u
    together.  The class-3 candidate {0, 1} that follows has profit 6u,
    its bound equals it, and its vertex tuple is smaller, so it wins the
    tie.  Zero-cost vertices join every candidate."""
    u = draw(st.sampled_from([1, 5, Fraction(1, 2), Fraction(2, 7)]))
    zeros = draw(st.integers(0, 2))
    n = 4 + zeros
    return QkpInstance(
        n=n,
        cost=(1, 1, 1, 1) + (0,) * zeros,
        vprofit=(0, 0, 3 * u, 3 * u) + (draw(rationals(3)),) * zeros,
        edges=((0, 1, 6 * u),),
        limit=draw(st.sampled_from([2, Fraction(5, 2), Fraction(15, 7)])),
    )


def _raw_evaluate(inst, vertices):
    """Cost and profit of vertices, summed from the raw edge list."""
    chosen = set(vertices)
    cost = sum((inst.cost[v] for v in chosen), 0)
    profit = sum((inst.vprofit[v] for v in chosen), 0)
    profit += sum((p for a, b, p in inst.edges if a in chosen and b in chosen), 0)
    return cost, profit


# the scan's options tie at profit 5 across the always-include vertex 3:
# its pair lifts to (0, 2, 3), which beats (0, 3), though reduced (0, 2) > (0,)
_SCAN_TIE = QkpInstance(4, (1, 1, 1, 0), (5, 0, 0, 0), ((0, 2, 0),), 2)
# a hub: class 3's pick and the scan are both the set (0, 1); class 3 keeps the tie
_HUB = QkpInstance(
    8, (1,) * 8, (0,) * 8,
    ((0, 1, 1000),) + tuple((u, v, 1) for u in range(1, 8) for v in range(u + 1, 8)),
    5,
)


@given(
    st.one_of(rational_instances(), _tied_instances()),
    st.sampled_from(["greedy", "exact"]),
)
@example(_SCAN_TIE, "greedy")
@example(_SCAN_TIE, "exact")
@example(_HUB, "greedy")
@example(_HUB, "exact")
@settings(max_examples=200, deadline=None)
def test_bound_gated_selection_matches_full_evaluation(inst, backend):
    sol, report = solve(inst, SolveConfig(dks_backend=backend))
    best = None
    for rec in report.records:
        cost, profit = _raw_evaluate(inst, rec.vertices)
        assert evaluate(inst, rec.vertices) == (cost, profit)
        assert rec.feasible == (cost <= inst.limit)
        if rec.feasible and _beats(profit, rec.vertices, best):
            best = (profit, rec.vertices, rec.class_tag)
    # the first record, in solve order, with the winning profit and tuple
    assert (sol.total_profit, sol.vertices, report.best_class) == best
    assert report.solution == sol
    # the same as evaluating every feasible candidate in solve order
    ref_sol, ref_report = reference_solve(inst, SolveConfig(dks_backend=backend))
    assert (sol, report) == (ref_sol, ref_report)


def test_bound_skips_candidates_that_cannot_win():
    inst = random_instance(100, 0.1, 1000, 1000, "1/2", seed=1)
    with mock.patch.object(orchestrator, "evaluate", wraps=evaluate) as spy:
        sol, report = solve(inst)
    assert len(report.records) == 88
    # the class-1 candidate has the largest bound and wins; every other
    # bound is below twice its profit, so only it is evaluated, and the
    # solution reuses its cost and profit
    assert spy.call_count == 1
    assert report.best_class == 1
    assert sol.total_profit == max(
        evaluate(inst, r.vertices)[1] for r in report.records if r.feasible
    )


@pytest.mark.parametrize("backend", ["greedy", "exact"])
def test_all_fit_gate_never_lowers_profit(backend):
    rng = random.Random(17)
    instances = (
        [random_instance(rng.randint(10, 40), rng.choice([0.2, 0.5]), 1000, 20, "1/3", seed=s)
         for s in range(8)]
        + [bucketed_instance(random.Random(s)) for s in range(2)]
        + [tail_instance(rng) for _ in range(16)]
    )
    cfg = SolveConfig(dks_backend=backend)
    seen = {"sum_all": set(), "overflow": set()}
    for inst in instances:
        sol, report = solve(inst, cfg)
        assert sol.total_profit >= ungated_best(inst, cfg)
        prep = prepare(inst)
        for sub, rec in zip(decompose(prep), report.records):
            assert rec.class_tag == sub.class_tag
            if sub.class_tag == 1:
                continue
            if sum(sub.cost_units[v] for v in sub.vertices) <= sub.limit_units:
                lifted = prep.always_include.union(prep.orig_of[r] for r in sub.vertices)
                assert (rec.case, rec.vertices) == ("sum_all", tuple(sorted(lifted)))
                seen["sum_all"].add(sub.class_tag)
            else:
                assert rec.case != "sum_all"
                seen["overflow"].add(sub.class_tag)
    # both sides of the gate ran in every class
    assert seen == {"sum_all": {2, 3, 4, 5}, "overflow": {2, 3, 4, 5}}


def test_fitting_class4_sub_is_not_enumerated():
    # one class-4 sub-instance here has 2 light and 18 heavy vertices and
    # fits its limit; the heavy-side enumeration stops at ENUM_COMBO_CAP
    # on it (enum_b4_capped), so it must be taken whole instead
    inst = random_instance(400, 0.1, 1000, 1000, "1/2", seed=1)
    _, report = solve(inst, SolveConfig(dks_backend="greedy"))
    assert not any("enum_b4_capped" in rec.fallbacks for rec in report.records)
    assert {rec.case for rec in report.records if rec.class_tag == 4} == {"sum_all"}



def test_records_are_immutable_tuples():
    inst = random_instance(12, 0.5, 20, 20, "1/2", seed=3)
    _, report = solve(inst)
    records = (decompose(prepare(inst))[-1], ClassOutcome((0,), "knapsack"), report.records[0])
    for rec, cls in zip(records, (SubInstance, ClassOutcome, orchestrator.SubRecord)):
        assert type(rec) is cls and isinstance(rec, tuple)
        for name in (rec._fields[0], rec._fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
    # the default NamedTuple repr: a record holds no instance
    rec = report.records[-1]
    assert repr(rec) == (
        f"SubRecord(class_tag=0, case='singleton_pair_scan', fallbacks=(), "
        f"vertices={rec.vertices!r}, feasible=True)"
    )


@st.composite
def _zero_cost_instances(draw):
    """rational_instances with exactly 1-3 zero-cost vertices, so every
    candidate carries a non-empty always-include set."""
    inst = draw(rational_instances())
    zeros = draw(st.sets(st.integers(0, inst.n - 1), min_size=1, max_size=3))
    cost = tuple(0 if v in zeros else (c or 1) for v, c in enumerate(inst.cost))
    return QkpInstance(inst.n, cost, inst.vprofit, inst.edges, inst.limit)


@given(_zero_cost_instances(), st.sampled_from(["greedy", "exact"]))
@settings(max_examples=150, deadline=None)
def test_lift_is_sorted_and_holds_the_always_include_set(inst, backend):
    cfg = SolveConfig(dks_backend=backend)
    sol, report = solve(inst, cfg)
    always = prepare(inst).always_include
    assert 1 <= len(always) <= 3
    for rec in report.records:
        assert all(a < b for a, b in zip(rec.vertices, rec.vertices[1:]))
        assert always <= set(rec.vertices)
    # reference_solve lifts by a frozenset union
    ref_sol, ref_report = reference_solve(inst, cfg)
    assert (sol, report) == (ref_sol, ref_report)
