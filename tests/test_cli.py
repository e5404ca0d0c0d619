"""CLI commands: solve, generate, bench, verify."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from helpers import bucketed_instance
from qkpapprox import cli
from qkpapprox.cli import main
from qkpapprox.generate import random_instance
from qkpapprox.instance import QkpInstance, dumps_canonical, instance_to_json_obj
from qkpapprox.oracle import exact_qkp
from qkpapprox.orchestrator import SolveConfig, solve


def write_triangle(path, limit=2):
    inst = QkpInstance(
        n=3, cost=(1, 1, 1), vprofit=(0, 0, 0),
        edges=((0, 1, 1), (1, 2, 1), (0, 2, 1)), limit=limit,
    )
    path.write_text(dumps_canonical(instance_to_json_obj(inst)))
    return inst


def test_solve_triangle(tmp_path, capsys):
    inst_path = tmp_path / "tri.json"
    out_path = tmp_path / "sol.json"
    inst = write_triangle(inst_path)
    code = main(["solve", "--input", str(inst_path), "--output", str(out_path)])
    assert code == 0
    sol = json.loads(out_path.read_text())
    assert sol["profit"] == exact_qkp(inst).total_profit == 1
    assert sol["cost"] <= 2


def test_solve_writes_report_and_dump(tmp_path):
    inst_path = tmp_path / "tri.json"
    inst = write_triangle(inst_path)
    report = tmp_path / "report.json"
    dump = tmp_path / "decomp.json"
    code = main([
        "solve", "--input", str(inst_path), "--output", str(tmp_path / "s.json"),
        "--report", str(report), "--dump-decomposition", str(dump),
        "--dks", "exact",
    ])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["backend"] == "exact"
    assert any(r["case"] == "singleton_pair_scan" for r in rep["records"])
    # the CLI times the solve and adds wall_ms; the rest is the library's report
    wall_ms = rep.pop("wall_ms")
    assert type(wall_ms) in (int, float) and wall_ms >= 0
    assert rep == solve(inst, SolveConfig(dks_backend="exact"))[1].to_json_obj()
    assert json.loads(dump.read_text())[0]["class"] == 1


# sha256 of the dump and of the library's report for one seeded
# instance that reaches classes 1, 3, 4 and 5.  A change to either means
# the decomposition or a candidate changed.
PINNED_DUMP_SHA256 = "ae753e167ed2516303f96c786c9f5d4e84120a777856aea9952f47a67c80ea17"
PINNED_REPORT_SHA256 = "f524b3b35525addaccc69980d6a6388aeb68c621231f7b73f4d2e6b472c9cb29"


def test_dump_and_report_bytes_are_pinned(tmp_path):
    inst = random_instance(30, 0.4, 1000, 20, "1/3", seed=1)
    inst_path, dump = tmp_path / "inst.json", tmp_path / "dump.json"
    inst_path.write_text(dumps_canonical(instance_to_json_obj(inst)))
    code = main([
        "solve", "--input", str(inst_path), "--output", str(tmp_path / "s.json"),
        "--dump-decomposition", str(dump),
    ])
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == PINNED_DUMP_SHA256
    _, report = solve(inst)
    text = dumps_canonical(report.to_json_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256


# sha256 of the timing-free `qkp solve --dks exact --report` on
# bucketed_instance(random.Random(1)), with --alpha 1/2 and without (the
# exact backend's alpha 0): 1/2 moves the five case-2 class-5 records to
# case 1.  Both values were computed before --alpha went through DksBackend.
PINNED_ALPHA_HALF_SHA256 = "fbad76b61887696b72d61aa02f9d5ea858e8cf58ca3404a4314df6bf5a2157d3"
PINNED_ALPHA_EXACT_SHA256 = "f9989106df8aea25f1bee201b092c203347bc6e599976290daf64993f2277c6c"


def test_solve_alpha_flag_chooses_class5_case(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst = bucketed_instance(random.Random(1))
    inst_path.write_text(dumps_canonical(instance_to_json_obj(inst)))
    solve_args = [
        "solve", "--input", str(inst_path), "--output", str(tmp_path / "s.json"),
        "--dks", "exact", "--report", str(tmp_path / "report.json"),
    ]

    def report(*extra):
        assert main(solve_args + list(extra)) == 0
        obj = json.loads((tmp_path / "report.json").read_text())
        del obj["wall_ms"]
        cases = [r["case"] for r in obj["records"] if r["class"] == 5]
        return hashlib.sha256(dumps_canonical(obj).encode()).hexdigest(), cases

    digest, cases = report("--alpha", "1/2")
    assert digest == PINNED_ALPHA_HALF_SHA256
    assert "case1" in cases and "case2" not in cases
    digest, cases = report()
    assert digest == PINNED_ALPHA_EXACT_SHA256
    assert cases.count("case2") == 5
    assert main(solve_args + ["--alpha", "2"]) == 2


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--input", str(bad)]) == 2


def test_solve_invalid_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical({
        "n": 2, "limit": 4, "costs": [1, -1], "vertex_profits": [0, 0], "edges": [],
    }))
    assert main(["solve", "--input", str(bad)]) == 2


@pytest.mark.parametrize("field, value", [
    ("costs", "12"),
    ("vertex_profits", "34"),
    ("edges", [[0, 1, 3, 99]]),
    ("limit", "1/0"),
])
def test_solve_and_verify_reject_a_non_array_field(tmp_path, capsys, field, value):
    # a string is not read as a list of digits, nor an edge cut to 3
    # entries, and a zero denominator is no ZeroDivisionError traceback
    obj = {"n": 2, "limit": 5, "costs": [1, 2], "vertex_profits": [3, 4], "edges": [[0, 1, 3]]}
    obj[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    sol = tmp_path / "sol.json"
    sol.write_text('{"vertices": [0], "cost": 1, "profit": 3}')
    assert main(["solve", "--input", str(bad)]) == 2
    assert main(["verify", "--input", str(bad), "--solution", str(sol)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: cannot read instance: malformed instance document: ")
               for line in err)


def test_verify_rejects_a_zero_denominator_in_the_solution(tmp_path, capsys):
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    write_triangle(inst_path)
    sol_path.write_text('{"vertices": [0], "cost": "1/0", "profit": 0}')
    assert main(["verify", "--input", str(inst_path), "--solution", str(sol_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot read solution: zero denominator in '1/0'"]


def test_solve_rejects_non_integer_vertex_count(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2.5, "limit": 4, "costs": [1, 1], "vertex_profits": [0, 0], "edges": []}')
    assert main(["solve", "--input", str(bad)]) == 2
    assert "expected an integer" in capsys.readouterr().err


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--nonsense"])
    assert err.value.code == 2


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--n", "10", "--density", "0.5", "--seed", "7"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_density_extremes(tmp_path):
    p0 = tmp_path / "d0.json"
    p1 = tmp_path / "d1.json"
    main(["generate", "--n", "6", "--density", "0", "--output", str(p0)])
    main(["generate", "--n", "6", "--density", "1", "--output", str(p1)])
    assert json.loads(p0.read_text())["edges"] == []
    assert len(json.loads(p1.read_text())["edges"]) == 15


def test_generate_bad_parameters(tmp_path):
    assert main(["generate", "--n", "-3", "--density", "0.5"]) == 2
    assert main(["generate", "--n", "3", "--density", "1.5"]) == 2


@pytest.mark.parametrize(
    "flags", [["--density", "2"], ["--max-cost", "0"], ["--limit-frac", "-1"]]
)
def test_generator_flag_errors_match_in_generate_and_bench(flags, capsys):
    assert main(["generate", "--n", "5", "--density", "0.5"] + flags) == 2
    generate_err = capsys.readouterr().err
    assert main(["bench", "--trials", "1", "--n-range", "5"] + flags) == 2
    assert capsys.readouterr().err == generate_err
    assert generate_err.startswith("error: ")


@pytest.mark.parametrize(
    "flags", [["--density", "2"], ["--max-cost", "0"], ["--limit-frac", "-1"]]
)
def test_bench_checks_generator_flags_with_zero_trials(flags, capsys):
    # no trial draws an instance, and the flags are still checked
    assert main(["generate", "--n", "5", "--density", "0.5"] + flags) == 2
    generate_err = capsys.readouterr().err
    assert main(["bench", "--trials", "0", "--n-range", "5"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == generate_err


def test_round_trip_generate_solve_verify(tmp_path):
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    assert main([
        "generate", "--n", "12", "--density", "0.6", "--seed", "3",
        "--output", str(inst_path),
    ]) == 0
    assert main([
        "solve", "--input", str(inst_path), "--output", str(sol_path),
    ]) == 0
    assert main([
        "verify", "--input", str(inst_path), "--solution", str(sol_path),
    ]) == 0


def test_verify_rejects_infeasible(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_triangle(inst_path, limit=2)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(dumps_canonical({"vertices": [0, 1, 2], "cost": 3, "profit": 3}))
    assert main(["verify", "--input", str(inst_path), "--solution", str(sol_path)]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_verify_rejects_tampered_profit(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    write_triangle(inst_path)
    main(["solve", "--input", str(inst_path), "--output", str(sol_path)])
    obj = json.loads(sol_path.read_text())
    obj["profit"] = 99
    sol_path.write_text(dumps_canonical(obj))
    assert main(["verify", "--input", str(inst_path), "--solution", str(sol_path)]) == 1
    out = capsys.readouterr().out
    assert "claimed 99" in out


# the solution of `qkp generate --n 6 --density 0.6 --seed 3` is [0, 1, 4]
@pytest.mark.parametrize(
    "vertices", [[Fraction(1, 2), 1, 4], [0, True, 4], ["0", "1", "4"], [0, 1, 4, 0]]
)
def test_verify_rejects_malformed_vertex_ids(tmp_path, capsys, vertices):
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    main(["generate", "--n", "6", "--density", "0.6", "--seed", "3", "--output", str(inst_path)])
    main(["solve", "--input", str(inst_path), "--output", str(sol_path)])
    obj = json.loads(sol_path.read_text())
    assert obj["vertices"] == [0, 1, 4]
    verify = ["verify", "--input", str(inst_path), "--solution", str(sol_path)]
    assert main(verify) == 0
    text = json.dumps(dict(obj, vertices=vertices), default=float)
    sol_path.write_text(text)
    assert main(verify) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("vertices", ["014", {"0": 1}, 5])
def test_verify_rejects_a_non_array_vertices_field(tmp_path, capsys, vertices):
    # a string is not read as its characters, nor an object as its keys
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    write_triangle(inst_path)
    sol_path.write_text(json.dumps({"vertices": vertices, "cost": 0, "profit": 0}))
    assert main(["verify", "--input", str(inst_path), "--solution", str(sol_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0].startswith(
        "error: cannot read solution: expected a vertex array"
    )


def test_verify_rejects_an_instance_that_solve_rejects(tmp_path, capsys):
    # the duplicated edge would be counted twice: profit 6 would verify
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps({
        "n": 2, "limit": 5, "costs": [1, -1], "vertex_profits": [0, 0],
        "edges": [[0, 1, 3], [1, 0, 3]],
    }))
    sol_path.write_text(json.dumps({"vertices": [0, 1], "cost": 0, "profit": 6}))
    for argv in (
        ["verify", "--input", str(inst_path), "--solution", str(sol_path)],
        ["solve", "--input", str(inst_path)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid instance: ")
        assert "duplicate edge" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--output", "{missing}/s.json"],
    ["solve", "--report", "{missing}/r.json"],
    ["solve", "--dump-decomposition", "{missing}/d.json"],
    ["generate", "--n", "4", "--density", "0.5", "--output", "{missing}/i.json"],
    ["bench", "--trials", "1", "--n-range", "4", "--json-out", "{missing}/b.json"],
])
def test_write_into_a_missing_directory_exits_two(tmp_path, capsys, argv):
    inst_path = tmp_path / "tri.json"
    write_triangle(inst_path)
    if argv[0] == "solve":
        argv = argv + ["--input", str(inst_path)]
    missing = str(tmp_path / "missing")
    assert main([a.replace("{missing}", missing) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_solve_fails_fast_on_an_unwritable_output(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "tri.json"
    write_triangle(inst_path)
    solves = []
    monkeypatch.setattr(cli, "solve", lambda *a: solves.append(a) or solve(*a))
    code = main([
        "solve", "--input", str(inst_path), "--output", str(tmp_path / "s.json"),
        "--report", str(tmp_path / "missing" / "r.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write output")
    assert not (tmp_path / "s.json").exists()
    assert solves == []


@pytest.mark.parametrize("flags", [
    ["--output", "{input}"],
    ["--report", "{input}"],
    ["--dump-decomposition", "{input}"],
    ["--output", "{link}"],
    ["--output", "{out}", "--report", "{out}"],
    ["--report", "{out}", "--dump-decomposition", "{link_out}"],
    ["--output", "{hard_link}"],
])
def test_solve_refuses_two_flags_on_one_file(tmp_path, capsys, monkeypatch, flags):
    names = ("input", "link", "hard_link", "out", "link_out")
    paths = {k: str(tmp_path / f"{k}.json") for k in names}
    inst_path = tmp_path / "input.json"
    write_triangle(inst_path)
    before = inst_path.read_bytes()
    (tmp_path / "link.json").symlink_to(inst_path)
    os.link(inst_path, tmp_path / "hard_link.json")
    (tmp_path / "link_out.json").symlink_to(tmp_path / "out.json")
    solves = []
    monkeypatch.setattr(cli, "solve", lambda *a: solves.append(a) or solve(*a))
    argv = ["solve", "--input", str(inst_path)] + [f.format(**paths) for f in flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --")
    assert inst_path.read_bytes() == before
    assert not (tmp_path / "out.json").exists()
    assert solves == []
    # the instance is still whole: a second solve reads it
    assert main(["solve", "--input", str(inst_path)]) == 0


def test_bench_zero_trials(tmp_path, capsys):
    assert main(["bench", "--trials", "0", "--n-range", "4:6"]) == 0
    out = capsys.readouterr().out
    assert "ratio" in out  # header only


def test_bench_negative_trials_is_a_usage_error(capsys):
    assert main(["bench", "--trials", "-2", "--n-range", "6:8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --trials")


def test_bench_rows_and_json(tmp_path, capsys):
    json_out = tmp_path / "bench.json"
    code = main([
        "bench", "--trials", "6", "--n-range", "4:6", "--dks", "exact",
        "--seed", "11", "--json-out", str(json_out),
    ])
    assert code == 0
    rows = json.loads(json_out.read_text())["rows"]
    assert len(rows) == 6
    assert all(r["ok"] for r in rows)
    assert rows == sorted(rows, key=lambda r: (r["n"], r["seed"]))


def test_bench_skips_oversized_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QKP_ORACLE_MAX_N", "5")
    code = main(["bench", "--trials", "2", "--n-range", "8:9", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_bench_raises_the_oracle_guard_from_the_environment(monkeypatch, capsys):
    # n = 24 is past the default guard of 22: skipped, until the variable lifts it
    args = ["bench", "--trials", "1", "--n-range", "24", "--dks", "exact"]
    assert main(args) == 0
    assert "trial 0: oracle capacity exceeded at n=24, skipped" in capsys.readouterr().out
    monkeypatch.setenv("QKP_ORACLE_MAX_N", "24")
    assert main(args) == 0
    assert "skipped" not in capsys.readouterr().out


def test_bench_rejects_non_integer_oracle_guard(monkeypatch, capsys):
    monkeypatch.setenv("QKP_ORACLE_MAX_N", "abc")
    assert main(["bench", "--trials", "1", "--n-range", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: QKP_ORACLE_MAX_N")


def test_bench_rejects_a_negative_oracle_guard(monkeypatch, capsys):
    # a guard of -1 would skip every trial and exit 0
    monkeypatch.setenv("QKP_ORACLE_MAX_N", "-1")
    assert main(["bench", "--trials", "1", "--n-range", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: QKP_ORACLE_MAX_N must be a non-negative int, got -1\n"


def test_bench_json_out_into_a_missing_directory_fails_before_any_trial(tmp_path, capsys):
    path = tmp_path / "missing" / "b.json"
    assert main(["bench", "--trials", "1", "--n-range", "5", "--json-out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write output: no directory for {path}\n"


def test_bench_deterministic_output(tmp_path, capsys):
    args = ["bench", "--trials", "4", "--n-range", "4:7", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_solve_batch_directory(tmp_path):
    in_dir = tmp_path / "instances"
    out_dir = tmp_path / "solutions"
    in_dir.mkdir()
    for seed in (1, 2, 3):
        main([
            "generate", "--n", "8", "--density", "0.5", "--seed", str(seed),
            "--output", str(in_dir / f"i{seed}.json"),
        ])
    assert main(["solve", "--input", str(in_dir), "--output", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["i1.json", "i2.json", "i3.json"]
    for seed in (1, 2, 3):
        assert main([
            "verify", "--input", str(in_dir / f"i{seed}.json"),
            "--solution", str(out_dir / f"i{seed}.json"),
        ]) == 0


def test_solve_batch_requires_output_dir(tmp_path):
    in_dir = tmp_path / "instances"
    in_dir.mkdir()
    assert main(["solve", "--input", str(in_dir)]) == 2


def test_solve_batch_refuses_to_write_over_its_input(tmp_path, capsys):
    in_dir = tmp_path / "instances"
    in_dir.mkdir()
    write_triangle(in_dir / "tri.json")
    before = (in_dir / "tri.json").read_bytes()
    same = tmp_path / "link"
    same.symlink_to(in_dir)
    for output in (in_dir, same):
        assert main(["solve", "--input", str(in_dir), "--output", str(output)]) == 2
        assert capsys.readouterr().err.startswith("error: --output is the --input directory")
    assert (in_dir / "tri.json").read_bytes() == before
    assert [p.name for p in in_dir.iterdir()] == ["tri.json"]


@pytest.mark.parametrize("link", ["symlink", "hard link"])
def test_solve_batch_refuses_a_solution_file_that_is_its_instance(
    tmp_path, capsys, monkeypatch, link
):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    write_triangle(in_dir / "a.json")
    write_triangle(in_dir / "b.json", limit=3)
    before = (in_dir / "b.json").read_bytes()
    # b's solution file is b itself, and a's would be written first
    if link == "symlink":
        (out_dir / "b.json").symlink_to("../in/b.json")
    else:
        os.link(in_dir / "b.json", out_dir / "b.json")
    solves = []
    monkeypatch.setattr(cli, "solve", lambda *a: solves.append(a) or solve(*a))
    assert main(["solve", "--input", str(in_dir), "--output", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: --output is the same file as --input")
    assert (in_dir / "b.json").read_bytes() == before
    assert not (out_dir / "a.json").exists()
    assert solves == []


def test_solve_batch_without_instances_creates_no_output(tmp_path, capsys):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    assert main(["solve", "--input", str(in_dir), "--output", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: no .json instances in ")
    assert not out_dir.exists()


def test_solve_batch_output_is_an_existing_file(tmp_path, capsys):
    in_dir = tmp_path / "instances"
    in_dir.mkdir()
    write_triangle(in_dir / "tri.json")
    taken = tmp_path / "taken.json"
    taken.write_text("")
    assert main(["solve", "--input", str(in_dir), "--output", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert taken.read_text() == ""
