"""Command-line front end: solve, generate, bench and verify commands.

Instances travel as canonical JSON documents; rationals serialize as
"p/q" strings when non-integral.  Every output is deterministic for a
fixed seed and configuration, except the wall_ms that `solve --report`
adds: the time of the solve call, measured here.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from contextlib import suppress
from fractions import Fraction

from .decompose import decompose
from .dks import get_backend
from .errors import CapacityError, InvalidInstanceError
from .generate import random_instance
from .instance import (
    _array,
    dumps_canonical,
    evaluate,
    instance_to_json_obj,
    load_instance,
)
from .knapsack import DEFAULT_KNAPSACK_EPS
from .oracle import DEFAULT_MAX_N, exact_qkp
from .orchestrator import SolveConfig, guaranteed_floor, solve
from .preprocess import prepare
from .rational import as_rational, non_negative_int, rational_to_json


def _rational_arg(text: str):
    try:
        return as_rational(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _missing_output_dir(*paths) -> int | None:
    """Fail (2) on the first path whose directory is missing; else None."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            return _fail(f"cannot write output: no directory for {path}", 2)


def _shared_path(input_path: str, outputs: dict) -> int | None:
    """Fail (2) on the first output path, by flag, that resolves to the
    input or to an earlier output, which a write would replace; else None."""
    seen = {os.path.realpath(input_path): "--input"}
    for flag, path in outputs.items():
        if path is not None:
            real = os.path.realpath(path)
            if real in seen:
                return _fail(f"{flag} is the same file as {seen[real]}: a write would replace it", 2)
            seen[real] = flag


def _load_valid(path: str):
    """(instance, None), or (None, why) when the file at path does not
    read, parse or hold a valid instance."""
    try:
        return load_instance(path), None
    except InvalidInstanceError as exc:
        return None, str(exc)
    except (OSError, ValueError) as exc:
        return None, f"cannot read instance: {exc}"


def _solve_one(input_path: str, output_path: str | None, cfg: SolveConfig, args) -> int:
    inst, error = _load_valid(input_path)
    if error:
        return _fail(error, 2)
    t0 = time.perf_counter()
    solution, report = solve(inst, cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if solution.total_cost > inst.limit:
        return _fail("internal error: infeasible solution produced", 3)
    _write(dumps_canonical(solution.to_json_obj()), output_path)
    if args.report:
        obj = report.to_json_obj()
        obj["wall_ms"] = round(wall_ms, 3)
        _write(dumps_canonical(obj), args.report)
    if args.dump_decomposition:
        subs = decompose(prepare(inst))
        _write(
            dumps_canonical([s.to_json_obj() for s in subs]),
            args.dump_decomposition,
        )
    return 0


def cmd_solve(args) -> int:
    try:
        backend = get_backend(args.dks)
        if args.alpha is not None:
            backend = dataclasses.replace(backend, declared_alpha=args.alpha)
        cfg = SolveConfig(dks_backend=backend, knapsack_eps=args.eps)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if not os.path.isdir(args.input):
        # fail before the solve, not after it has written a first output
        outputs = {
            "--output": args.output,
            "--report": args.report,
            "--dump-decomposition": args.dump_decomposition,
        }
        if code := _shared_path(args.input, outputs) or _missing_output_dir(*outputs.values()):
            return code
        return _solve_one(args.input, args.output, cfg, args)
    # batch mode: one instance per file, solutions mirror the file names
    if not args.output:
        return _fail("batch solve needs --output pointing at a directory", 2)
    if args.report or args.dump_decomposition:
        return _fail("--report/--dump-decomposition are single-instance flags", 2)
    if os.path.realpath(args.output) == os.path.realpath(args.input):
        return _fail("--output is the --input directory: solutions would overwrite instances", 2)
    os.makedirs(args.output, exist_ok=True)
    names = sorted(
        name for name in os.listdir(args.input) if name.endswith(".json")
    )
    if not names:
        return _fail(f"no .json instances in {args.input}", 2)
    for name in names:
        code = _solve_one(
            os.path.join(args.input, name), os.path.join(args.output, name), cfg, args
        )
        if code != 0:
            return code
    return 0


def _draw(args, n: int, seed: int):
    """random_instance from the shared generator flags and args.density."""
    return random_instance(
        n, args.density, args.max_cost, args.max_profit, args.limit_frac, seed
    )


def cmd_generate(args) -> int:
    try:
        inst = _draw(args, args.n, args.seed)
    except ValueError as exc:
        return _fail(str(exc), 2)
    _write(dumps_canonical(instance_to_json_obj(inst)), args.output)
    return 0


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        lo = hi = text
    lo, hi = int(lo), int(hi)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad n-range {text!r}")
    return lo, hi


def cmd_bench(args) -> int:
    if args.trials < 0:
        return _fail(f"--trials must be >= 0, got {args.trials}", 2)
    try:
        lo, hi = _parse_n_range(args.n_range)
        cfg = SolveConfig(dks_backend=args.dks, knapsack_eps=args.eps)
        # the oracle's size guard, read once for the whole run
        max_n = os.environ.get("QKP_ORACLE_MAX_N", str(DEFAULT_MAX_N))
        with suppress(ValueError):
            max_n = int(max_n)
        max_n = non_negative_int(max_n, "QKP_ORACLE_MAX_N")
        _draw(args, 0, args.seed)  # the generator flags, also when no trial runs
    except ValueError as exc:
        return _fail(str(exc), 2)
    if code := _missing_output_dir(args.json_out):  # before the first trial
        return code

    rows = []
    notices = []
    violations = 0
    for trial in range(args.trials):
        n = lo + (trial % (hi - lo + 1))
        seed = args.seed + trial
        try:
            inst = _draw(args, n, seed)
            opt = exact_qkp(inst, max_n)
        except CapacityError:
            notices.append(f"trial {trial}: oracle capacity exceeded at n={n}, skipped")
            continue
        sol, report = solve(inst, cfg)
        floor = guaranteed_floor(n)
        if opt.total_profit > 0:
            ratio = Fraction(sol.total_profit) / Fraction(opt.total_profit)
        else:
            ratio = Fraction(1)
        ok = ratio >= floor
        if args.dks == "exact" and not ok:
            violations += 1
        rows.append(
            {
                "trial": trial,
                "n": n,
                "seed": seed,
                "opt": rational_to_json(opt.total_profit),
                "alg": rational_to_json(sol.total_profit),
                "ratio": float(ratio),
                "floor": float(floor),
                "winner_class": report.best_class,
                "ok": ok,
            }
        )

    rows.sort(key=lambda r: (r["n"], r["seed"]))
    header = f"{'n':>4} {'seed':>8} {'opt':>12} {'alg':>12} {'ratio':>10} {'floor':>12} {'class':>5}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['n']:>4} {r['seed']:>8} {str(r['opt']):>12} {str(r['alg']):>12} "
            f"{r['ratio']:>10.6f} {r['floor']:>12.8f} {r['winner_class']:>5}"
        )
    for notice in notices:
        lines.append(f"# {notice}")
    print("\n".join(lines))
    if args.json_out:
        _write(dumps_canonical({"rows": rows, "notices": notices}), args.json_out)
    if violations:
        return _fail(
            f"{violations} trial(s) fell below the guaranteed floor with the exact backend",
            1,
        )
    return 0


def cmd_verify(args) -> int:
    inst, error = _load_valid(args.input)
    if error:
        return _fail(error, 2)
    try:
        with open(args.solution, "r", encoding="utf-8") as fh:
            claimed = json.load(fh, parse_float=Fraction)
        vertices = _array(claimed["vertices"], "a vertex array")
        claimed_cost = as_rational(claimed["cost"])
        claimed_profit = as_rational(claimed["profit"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"cannot read solution: {exc}", 2)

    try:
        cost, profit = evaluate(inst, vertices)
    except (TypeError, ValueError) as exc:  # TypeError: an unhashable id
        print(f"MISMATCH: {exc}")
        return 1
    issues = []
    if len(set(vertices)) != len(vertices):
        issues.append("repeated vertex id")
    if cost > inst.limit:
        issues.append(f"infeasible: cost {cost} exceeds limit {inst.limit}")
    if cost != claimed_cost:
        issues.append(f"cost: claimed {claimed_cost}, recomputed {cost}")
    if profit != claimed_profit:
        issues.append(f"profit: claimed {claimed_profit}, recomputed {profit}")
    if issues:
        for issue in issues:
            print(f"MISMATCH: {issue}")
        return 1
    print("OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkp",
        description="Approximate quadratic knapsack solver with DkS backends",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the random_instance flags that generate and bench share; each command
    # adds its own --density, required by generate and 0.5 in bench
    gen_flags = argparse.ArgumentParser(add_help=False)
    gen_flags.add_argument("--max-cost", type=int, default=20)
    gen_flags.add_argument("--max-profit", type=int, default=20)
    gen_flags.add_argument("--limit-frac", type=_rational_arg, default=Fraction(1, 2))
    gen_flags.add_argument("--seed", type=int, default=0)

    p_solve = sub.add_parser("solve", help="solve an instance file (or a directory of them)")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument(
        "--output",
        default=None,
        help="solution JSON (default stdout); a directory in batch mode",
    )
    p_solve.add_argument("--dks", choices=["exact", "greedy"], default="greedy")
    p_solve.add_argument("--eps", type=_rational_arg, default=DEFAULT_KNAPSACK_EPS)
    p_solve.add_argument("--alpha", type=_rational_arg, default=None)
    p_solve.add_argument("--report", default=None, help="write the run report JSON here")
    p_solve.add_argument(
        "--dump-decomposition", default=None, help="write the sub-instance dump here"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser(
        "generate", parents=[gen_flags], help="generate a random instance"
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--output", default=None, help="instance JSON (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser(
        "bench", parents=[gen_flags], help="measure ratios against the exact oracle"
    )
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--n-range", required=True, help="e.g. 6:12")
    p_bench.add_argument("--dks", choices=["exact", "greedy"], default="greedy")
    p_bench.add_argument("--density", type=float, default=0.5)
    p_bench.add_argument("--eps", type=_rational_arg, default=DEFAULT_KNAPSACK_EPS)
    p_bench.add_argument("--json-out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="check a solution file")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--solution", required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # instance and solution reads fail earlier, with their own message
        return _fail(f"cannot write output: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
