"""Benchmark harness for qkpapprox.

Runs one workload's seeded instance set through ``qkpapprox.solve`` in
this single process and thread, checks every solution, and prints one
JSON object as the last line of standard output.  With ``--trace 0`` it
reports the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.

    python3 perfbench/run.py --workload random-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs each workload in a fresh process, so each one's
peak_rss_mb is its own, and prints every metric of every workload with
its unit.  Full results and the spans of a traced run are written under
perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3

# reported beside the BENCHMARK.json metrics but not gated by it: the
# uncalibrated times and the slowdown explain the gated ones, and the rest
# exist only on some workloads or are zero at a healthy commit
EXTRA_UNITS = {
    "wall_s.raw": "s",
    "solve_s.p50.raw": "s",
    "machine.slowdown": "x",
    "solve_s.p95": "s",
    "solve_s.samples": "count",
    "ratio.mean": "ratio",
    "ratio.min": "ratio",
    "failed_frac": "frac",
}

# a workload that stops reaching the layer it was chosen for fails
COVERAGE = {
    "bucketed-exact": ("classsolvers.case.case2", "dks.capacity_fallbacks"),
    "random-large": ("knapsack.fraction_calls",),
}


@dataclass
class Pass:
    wall: float
    times: list  # seconds per solve, in instance order
    slowdown: float  # the machine's slowdown against its quiet speed during the pass
    solutions: list  # Solution, or the exception the solve raised
    reports: list  # RunReport per solve (None where it raised); first pass only
    tracer: object = None  # kept for the fastest traced pass only
    layers: dict = None
    trace_error: float = 0.0


def load_program():
    src = ROOT / "src"
    if not (src / "qkpapprox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qkpapprox package under {src}")
    sys.path.insert(0, str(src))
    import qkpapprox

    if not Path(qkpapprox.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported qkpapprox from {qkpapprox.__file__}, not {src}")
    return qkpapprox


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def run_pass(qkp, instances, cfg, gauge, tracer=None, keep_reports=False) -> Pass:
    times, solutions, reports = [], [], []
    first = len(gauge.samples)
    start = time.perf_counter()
    gauge.sample(force=True)
    for i, inst in enumerate(instances):
        gauge.sample()
        t = time.perf_counter()
        try:
            with tracer.solve_span(i) if tracer else nullcontext():
                sol, report = qkp.solve(inst, cfg)
        except Exception as exc:  # a raising solve is counted as failed
            sol, report = exc, None
        times.append(time.perf_counter() - t)
        solutions.append(sol)
        if keep_reports:
            reports.append(report)
    gauge.sample(force=True)
    wall = time.perf_counter() - start
    return Pass(wall, times, gauge.slowdown(first), solutions, reports, tracer)


def measure(qkp, instances, cfg, seconds, gauge, make_tracer=None) -> list:
    """Passes over the instance set for about `seconds`, at least one.

    With `make_tracer`, untraced and traced passes alternate, so both see
    the same phases of machine load, and there are at least two.  A pass
    starts only if a pass of median length still ends in time.  Only the
    first pass keeps its reports and only the fastest traced pass its
    spans, so memory does not grow with the number of passes.
    """
    passes = []
    fastest = None
    start = time.perf_counter()
    while len(passes) < (2 if make_tracer else 1) or (
        time.perf_counter() - start + statistics.median(p.wall for p in passes) <= seconds
    ):
        if make_tracer is None or len(passes) % 2 == 0:
            passes.append(run_pass(qkp, instances, cfg, gauge, keep_reports=not passes))
            continue
        tracer = make_tracer()
        with tracer.installed():
            p = run_pass(qkp, instances, cfg, gauge, tracer)
        p.layers, p.trace_error = tracer.summary()
        if fastest is None or sum(p.times) / p.slowdown < sum(fastest.times) / fastest.slowdown:
            if fastest is not None:
                fastest.tracer = None
            fastest = p
        else:
            p.tracer = None
        passes.append(p)
    return passes


def instance_times(passes, calibrated=True) -> list:
    """Each instance's median solve time over the passes, in instance order.

    Calibrated, each solve time is divided by its pass's slowdown, which
    turns it into the time on the quiet machine (see speed.py).
    """
    cols = zip(*([t / p.slowdown for t in p.times] if calibrated else p.times for p in passes))
    return [statistics.median(col) for col in cols]


def check_solution(qkp, inst, sol):
    """(profit on the original instance, why the solution is wrong or None)."""
    if isinstance(sol, Exception):
        return 0, f"raised {type(sol).__name__}: {sol}"
    try:
        cost, profit = qkp.evaluate(inst, sol.vertices)
    except ValueError as exc:
        return 0, f"invalid vertex set: {exc}"
    if cost > inst.limit:
        return profit, f"infeasible: cost {cost} > limit {inst.limit}"
    if (cost, profit) != (sol.total_cost, sol.total_profit):
        return profit, (
            f"reported cost/profit {sol.total_cost}/{sol.total_profit}, "
            f"re-evaluated {cost}/{profit}"
        )
    return profit, None


def solution_text(sol) -> str:
    if isinstance(sol, Exception):
        return "error"
    return json.dumps(sol.to_json_obj(), sort_keys=True)


def as_number(value):
    return value if isinstance(value, int) else float(value)


def run_workload(qkp, args, spec_doc) -> dict:
    from speed import Gauge
    from tracing import Tracer, record_counts
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = qkp.SolveConfig(dks_backend=workload.backend)

    gauge = Gauge()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        instances = refs = None  # release the previous set before building anew
        first = len(gauge.samples)
        gauge.sample(force=True)
        spent = 0.0  # in the reference kernel, which is not set-up time
        t = time.perf_counter()
        instances = workload.build(args.seed)
        if workload.oracle:
            refs = []
            for inst in instances:
                spent += gauge.sample()
                refs.append(qkp.exact_qkp(inst))
        spent += gauge.sample(force=True)
        qkp.solve(instances[0], cfg)
        elapsed = time.perf_counter() - t - spent
        gauge.sample(force=True)
        setup_times.append(elapsed / gauge.slowdown(first))

    passes = measure(qkp, instances, cfg, args.seconds, gauge, Tracer if args.trace else None)
    untraced = [p for p in passes if p.layers is None]
    traced = [p for p in passes if p.layers is not None]

    problems = []
    failed = 0
    profits = []
    texts = [solution_text(sol) for sol in passes[0].solutions]
    for p in passes:
        for inst, sol in zip(instances, p.solutions):
            profit, why = check_solution(qkp, inst, sol)
            if p is passes[0]:
                profits.append(profit)
            if why is not None:
                failed += 1
                if len(problems) < 10:
                    problems.append(why)
        if [solution_text(sol) for sol in p.solutions] != texts:
            problems.append("solutions differ between passes")

    times = instance_times(untraced)
    raw = instance_times(untraced, calibrated=False)
    values = {
        "wall_s": sum(times),
        "solve_s.p50": statistics.median(times),
        "wall_s.raw": sum(raw),
        "solve_s.p50.raw": statistics.median(raw),
        "machine.slowdown": statistics.median(p.slowdown for p in passes),
        "profit.total": as_number(sum(profits)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / len(passes) / len(instances),
    }
    if workload.oracle:
        # p95 is reported here only: >= 200 instances leave >= 10 beyond it
        values["solve_s.p95"] = statistics.quantiles(times, n=20)[-1]
        values["solve_s.samples"] = len(times)
        ratios = []
        for inst, profit, ref in zip(instances, profits, refs):
            ratio = profit / ref.total_profit if ref.total_profit else 1
            if ratio > 1:
                problems.append(f"profit {profit} beats the optimum {ref.total_profit}")
            if ratio < qkp.guaranteed_floor(inst.n):
                problems.append(f"ratio {ratio} below the guaranteed floor at n={inst.n}")
            ratios.append(ratio)
        values["ratio.mean"] = float(sum(ratios) / len(ratios))
        values["ratio.min"] = float(min(ratios))

    layers = record_counts(r for r in passes[0].reports if r is not None)
    if traced:
        for p in traced:
            if p.trace_error > 1e-6:
                problems.append(f"self times miss their solve's span by {p.trace_error} s")
            changed = [k for k, v in p.layers.items() if isinstance(v, int) and v != traced[0].layers[k]]
            if changed:
                problems.append(f"counts differ between traced passes: {changed}")
        # self times of the fastest traced pass, so they add up to its solves
        fastest = next(p for p in traced if p.tracer is not None)
        layers.update(fastest.layers)
        layers["trace.overhead_frac"] = sum(instance_times(traced)) / values["wall_s"] - 1
        write_spans(args.workload, fastest.tracer)
    for name in COVERAGE.get(args.workload, ()):
        # a counter this run does not collect (tracing off) is not checked
        if layers.get(name, 1) <= 0:
            problems.append(f"coverage: {name} is {layers[name]}")

    units = dict(EXTRA_UNITS)
    for group in ("end_to_end", "per_layer") if traced else ("end_to_end",):
        for m in spec_doc[group]:
            units[m["name"]] = m["unit"]
            if m["name"] not in values:
                values[m["name"]] = layers[m["name"]]
    return {
        "stamp": stamp(args),
        "correct": not problems,
        "attempted": len(passes) * len(instances),
        "failed": failed,
        "problems": problems,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "solutions_sha256": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "layers": layers,
    }


def write_spans(workload, tracer):
    with open(OUT_DIR / f"{workload}.spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "solve"], "spans": tracer.spans},
                  fh, separators=(",", ":"))


def run_all(args, names) -> int:
    """Each workload in a fresh process; print every metric with its unit."""
    ok = True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"== {name}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads((OUT_DIR / f"{name}.trace{args.trace}.json").read_text())
        ok = ok and result["correct"]
        print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}"
              f"  failed={result['failed']}  passes={result['passes']}")
        print(f"   solutions_sha256 {result['solutions_sha256']}")
        for problem in result["problems"]:
            print(f"   problem: {problem}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:42s} {m['value']!r:>24} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec_doc["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec_doc["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)

    qkp = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    result = run_workload(qkp, args, spec_doc)
    path = OUT_DIR / f"{args.workload}.trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result["stamp"]))
    gated = [m["name"] for m in spec_doc["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
