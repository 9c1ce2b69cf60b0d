"""Command-line entry point.

Subcommands: solve (full heuristic run), verify (check a solution file
against its instance), oracle (exact enumeration), generate (random
instances), bench (time-to-target series or comparison tables).

Exit codes: 0 success, 1 usage/IO/parse or solve failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .bench import batch, run_ttt, write_compare_csv, write_records_ndjson, write_ttt_csv
from .driver import SolverConfig, vfhlb
from .instance import generate_instance, load_instance, save_instance
from .oracle import oracle_solution, solve_exact
from .solution import evaluate_cost, solution_from_dict, solution_to_dict, verify_bilevel


def _parse_delta(text: str) -> int | None:
    if text == "auto":
        return None
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("delta must be nonnegative or 'auto'")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcndp", description=__doc__)
    default = SolverConfig()
    # a string default goes through type=int, so a malformed FCNDP_SEED is
    # a usage error
    seed = os.environ.get("FCNDP_SEED", str(default.seed))
    # the flags that make a SolverConfig (see _config), shared by solve and bench
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--seed", type=int, default=seed)
    solver.add_argument("--gamma", type=float, default=default.gamma)
    solver.add_argument("--delta", type=_parse_delta, default=default.delta,
                        help="design flip budget, integer or 'auto' (= ceil(E/2))")
    solver.add_argument("--iters", type=int, default=default.iterations)
    solver.add_argument("--time-limit", type=float, default=default.time_limit)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[solver], help="run the full heuristic solver")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--output", default=None,
                       help="solution JSON path; run record goes next to it as *.run.json")

    verify = sub.add_parser("verify", help="check a solution JSON against its instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--solution", required=True)

    oracle = sub.add_parser("oracle", help="exact solve by enumeration (small instances)")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--limit", type=int, default=20)
    oracle.add_argument("--output", default=None)

    gen = sub.add_parser("generate", help="write a random instance file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--commodities", type=int, required=True)
    gen.add_argument("--seed", type=int, default=seed)
    gen.add_argument("--output", default=".", help="directory (or full path) for the file")

    bench = sub.add_parser("bench", parents=[solver], help="time-to-target series or comparison table")
    bench.add_argument("--instance", action="append", default=[], dest="instances")
    bench.add_argument("--ttt", action="store_true", help="time-to-target mode")
    bench.add_argument("--target-ratio", type=float, default=1.22)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--output", default=".", help="directory for CSV/NDJSON outputs")
    return parser


def _config(args) -> SolverConfig:
    return SolverConfig(
        gamma=args.gamma,
        delta=args.delta,
        iterations=args.iters,
        seed=args.seed,
        time_limit=args.time_limit,
    )


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = _config(args)
    t0 = time.monotonic()
    sol, rec = vfhlb(inst, cfg)
    wall = time.monotonic() - t0
    payload = solution_to_dict(
        inst, sol, lower_bound=rec.lower_bound, seed=cfg.seed, wall_time_s=wall
    )
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        run_path = Path(args.output).with_suffix(".run.json")
        run_path.write_text(
            json.dumps(rec.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    try:
        data = json.loads(Path(args.solution).read_text(encoding="utf-8"))
        sol = solution_from_dict(inst, data)
    except ValueError as exc:
        print(f"cannot reconstruct solution: {exc}", file=sys.stderr)
        return 3
    report = verify_bilevel(inst, sol)
    recomputed = evaluate_cost(inst, sol.y, sol.x)
    ok = report.passed
    if abs(recomputed - float(data["cost"])) > 1e-6:
        ok = False
        print(f"cost mismatch: file says {data['cost']}, re-evaluation gives {recomputed}")
    for v in report.violations:
        where = f" commodity {v.commodity}" if v.commodity is not None else ""
        print(f"violation [{v.constraint}]{where}: {v.detail}")
    if ok:
        print("OK")
        return 0
    return 3


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    t0 = time.monotonic()
    res = solve_exact(inst, limit=args.limit)
    wall = time.monotonic() - t0
    sol = oracle_solution(inst, res)
    payload = solution_to_dict(
        inst, sol, lower_bound=res.cost, seed=0, wall_time_s=wall
    )
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_generate(args) -> int:
    inst = generate_instance(args.nodes, args.density, args.commodities, args.seed)
    out = Path(args.output)
    path = out / f"{inst.name}.txt" if out.is_dir() else out
    save_instance(inst, path)
    print(path)
    return 0


def cmd_bench(args) -> int:
    if not args.instances:
        print("bench needs at least one --instance", file=sys.stderr)
        return 1
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _config(args)
    if args.ttt:
        inst = load_instance(args.instances[0])
        opt = solve_exact(inst).cost
        target = args.target_ratio * opt
        series = run_ttt(inst, cfg, target, n_runs=args.reps, optimum=opt)
        path = out_dir / "ttt.csv"
        write_ttt_csv(series, path)
        print(path)
        return 0
    instances = [load_instance(p) for p in args.instances]
    optima = {}
    for inst in instances:
        try:
            optima[inst.name or "unnamed"] = solve_exact(inst).cost
        except ValueError:
            pass  # the oracle cannot enumerate it: the gap columns stay NaN
    rows, records = batch(
        instances, [("vfhlb", cfg)], args.reps, optima=optima, jobs=args.jobs
    )
    write_compare_csv(rows, out_dir / "compare.csv")
    write_records_ndjson(records, out_dir / "records.ndjson")
    print(out_dir / "compare.csv")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "generate": cmd_generate,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
