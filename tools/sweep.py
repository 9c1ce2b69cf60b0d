"""Equivalence sweep: ``vfhlb`` over the 41 sweep instances at the given
seeds, each run as is and with ``driver.proves_optimal`` refused (so that
every run goes through local branching and the perturbation rounds).

Usage, from the repository root:

    python3 tools/sweep.py --seeds 1-5 --out sweep.ndjson
    python3 tools/sweep.py --seeds 1-5 --against tools/sweep-8ab8f63.ndjson

Writes one JSON line per run (instance, seed, mode, cost, bound, status,
trajectory costs, a SHA-256 of the design, B&B nodes and simplex pivots),
after a lineage header naming the commit, the BLAS library, its thread
count and its core type. Every bound is checked against the exhaustive
oracle's optimum on instances of at most 16 edges, and every design with
``verify_bilevel``. ``--against FILE`` prints every field that differs
from a reference written by this script. The exit code is 1 when a check
fails or a run costs more than in the reference, and 0 otherwise, other
differences included. The sweep is not part of the test suite: at seeds
1-5 it runs 410 solves, about half a minute on one core.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORACLE_MAX_EDGES = 16
DENSITIES = (0.5, 0.65, 0.8)
# beyond the 30-instance oracle pool of the acceptance tests (5-7 nodes)
EXTRA = (
    "8-0.5-4-2", "8-0.6-4-1", "9-0.4-4-4",  # the search trio
    "8-0.5-4-1", "7-0.6-3-11", "10-0.3-5-1", "6-0.8-3-3",
    "7-0.5-3-42", "12-0.3-6-1", "6-0.7-3-64", "8-0.7-4-33",
)
MODES = ("as-is", "refused")
FIELDS = ("cost", "bound", "status", "trajectory", "design", "nodes", "pivots")


def instance_names() -> list[str]:
    pool = [f"{5 + i % 3}-{DENSITIES[(i // 3) % 3]:g}-{2 + i % 2}-{i}" for i in range(30)]
    return pool + list(EXTRA)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def blas_core() -> str:
    """The core type the OpenBLAS bundled with numpy picked at load time,
    or ``unknown`` for another BLAS."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        if hasattr(handle, "scipy_openblas_get_corename64_"):
            fn = handle.scipy_openblas_get_corename64_
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return "unknown"


def lineage(threads: str) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_lib = "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "commit": proc.stdout.strip() if proc.returncode == 0 else None,
        "blas": blas_lib,
        "blas_threads": int(threads),
        "blas_core": blas_core(),
    }


def sweep(seeds: list[int]):
    """Yields one record per run, checking each as it goes."""
    import numpy as np

    from fcndp import driver, heuristics
    from fcndp.driver import SolverConfig, vfhlb
    from fcndp.instance import generate_instance
    from fcndp.oracle import solve_exact
    from fcndp.solution import verify_bilevel

    counts = {"nodes": 0, "pivots": 0}
    solve_lp, solve_bnb = heuristics.solve_lp, heuristics.solve_bnb

    def counted_lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        counts["pivots"] += res.iterations
        return res

    def counted_bnb(*args, **kwargs):
        res = solve_bnb(*args, **kwargs)
        counts["nodes"] += res.nodes
        counts["pivots"] += res.iterations
        return res

    proves_optimal = driver.proves_optimal
    heuristics.solve_lp, heuristics.solve_bnb = counted_lp, counted_bnb
    try:
        for name in instance_names():
            n, density, k, inst_seed = name.split("-")
            inst = generate_instance(int(n), float(density), int(k), int(inst_seed))
            optimum = solve_exact(inst).cost if inst.num_edges <= ORACLE_MAX_EDGES else None
            for mode in MODES:
                driver.proves_optimal = proves_optimal if mode == "as-is" else (lambda *args: False)
                for seed in seeds:
                    counts.update(nodes=0, pivots=0)
                    sol, rec = vfhlb(inst, SolverConfig(seed=seed))
                    design = hashlib.sha256(
                        np.asarray(sol.y, dtype=np.int8).tobytes() + np.asarray(sol.x, dtype=np.int8).tobytes()
                    ).hexdigest()
                    failures = []
                    if not verify_bilevel(inst, sol).passed:
                        failures.append("design fails verify_bilevel")
                    if optimum is not None and rec.lower_bound > optimum + 1e-6:
                        failures.append(f"bound {rec.lower_bound!r} above the optimum {optimum!r}")
                    if optimum is not None and rec.cost < optimum - 1e-6:
                        failures.append(f"cost {rec.cost!r} below the optimum {optimum!r}")
                    yield {
                        "instance": name,
                        "seed": seed,
                        "mode": mode,
                        "cost": rec.cost,
                        "bound": rec.lower_bound,
                        "status": rec.status,
                        "trajectory": [cost for cost, _ in rec.trajectory],
                        "design": design,
                        "nodes": counts["nodes"],
                        "pivots": counts["pivots"],
                        "optimum": optimum,
                        "failures": failures,
                    }
    finally:
        driver.proves_optimal = proves_optimal
        heuristics.solve_lp, heuristics.solve_bnb = solve_lp, solve_bnb


def differences(records: list[dict], path: Path) -> tuple[list[str], int]:
    """One line per field of a run that differs from the reference at
    ``path``, and per run that only one side has; and the number of runs
    whose cost is worse than the reference's."""
    with path.open(encoding="utf-8") as fh:
        reference = [json.loads(line) for line in fh]
    ref = {(r["instance"], r["seed"], r["mode"]): r for r in reference if "lineage" not in r}
    ours = {(r["instance"], r["seed"], r["mode"]): r for r in records}
    lines, worse = [], 0
    for key in sorted(ref.keys() | ours.keys(), key=str):
        label = "{} seed {} {}".format(*key)
        if key not in ours or key not in ref:
            lines.append(f"{label}: only in {'the reference' if key in ref else 'this sweep'}")
            continue
        for field in FIELDS:
            if ref[key][field] != ours[key][field]:
                lines.append(f"{label}: {field} {ref[key][field]!r} -> {ours[key][field]!r}")
        worse += ours[key]["cost"] > ref[key]["cost"]
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-5", help="seeds, as in 1-5 or 1,3,7")
    parser.add_argument("--out", type=Path, help="NDJSON output (default: standard output)")
    parser.add_argument("--against", type=Path, help="a reference NDJSON to compare with")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    records = []
    out = args.out.open("w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write(json.dumps({"lineage": lineage(os.environ[BLAS_ENV[0]])}) + "\n")
        for record in sweep(parse_seeds(args.seeds)):
            records.append(record)
            out.write(json.dumps(record) + "\n")
            out.flush()
    finally:
        if args.out:
            out.close()
    failed = [r for r in records if r["failures"]]
    for r in failed:
        print(f"FAIL {r['instance']} seed {r['seed']} {r['mode']}: {'; '.join(r['failures'])}", file=sys.stderr)
    worse = 0
    if args.against:
        lines, worse = differences(records, args.against)
        for line in lines:
            print(line, file=sys.stderr)
        print(f"{len(lines)} difference(s) from {args.against}, {worse} run(s) costlier", file=sys.stderr)
    print(f"{len(records)} runs, {len(failed)} failed a check", file=sys.stderr)
    return 1 if failed or worse else 0


if __name__ == "__main__":
    for var in BLAS_ENV:  # before numpy is first imported; one thread unless set
        os.environ.setdefault(var, os.environ.get(BLAS_ENV[0], "1"))
    sys.exit(main())
