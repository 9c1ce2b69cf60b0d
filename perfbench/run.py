"""Layered benchmark of the fcndp solver.

Usage, from the repository root:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Runs one workload (prove, search, construct or root-lp) as a closed loop of
passes for ``--seconds`` seconds, checks every output, prints a lineage
header and a readable report, and prints the result as one JSON object on
the last line: end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced run with ``--trace 1``. A failed check sets ``correct`` to false in
the result; the exit code is 2, with no result, when the solver sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS threads are pinned: the dense simplex's rank-1 updates are small
# enough that thread start-up costs more than it saves, and an unpinned
# count makes timings depend on the machine's load.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository or without git.
    The ceiling keeps git from reporting a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def lineage() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "fcndp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_lib = "unknown"
    return {
        "commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_lib,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "fcndp" / "__init__.py").is_file():
        print(f"error: solver sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fcndp

    if Path(fcndp.__file__).resolve().parent != (SRC / "fcndp").resolve():
        print(f"error: fcndp imported from {fcndp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    print("lineage " + json.dumps(lineage(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    report = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in report.lines:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps(report.result()), flush=True)
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
