"""Cold-root judge: the full-model root LPs of the ladder, each solved cold
by ``solve_lp``.

Usage, from the repository root:

    python3 tools/roots.py --out roots.ndjson
    python3 tools/roots.py --repeat 1 --against tools/roots-faf98a6.ndjson

Writes one JSON line per root (pivots, rounds of held-back rows added,
the objective's repr, SHA-256s of the final tableau and of ``xb``, and the
best of ``--repeat`` constructor and ``solve_lp`` times in ms), after the
lineage header of ``tools/sweep.py``. ``--against FILE`` prints every
field that differs from a reference written by this script. The exit code
is 1 when a root's pivots differ from the reference, or its objective by
more than a relative 1e-9, and 0 otherwise: the hashes and times depend on
the BLAS build and the machine, so their differences are reported only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from sweep import BLAS_ENV, ROOT, lineage

ROOTS = ("12-0.3-6-1", "15-0.25-8-1", "20-0.2-10-1", "25-0.16-12-1")
FIELDS = ("status", "pivots", "rounds", "objective", "tableau", "xb", "construct_ms", "solve_ms")
OBJECTIVE_RTOL = 1e-9


def best_ms(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return round(1e3 * best, 3)


def roots(repeat: int):
    """Yields one record per root."""
    from fcndp import milp
    from fcndp.instance import compute_big_m, generate_instance
    from fcndp.model import build_model

    add_rows = milp._Simplex.add_rows
    rounds: list[int] = []

    def counted(self, which=None):
        # the constructor's call, on a tableau of no rows, is not a round
        if self.m:
            rounds.append(1)
        add_rows(self, which)

    for name in ROOTS:
        n, density, k, seed = name.split("-")
        inst = generate_instance(int(n), float(density), int(k), int(seed))
        model = build_model(inst, compute_big_m(inst))
        rounds.clear()
        milp._Simplex.add_rows = counted
        try:
            res = milp.solve_lp(model)
        finally:
            milp._Simplex.add_rows = add_rows
        sx = res.start.sx
        sx._flush()
        lb, ub = model.lb.astype(float), model.ub.astype(float)
        yield {
            "root": name,
            "status": res.status,
            "pivots": res.iterations,
            "rounds": len(rounds),
            "objective": repr(res.objective),
            "tableau": hashlib.sha256(sx.tableau.tobytes()).hexdigest(),
            "xb": hashlib.sha256(sx.xb.tobytes()).hexdigest(),
            "construct_ms": best_ms(lambda: milp._Simplex(model, lb.copy(), ub.copy(), 0), repeat),
            "solve_ms": best_ms(lambda: milp.solve_lp(model), repeat),
        }


def differences(records: list[dict], path: Path) -> tuple[list[str], int]:
    """One line per field of a root that differs from the reference at
    ``path``, and per root that only one side has; and the number of roots
    whose pivots or objective differ."""
    with path.open(encoding="utf-8") as fh:
        ref = {r["root"]: r for r in map(json.loads, fh) if "lineage" not in r}
    ours = {r["root"]: r for r in records}
    lines, failed = [], 0
    for name in sorted(ref.keys() | ours.keys()):
        if name not in ours or name not in ref:
            lines.append(f"{name}: only in {'the reference' if name in ref else 'this run'}")
            failed += 1
            continue
        for field in FIELDS:
            if ref[name][field] != ours[name][field]:
                lines.append(f"{name}: {field} {ref[name][field]!r} -> {ours[name][field]!r}")
        a, b = float(ref[name]["objective"]), float(ours[name]["objective"])
        failed += ref[name]["pivots"] != ours[name]["pivots"] or abs(a - b) > OBJECTIVE_RTOL * max(1.0, abs(a))
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=30, help="timed runs per root; the best is kept")
    parser.add_argument("--out", type=Path, help="NDJSON output (default: standard output)")
    parser.add_argument("--against", type=Path, help="a reference NDJSON to compare with")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    records = []
    out = args.out.open("w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write(json.dumps({"lineage": lineage(os.environ[BLAS_ENV[0]])}) + "\n")
        for record in roots(args.repeat):
            records.append(record)
            out.write(json.dumps(record) + "\n")
            out.flush()
    finally:
        if args.out:
            out.close()
    failed = 0
    if args.against:
        lines, failed = differences(records, args.against)
        for line in lines:
            print(line, file=sys.stderr)
        print(f"{len(lines)} difference(s) from {args.against}, {failed} root(s) off", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    for var in BLAS_ENV:  # before numpy is first imported; one thread unless set
        os.environ.setdefault(var, os.environ.get(BLAS_ENV[0], "1"))
    sys.exit(main())
