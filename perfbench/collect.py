"""Runs the benchmark over several seeds and summarises it.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json
    python3 perfbench/collect.py --seeds 1-5 --workloads search --trace-seed 0

Each (workload, seed) pair is one run of ``run.py`` in its own process, one
after another. Per workload and end-to-end metric the summary holds the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median. With
``--trace-seed`` one traced run per workload adds the per-layer table. The
summary is printed as Markdown tables and, with ``--out``, written as JSON
together with every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    lineage = json.loads(lines[0].removeprefix("lineage "))
    return lineage, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"lineage": None, "run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            lineage, result = run_once(workload, seed, 0)
            out["lineage"] = out["lineage"] or lineage
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {
            "runs": runs,
            "summary": {
                name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds
            },
        }
        if args.trace_seed is not None:
            _, traced = run_once(workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed, **traced}
        out["workloads"][workload] = entry

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, entry in out["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"| {workload} | {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                  f"| {s['spread']:.3f} | {bounds[name]} |")
    traced = {w: e["traced"] for w, e in out["workloads"].items() if "traced" in e}
    if traced:
        print("\n| metric | unit | " + " | ".join(traced) + " |")
        print("|---|---|" + "---|" * len(traced))
        for m in SPEC["per_layer"]:
            cells = " | ".join(f"{t['metrics'][m['name']]['value']:.4g}" for t in traced.values())
            print(f"| {m['name']} | {m['unit']} | {cells} |")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    correct = all(r["correct"] for e in out["workloads"].values() for r in e["runs"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
