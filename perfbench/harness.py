"""Measurement loop of the benchmark: set-up, closed-loop passes for a fixed
time, output checks, and the end-to-end and per-layer metrics.

A pass runs every instance of a workload once, one call at a time, with no
time limit. Untraced passes give the end-to-end metrics. With tracing on,
untraced and traced passes alternate: the traced ones give the per-layer
metrics and the pair gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import Call, Workload, check_calls, parse_name, run_calls

# Set-up takes milliseconds, and on a shared machine its speed flips between
# states within seconds. So set-up runs in batches of at least SETUP_BATCH_S,
# one before the first pass and one after every pass, so that its samples
# span the same window as the passes. A batch gives the mean time of one
# set-up; setup_s is the median over the batches.
SETUP_BATCH_S = 0.3

# name -> unit, in report order, as BENCHMARK.json lists them
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Pass:
    wall_s: float
    calls: list[Call]
    layers: dict[str, float] | None = None  # traced passes only

    @property
    def ttt_s(self) -> float:
        return sum(c.ttt_s for c in self.calls)

    @property
    def objective_sum(self) -> float:
        return sum(c.objective for c in self.calls)

    @property
    def gap_sum(self) -> float:
        return sum(c.gap for c in self.calls)


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str] = field(default_factory=list)  # human-readable detail

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def run_pass(wl: Workload, insts, seed: int, traced: bool) -> Pass:
    """One timed pass; the checks run after the tracer has restored every name."""
    tr = tracer.Tracer() if traced else None
    with tr or contextlib.nullcontext():
        t0 = time.perf_counter()
        outputs = run_calls(wl, insts, seed)
        wall = time.perf_counter() - t0
    layers = tracer.layer_report(tr.spans) if tr else None
    return Pass(wall, check_calls(wl, insts, outputs), layers)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> Report:
    setup: list[float] = []

    def set_up() -> list:
        t0 = time.perf_counter()
        reps = 0
        while reps == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
            insts = [parse_name(name) for name in wl.instances]
            reps += 1
        setup.append((time.perf_counter() - t0) / reps)
        return insts

    insts = set_up()
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(run_pass(wl, insts, seed, use_trace))
        set_up()
        enough = not trace or len(traced) == len(plain)
        if enough and time.perf_counter() >= deadline:
            break
    runs = plain + traced

    lines = []
    problems = [p for run in runs for call in run.calls for p in call.problems]
    failed = sum(1 for run in runs for call in run.calls if call.problems)
    attempted = sum(len(run.calls) for run in runs)
    # every pass repeats the same calls with the same seed, so the results
    # must agree exactly, traced or not
    outcomes = {(run.objective_sum, run.gap_sum) for run in runs}
    if len(outcomes) > 1:
        problems.append(f"passes disagree on (objective_sum, gap_sum): {sorted(outcomes)}")
    shape = sorted({s for run in runs for call in run.calls for s in call.shape})

    walls = [r.wall_s for r in plain]
    p25, p50, p75 = quartiles(walls)
    first = plain[0]
    lines.append(f"passes {len(plain)} untraced, {len(traced)} traced")
    lines.append(f"pass_s quartiles {p25:.4f} {p50:.4f} {p75:.4f} s (n={len(walls)})")
    lines.append(f"gap_sum {first.gap_sum:g} cost")
    lines.append(f"fail_frac {failed / attempted:g} frac ({failed}/{attempted})")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": p50,
            "ttt_s": statistics.median(r.ttt_s for r in plain),
            "objective_sum": first.objective_sum,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        layers, count_problems, guards = per_layer(wl, traced, p50)
        problems += count_problems
        shape += guards
        metrics = {**layers, "driver.gap_sum": first.gap_sum}
        metrics["shape_guard_failures"] = len(shape)
        units = PER_LAYER
    lines += [f"shape guard: {s}" for s in shape]
    lines += [f"problem: {p}" for p in problems]
    return Report(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics={name: (float(metrics[name]), unit) for name, unit in units.items()},
        lines=lines,
    )


def per_layer(wl: Workload, traced: list[Pass], plain_pass_s: float):
    """Per-layer metrics from the traced passes: counts from the first pass
    (they must repeat exactly), times as medians over the passes."""
    problems, guards = [], []
    reports = [p.layers for p in traced]
    first = reports[0]
    for other in reports[1:]:
        if work_counts(other) != work_counts(first):
            problems.append("traced passes disagree on work counts")
            break

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in reports)

    def get(key: str) -> float:
        return first.get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_s = statistics.median(p.wall_s for p in traced)
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = med(name)
        elif unit == "count":
            out[name] = get(name)
    out["traced_pass_s"] = traced_s
    out["trace_overhead_frac"] = traced_s / plain_pass_s - 1.0
    out["milp.solve_bnb.cutoff_frac"] = ratio(get("milp.solve_bnb.cutoff"), get("milp.solve_bnb.calls"))
    out["milp.pivots_per_s"] = ratio(get("milp.pivots"), med("milp.solve_s"))
    out["milp.pivots_per_node"] = ratio(get("milp.solve_bnb.pivots"), get("milp.solve_bnb.nodes"))
    out["milp.self_frac"] = med("milp.self_s") / traced_s
    out["graph.dijkstra.frac"] = med("graph.dijkstra.s") / traced_s
    out["heuristics.local_branching.improved_frac"] = ratio(
        get("heuristics.local_branching.improved"), get("heuristics.local_branching.calls")
    )
    out["heuristics.ejection_cycle.accepted_frac"] = ratio(
        get("heuristics.ejection_cycle.accepted"), get("heuristics.ejection_cycle.calls")
    )
    out["model.rows"] = get("model.build_model.rows")
    out["driver.ils_iterations"] = get("driver.vfhlb.ils_iterations")

    milp_calls = get("milp.solve_lp.calls") + get("milp.solve_bnb.calls")
    if wl.kind == "construct" and milp_calls:
        guards.append(f"construct made {milp_calls:g} milp calls")
    if wl.kind == "root-lp" and get("milp.solve_bnb.calls"):
        guards.append(f"root-lp made {get('milp.solve_bnb.calls'):g} solve_bnb calls")
    return out, problems, guards


def work_counts(layers: dict[str, float]) -> dict[str, float]:
    """The entries of a layer report that are not times."""
    return {k: v for k, v in layers.items() if not k.endswith("_s") and not k.endswith(".s")}
