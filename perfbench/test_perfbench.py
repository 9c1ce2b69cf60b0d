"""Smoke and reference tests of the benchmark. They run every workload at a
tiny size and never the full workloads:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
from fcndp import driver, graph  # noqa: E402
from fcndp.instance import compute_big_m  # noqa: E402
from fcndp.model import SENSE_EQ, SENSE_GE, build_model  # noqa: E402
from fcndp.oracle import solve_exact  # noqa: E402
from workloads import WORKLOADS, lp_violations, parse_name  # noqa: E402

TINY = "7-0.6-3-1"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def highs_lp_optimum(m) -> float:
    """Root LP optimum from scipy's HiGHS, independent of the repo's kernel."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    blocks = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for row in m.rows:
        key = "eq" if row.sense == SENSE_EQ else "ub"
        sign = -1.0 if row.sense == SENSE_GE else 1.0
        data, cols, rows, rhs = blocks[key]
        r = len(rhs)
        data += list(sign * row.coefs)
        cols += list(row.cols)
        rows += [r] * len(row.cols)
        rhs.append(sign * row.rhs)

    def matrix(key):
        data, cols, rows, rhs = blocks[key]
        if not rhs:
            return None, None
        return csr_matrix((data, (rows, cols)), shape=(len(rhs), m.num_vars)), np.array(rhs)

    a_ub, b_ub = matrix("ub")
    a_eq, b_eq = matrix("eq")
    res = linprog(m.obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=list(zip(m.lb, m.ub)), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def tiny(name: str):
    wl = WORKLOADS[name]
    inst = parse_name(TINY)
    if wl.kind == "solve":
        reference = {TINY: solve_exact(inst).cost}
    elif wl.kind == "root-lp":
        reference = {TINY: highs_lp_optimum(build_model(inst, compute_big_m(inst)))}
    else:
        reference = {}
    return replace(wl, instances=(TINY,), reference=reference)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_reports_every_metric(name, trace):
    report = harness.measure(tiny(name), seed=1, seconds=0.01, trace=bool(trace))
    result = json.loads(json.dumps(report.result()))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report.lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_failed_checks_and_raising_calls_are_counted(monkeypatch):
    wrong = replace(tiny("prove"), reference={TINY: 1.0})
    report = harness.measure(wrong, seed=1, seconds=0.01, trace=False)
    assert not report.correct and report.failed == report.attempted >= 1

    def boom(*args, **kwargs):
        raise RuntimeError("kernel failure")

    monkeypatch.setattr(driver, "vfhlb", boom)
    report = harness.measure(tiny("search"), seed=1, seconds=0.01, trace=False)
    assert not report.correct and report.failed == report.attempted >= 1
    assert any("kernel failure" in line for line in report.lines)


def _layer_bindings():
    names = {(mod.__name__, attr): obj for mod in tracer.LAYERS for attr, obj in vars(mod).items()}
    names["Adjacency.from_instance"] = vars(graph.Adjacency)["from_instance"]
    return names


def test_tracer_restores_names_and_repeats_counts():
    inst = parse_name(TINY)
    before = _layer_bindings()
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            driver.vfhlb(inst, driver.SolverConfig(seed=3))
        counts.append(harness.work_counts(tracer.layer_report(tr.spans)))
    after = _layer_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert counts[0] == counts[1]
    for key in ("driver.vfhlb.calls", "heuristics.vfh.calls", "milp.solve_lp.calls", "graph.dijkstra.calls"):
        assert counts[0][key] >= 1
    assert counts[0]["graph.adjacency.calls"] >= 1


def test_self_time_subtracts_children():
    spans = [
        ["heuristics.vfh", 0.0, 10.0, -1, None],
        ["milp.solve_bnb", 1.0, 4.0, 0, {"pivots": 7, "nodes": 2, "cutoff": 0}],
        ["milp.solve_lp", 2.0, 3.0, 1, {"pivots": 5}],
        ["milp.solve_lp", 5.0, 9.0, 0, {"pivots": 11}],
    ]
    report = tracer.layer_report(spans)
    assert report["heuristics.self_s"] == 3.0
    assert report["milp.self_s"] == 7.0
    assert report["milp.solve_lp.s"] == 5.0
    # the nested solve_lp is part of the B&B's totals, not counted twice
    assert report["milp.pivots"] == 18 and report["milp.solve_s"] == 7.0


@pytest.mark.parametrize(
    "name",
    [n for w in ("prove", "search") for n in WORKLOADS[w].instances if parse_name(n).num_edges <= 16],
)
def test_recorded_optimum_matches_oracle(name):
    ref = {**WORKLOADS["prove"].reference, **WORKLOADS["search"].reference}[name]
    assert solve_exact(parse_name(name)).cost == ref


@pytest.mark.parametrize("name", list(WORKLOADS["root-lp"].reference))
def test_root_lp_reference_matches_highs(name):
    pytest.importorskip("scipy")
    inst = parse_name(name)
    opt = highs_lp_optimum(build_model(inst, compute_big_m(inst)))
    assert opt == pytest.approx(WORKLOADS["root-lp"].reference[name], abs=1e-6)


def test_lp_violations_flags_bad_points():
    inst = parse_name(TINY)
    m = build_model(inst, compute_big_m(inst))
    zero = np.zeros(m.num_vars)
    assert any(p.startswith("row flow_") for p in lp_violations(m, zero))
    beyond = zero.copy()
    beyond[0] = 2.0
    assert "primal point violates a variable bound" in lp_violations(m, beyond)


def test_fails_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "prove", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
