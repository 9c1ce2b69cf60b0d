"""The benchmark's workloads: their inputs, one timed pass, and the checks
every output must pass.

Instances are ``generate_instance`` names (``n-density-K-seed``). The run's
seed sets ``SolverConfig.seed`` and the construct RNG; it never picks the
instances, so every seed solves the same inputs. Solver and layer calls go
through module attributes (``driver.vfhlb``, not a bound name) so that a
traced pass reaches the patched names.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from fcndp import driver, heuristics, milp, model, solution
from fcndp.instance import Instance, compute_big_m, generate_instance
from fcndp.model import SENSE_EQ, SENSE_GE, SENSE_LE

TOL = 1e-6
CHAIN = 10  # ejection cycles chained after the construction


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" | "construct" | "root-lp"
    instances: tuple[str, ...]
    # oracle optimum per instance ("solve") or LP optimum ("root-lp")
    reference: dict[str, float] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # vfh closes the gap, so the ILS loop never runs: lbound and the first
        # local_branching dominate, nearly all of it in the simplex
        Workload(
            "prove",
            "solve",
            ("8-0.5-4-1", "10-0.3-5-1", "12-0.3-6-1"),
            {"8-0.5-4-1": 557.0, "10-0.3-5-1": 832.0, "12-0.3-6-1": 1159.0},
        ),
        # the gap stays open, so every ejection-cycle + local-branching
        # iteration runs: repeated B&B under a cutoff and model rebuilds
        Workload(
            "search",
            "solve",
            ("8-0.5-4-2", "8-0.6-4-1", "9-0.4-4-4"),
            {"8-0.5-4-2": 524.0, "8-0.6-4-1": 801.0, "9-0.4-4-4": 495.0},
        ),
        # no MIP at all: construction and perturbation on large graphs,
        # dominated by Dijkstra and unused-edge cleanup
        Workload("construct", "construct", ("100-0.06-50-1", "150-0.04-60-1")),
        # one cold root LP at size, no branch-and-bound
        Workload(
            "root-lp",
            "root-lp",
            ("12-0.3-6-1", "15-0.25-8-1"),
            {"12-0.3-6-1": 3397 / 3, "15-0.25-8-1": 1181.5},
        ),
    )
}


def parse_name(name: str) -> Instance:
    n, density, k, seed = name.split("-")
    return generate_instance(int(n), float(density), int(k), int(seed))


@dataclass
class Call:
    """One checked call: its objective, time to target and any problems."""

    instance: str
    objective: float
    ttt_s: float
    gap: float = 0.0
    problems: list[str] = field(default_factory=list)
    shape: list[str] = field(default_factory=list)  # workload-shape warnings


def run_calls(wl: Workload, insts: list[Instance], seed: int) -> list:
    """The timed part of a pass: raw outputs, one per instance. A call that
    raises yields its exception, so one failure does not lose the pass."""
    run = {"solve": _solve, "construct": _construct, "root-lp": _root_lp}[wl.kind]
    outputs = []
    for inst in insts:
        try:
            outputs.append(run(inst, seed))
        except Exception as exc:  # counted as a failed call by check_calls
            outputs.append(exc)
    return outputs


def check_calls(wl: Workload, insts: list[Instance], outputs: list) -> list[Call]:
    check = {"solve": _check_solve, "construct": _check_construct, "root-lp": _check_root_lp}[wl.kind]
    return [
        Call(inst.name, 0.0, 0.0, problems=[f"{inst.name}: raised {out!r}"])
        if isinstance(out, Exception)
        else check(wl, inst, out)
        for inst, out in zip(insts, outputs)
    ]


def _solve(inst: Instance, seed: int):
    return driver.vfhlb(inst, driver.SolverConfig(seed=seed))


def _construct(inst: Instance, seed: int):
    gamma = driver.SolverConfig(seed=seed).gamma
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    chain = [heuristics.partial_decoupling(inst, gamma, rng=rng)]
    construct_s = time.perf_counter() - t0
    for _ in range(CHAIN):
        chain.append(heuristics.ejection_cycle(inst, chain[-1], gamma, rng=rng))
    return construct_s, chain


def _root_lp(inst: Instance, seed: int):
    m = model.build_model(inst, compute_big_m(inst))
    t0 = time.perf_counter()
    res = milp.solve_lp(m)
    return m, res, time.perf_counter() - t0


def _check_design(inst: Instance, sol, label: str) -> list[str]:
    problems = []
    report = solution.verify_bilevel(inst, sol)
    if not report.passed:
        problems.append(f"{label}: verify_bilevel failed: {report.violations[0].detail}")
    cost = solution.evaluate_cost(inst, sol.y, sol.x)
    if abs(cost - sol.cost) > TOL:
        problems.append(f"{label}: reported cost {sol.cost} but design costs {cost}")
    return problems


def _check_solve(wl: Workload, inst: Instance, out) -> Call:
    sol, rec = out
    opt = wl.reference[inst.name]
    call = Call(inst.name, sol.cost, math.inf, rec.gap)
    call.problems += _check_design(inst, sol, inst.name)
    if abs(sol.cost - opt) > TOL:
        call.problems.append(f"{inst.name}: cost {sol.cost} is not the optimum {opt}")
    if rec.lower_bound > opt + TOL:
        call.problems.append(f"{inst.name}: lower bound {rec.lower_bound} exceeds the optimum {opt}")
    hits = [t for cost, t in rec.trajectory if cost <= opt + TOL]
    if hits:
        call.ttt_s = hits[0]
    else:
        call.problems.append(f"{inst.name}: trajectory never reaches the optimum")
    if wl.name == "prove" and rec.gap >= 1:
        call.shape.append(f"{inst.name}: prove solve ended with gap {rec.gap}")
    if wl.name == "search" and len(rec.trajectory) != 2 + driver.SolverConfig().iterations:
        call.shape.append(f"{inst.name}: search solve ran {len(rec.trajectory) - 2} ILS iterations")
    return call


def _check_construct(wl: Workload, inst: Instance, out) -> Call:
    # the target is the first feasible design, so the time to target is the
    # construction's; the chain's last improvement lands at a seed-dependent
    # step and would make a bimodal metric
    construct_s, chain = out
    call = Call(inst.name, chain[-1].cost, construct_s)
    prev = math.inf
    for step, sol in enumerate(chain):
        call.problems += _check_design(inst, sol, f"{inst.name} step {step}")
        if sol.cost > prev + TOL:
            call.problems.append(f"{inst.name} step {step}: ejection cycle raised the cost")
        prev = sol.cost
    return call


def _check_root_lp(wl: Workload, inst: Instance, out) -> Call:
    m, res, solve_s = out
    ref = wl.reference[inst.name]
    call = Call(inst.name, res.objective, solve_s)
    if res.status != milp.STATUS_OPTIMAL:
        call.problems.append(f"{inst.name}: root LP status {res.status}")
        return call
    if abs(res.objective - ref) > TOL * max(1.0, abs(ref)):
        call.problems.append(f"{inst.name}: root LP objective {res.objective} is not {ref}")
    call.problems += [f"{inst.name}: {p}" for p in lp_violations(m, res.values)]
    return call


def lp_violations(m, x: np.ndarray, tol: float = TOL) -> list[str]:
    """Row and bound violations of a primal point, read from ``MipModel.rows``
    (an independent check, not the kernel's own bookkeeping)."""
    problems = []
    if np.any(x < m.lb - tol) or np.any(x > m.ub + tol):
        problems.append("primal point violates a variable bound")
    for row in m.rows:
        lhs = float(row.coefs @ x[row.cols])
        scale = tol * (1.0 + abs(row.rhs))
        ok = {
            SENSE_LE: lhs <= row.rhs + scale,
            SENSE_GE: lhs >= row.rhs - scale,
            SENSE_EQ: abs(lhs - row.rhs) <= scale,
        }[row.sense]
        if not ok:
            problems.append(f"row {row.name}: {lhs} {row.sense} {row.rhs} violated")
            break
    return problems
