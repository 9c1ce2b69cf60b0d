"""Golden outputs of full solver runs and of the search loop.

Each ``tests/golden/<case>.json`` holds the solution and run record of one
``vfhlb`` run with every timing field left out, each
``tests/golden/search-<case>.json`` the design and per-round costs of the
search loop alone (construction, then ejection-cycle + local-branching
rounds), and ``tests/golden/models.json`` the SHA-256 digests of the MIP
models ``build_model`` makes, so a refactor that claims "same behaviour"
must reproduce them byte for byte. Regenerate (only when a behaviour
change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fcndp import heuristics, milp
from fcndp.driver import SolverConfig, vfhlb
from fcndp.heuristics import ejection_cycle, local_branching, partial_decoupling
from fcndp.instance import compute_big_m, generate_instance
from fcndp.milp import FEAS_TOL, STATUS_CUTOFF, STATUS_ITERATION_LIMIT, solve_bnb, solve_lp
from fcndp.model import build_model
from fcndp.solution import solution_to_dict
from test_acceptance import pool_instance

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
SEED = 1
# (nodes, density, commodities, instance seed): lbound proves 8-0.5-4-1,
# 8-0.5-4-2 and 8-0.6-4-1 optimal; on 6-0.8-3-0 vfh closes edge 2 by
# reduced-cost fixing, then a relax-and-fix pass ends at its cutoff, which
# proves the incumbent; 9-0.4-4-4 is proven one way or the other depending
# on how the BLAS kernel rounds. So no run searches: SEARCH_CASES cover the
# search loop
CASES = [(8, 0.5, 4, 1), (8, 0.5, 4, 2), (9, 0.4, 4, 4), (8, 0.6, 4, 1), (6, 0.8, 3, 0)]
# the search loop runs on these whatever the bound proves and whatever the
# clock reads: every round's local branching is a B&B that its cutoff ends
SEARCH_CASES = [(8, 0.6, 4, 1), (6, 0.8, 3, 0)]
# cold root LPs whose pivot path the BLAS settings must not change: the two
# the benchmark solves and the one of the size a full solve aims at
ROOT_CASES = [(12, 0.3, 6, 1), (15, 0.25, 8, 1), (20, 0.2, 10, 1)]
# models whose every row, cost and bound is pinned: the golden runs', the
# search workload's and the root LPs'
MODEL_CASES = [(8, 0.5, 4, 2), (8, 0.6, 4, 1), (9, 0.4, 4, 4), (12, 0.3, 6, 1), (15, 0.25, 8, 1),
               (20, 0.2, 10, 1), (6, 0.8, 3, 0)]


def case_name(case) -> str:
    return "-".join(str(v) for v in case)


def golden_text(case) -> str:
    inst = generate_instance(*case)
    sol, rec = vfhlb(inst, SolverConfig(seed=SEED))
    solution = solution_to_dict(inst, sol, lower_bound=rec.lower_bound, seed=SEED)
    del solution["wall_time_s"]
    record = {
        "cost": rec.cost,
        "lower_bound": rec.lower_bound,
        "gap": rec.gap,
        "status": rec.status,
        "trajectory_costs": [cost for cost, _ in rec.trajectory],
    }
    payload = {"solution": solution, "record": record}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def search_text(case) -> str:
    """The search loop of ``vfhlb`` without its proof test and its clock:
    the constructive design, then ``iterations`` rounds of ejection cycle
    and local branching, all drawing from one generator seeded ``SEED``."""
    inst = generate_instance(*case)
    cfg = SolverConfig(seed=SEED)
    rng = np.random.default_rng(SEED)
    current = partial_decoupling(inst, cfg.gamma, rng=rng)
    costs = [current.cost]
    for _ in range(cfg.iterations):
        current = ejection_cycle(inst, current, cfg.gamma, rng=rng)
        current = local_branching(inst, current, cfg.resolve_delta(inst))
        costs.append(current.cost)
    solution = solution_to_dict(inst, current, seed=SEED)
    for unbounded in ("lower_bound", "gap", "wall_time_s"):
        del solution[unbounded]
    payload = {"solution": solution, "trajectory_costs": costs}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(part.dtype.str.encode() + b"\0" + np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def model_digests(case) -> dict:
    """SHA-256 of the model ``build_model`` makes for ``case``: one over the
    digests of its rows, each of cols and coefs (bytes and dtype), sense,
    ``float(rhs)`` and name, and one each of ``obj``, ``lb`` and ``ub``."""
    inst = generate_instance(*case)
    model = build_model(inst, compute_big_m(inst))
    rows = [_sha256(r.cols, r.coefs, r.sense, float(r.rhs), r.name) for r in model.rows]
    return {
        "num_rows": len(rows),
        "rows": _sha256(*rows),
        "obj": _sha256(model.obj),
        "lb": _sha256(model.lb),
        "ub": _sha256(model.ub),
    }


def models_text() -> str:
    payload = {case_name(case): model_digests(case) for case in MODEL_CASES}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_models_match_golden():
    assert models_text() == (GOLDEN_DIR / "models.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES, ids=case_name)
def test_matches_golden(case):
    path = GOLDEN_DIR / f"{case_name(case)}.json"
    assert golden_text(case) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", SEARCH_CASES, ids=case_name)
def test_search_matches_golden(case):
    path = GOLDEN_DIR / f"search-{case_name(case)}.json"
    assert search_text(case) == path.read_text(encoding="utf-8")


def test_optimal_exit_check_refuses_nothing(monkeypatch):
    """The dual simplex's ratio test keeps every reduced cost within
    OPT_TOL of its sign, and its optimal exit checks that on reduced costs
    re-derived from the tableau, ending the solve at the pivot budget's
    status if rounding broke it. Over the golden full runs and search loops
    and the B&B runs of the 30-instance oracle pool, the check refuses no
    solve: a kernel change that erodes the margin fails here instead of
    silently dropping B&B nodes."""
    solve = milp._Simplex.solve
    feasible_ends = []  # per solve that reached a primal feasible point: was it refused

    def counted(self):
        status = solve(self)
        if np.maximum(self.lbb - self.xb, self.xb - self.ubb).max(initial=0.0) <= FEAS_TOL:
            feasible_ends.append(status == STATUS_ITERATION_LIMIT)
        return status

    monkeypatch.setattr(milp._Simplex, "solve", counted)
    for case in CASES:
        golden_text(case)
    for case in SEARCH_CASES:
        search_text(case)
    for i in range(30):
        inst = pool_instance(i)
        model = build_model(inst, compute_big_m(inst))
        solve_bnb(model, model.integer_ok)
    # 413 solves reach a primal feasible point here
    assert len(feasible_ends) > 300 and sum(feasible_ends) == 0


def blas_probe() -> dict:
    """The full runs and the search loops of ``SEARCH_CASES``, with the
    number of the search loops' B&B runs that ended at their cutoff, and
    the pivot count and final basis of the cold root LP of each of
    ``ROOT_CASES``."""
    texts = [golden_text(case) for case in SEARCH_CASES]
    ends = []
    bnb = heuristics.solve_bnb

    def watched(*args, **kwargs):
        res = bnb(*args, **kwargs)
        ends.append(res.status)
        return res

    heuristics.solve_bnb = watched
    try:
        texts += [search_text(case) for case in SEARCH_CASES]
    finally:
        heuristics.solve_bnb = bnb
    roots = []
    for case in ROOT_CASES:
        inst = generate_instance(*case)
        res = solve_lp(build_model(inst, compute_big_m(inst)))
        roots.append([res.iterations, res.start.sx.basis.tolist()])
    return {"texts": texts, "cutoffs": ends.count(STATUS_CUTOFF), "roots": roots}


def test_same_output_across_blas_threads_and_kernels():
    """The simplex applies its tableau updates with a matrix product, whose
    BLAS may split work by thread count and pick its kernel by CPU; full
    runs and search loops print the golden bytes, as many B&B runs end at
    their cutoff, and the cold root LPs take the same pivots to the same
    basis, with one BLAS thread, with two, and with OpenBLAS forced onto
    its generic SSE kernel (``OPENBLAS_CORETYPE=Prescott``, which other
    BLAS builds ignore)."""
    script = "import json, sys; from test_golden import blas_probe; json.dump(blas_probe(), sys.stdout)"
    path = os.pathsep.join([str(TESTS_DIR.parent / "src"), str(TESTS_DIR)])
    outputs = []
    for threads, core in (("1", None), ("2", None), ("1", "Prescott")):
        env = dict(os.environ, PYTHONPATH=path)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        env.pop("OPENBLAS_CORETYPE", None)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        outputs.append(json.loads(run.stdout))
    # premise: every round of both search loops ran a B&B that its cutoff ended
    cutoffs = len(SEARCH_CASES) * SolverConfig().iterations
    golden = [(GOLDEN_DIR / f"{case_name(case)}.json").read_text(encoding="utf-8") for case in SEARCH_CASES]
    golden += [(GOLDEN_DIR / f"search-{case_name(case)}.json").read_text(encoding="utf-8") for case in SEARCH_CASES]
    # the dual simplex from the slack basis takes 124, 285 and 647 pivots
    roots = outputs[0]["roots"]
    assert [pivots for pivots, _ in roots] == [124, 285, 647]
    assert outputs == [{"texts": golden, "cutoffs": cutoffs, "roots": roots}] * 3


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN_DIR / f"{case_name(case)}.json"
        path.write_text(golden_text(case), encoding="utf-8")
        print(path)
    for case in SEARCH_CASES:
        path = GOLDEN_DIR / f"search-{case_name(case)}.json"
        path.write_text(search_text(case), encoding="utf-8")
        print(path)
    path = GOLDEN_DIR / "models.json"
    path.write_text(models_text(), encoding="utf-8")
    print(path)
