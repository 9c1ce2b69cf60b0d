"""Golden outputs of full solver runs.

Each file under ``tests/golden/`` holds the solution and run record of one
``vfhlb`` run with every timing field left out, so a refactor that claims
"same behaviour" must reproduce it byte for byte. Regenerate (only when a
behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fcndp.driver import SolverConfig, vfhlb
from fcndp.instance import generate_instance
from fcndp.solution import solution_to_dict

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
SEED = 1
# (nodes, density, commodities, instance seed): vfh proves 8-0.5-4-1
# optimal, lbound proves 8-0.5-4-2 and 9-0.4-4-4; 8-0.6-4-1 keeps its gap
# open, so every ILS iteration runs with local branching under a cutoff;
# on 6-0.8-3-0 vfh closes edges 0 and 1 by reduced-cost fixing and the gap
# stays open too
CASES = [(8, 0.5, 4, 1), (8, 0.5, 4, 2), (9, 0.4, 4, 4), (8, 0.6, 4, 1), (6, 0.8, 3, 0)]
GAP_OPEN = [(8, 0.6, 4, 1), (6, 0.8, 3, 0)]


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


@pytest.mark.parametrize("case", CASES, ids=case_name)
def test_matches_golden(case):
    path = GOLDEN_DIR / f"{case_name(case)}.json"
    assert golden_text(case) == path.read_text(encoding="utf-8")


def test_same_output_across_blas_threads_and_kernels():
    """The simplex applies its tableau updates with a matrix product, whose
    BLAS may split work by thread count and pick its kernel by CPU; full
    runs on the gap-open cases print the golden bytes with one BLAS thread,
    with two, and with OpenBLAS forced onto its generic SSE kernel
    (``OPENBLAS_CORETYPE=Prescott``, which other BLAS builds ignore)."""
    script = (
        "import json, sys; from test_golden import golden_text; "
        f"json.dump([golden_text(case) for case in {GAP_OPEN!r}], sys.stdout)"
    )
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
    assert all(json.loads(text)["record"]["gap"] >= 1 for text in outputs[0])
    golden = [(GOLDEN_DIR / f"{case_name(case)}.json").read_text(encoding="utf-8") for case in GAP_OPEN]
    assert outputs == [golden] * 3


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN_DIR / f"{case_name(case)}.json"
        path.write_text(golden_text(case), encoding="utf-8")
        print(path)
