"""Golden outputs of full solver runs.

Each file under ``tests/golden/`` holds the solution and run record of one
``vfhlb`` run with every timing field left out, so a refactor that claims
"same behaviour" must reproduce it byte for byte. Regenerate (only when a
behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fcndp.driver import SolverConfig, vfhlb
from fcndp.instance import generate_instance
from fcndp.solution import solution_to_dict

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 1
# (nodes, density, commodities, instance seed): 8-0.5-4-1 is proven optimal
# by vfh; the other two run lbound passes, reduced-cost fixing and all ILS
# iterations with local branching under a cutoff
CASES = [(8, 0.5, 4, 1), (8, 0.5, 4, 2), (9, 0.4, 4, 4)]


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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN_DIR / f"{case_name(case)}.json"
        path.write_text(golden_text(case), encoding="utf-8")
        print(path)
