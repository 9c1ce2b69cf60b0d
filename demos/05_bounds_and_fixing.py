"""Lower bounds and the relax-and-fix pass.

The MIP ties design, flows and shortest-path optimality together. Its LP
relaxation gives a first bound. Progressive bounding works on the
high-point relaxation, the MIP without its optimality rows: promoting
half-open design variables to binary tightens the bound. The relax-and-fix
pass then works on the full MIP: it moves one commodity's flow block at a
time into the binary set under the incumbent cost as cutoff, closing edges
whose reduced cost proves them useless.
"""

import math

from fcndp import (
    build_model,
    compute_big_m,
    generate_instance,
    solve_bnb,
    solve_exact,
    solve_lp,
)
from fcndp.heuristics import lbound, partial_decoupling, proves_optimal, vfh

inst = generate_instance(6, 0.7, 3, seed=257)
exact = solve_exact(inst)
print(inst.name, "optimum", exact.cost)

model = build_model(inst, compute_big_m(inst))
lp = solve_lp(model)
print(f"LP relaxation {lp.objective:.2f} "
      f"-> integer bound {math.ceil(lp.objective - 1e-6)}")

lb = lbound(inst)
print(f"progressive bound {lb.value} after {lb.iterations} passes, "
      f"proven optimal: {lb.solution is not None}")

construction = partial_decoupling(inst, 0.85, rng=257)
print("construction cost:", construction.cost)

res = vfh(inst, 0.85, rng=257)
print(f"relax-and-fix: cost {res.solution.cost}, bound {res.lower_bound}, "
      f"proven {proves_optimal(inst, res.solution.cost, res.lower_bound)}, edges closed by reduced cost: {res.fixed_edges}")

bb = solve_bnb(model, model.integer_ok, lp)
print("full branch-and-bound agrees:", bb.objective == exact.cost)
