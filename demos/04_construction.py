"""The constructive heuristic: route commodities under a blended cost.

Each sweep routes the commodities one by one (largest quantities first,
within a gamma band, in random order) under a cost mixing opening cost,
variable cost and length; then everything is re-routed by pure length on
the opened network and unused edges are closed. The blend parameter
descends from 1 to 0 over the sweeps, shifting priority from shipping
cost to path length.
"""

from fcndp import generate_instance, solve_exact, verify_bilevel
from fcndp.heuristics import SWEEPS, candidate_list, partial_decoupling

inst = generate_instance(9, 0.5, 6, seed=54)
print(inst.name)

# the candidate band: only commodities within 85% of the largest pending
pending = list(range(inst.num_commodities))
band = candidate_list(inst, pending, gamma=0.85)
print("quantities:", [k.quantity for k in inst.commodities], "-> band:", band)

sol = partial_decoupling(inst, gamma=0.85, rng=3)
print(f"kept the cheapest of {SWEEPS} sweeps:", sol.cost)
print("feasible:", verify_bilevel(inst, sol).passed)

exact = solve_exact(inst)
print(f"optimum {exact.cost}, construction gap "
      f"{100 * (sol.cost - exact.cost) / exact.cost:.1f}%")

# different seeds explore different insertion orders
costs = {partial_decoupling(inst, 0.85, rng=s).cost for s in range(8)}
print("costs across seeds:", sorted(costs))
