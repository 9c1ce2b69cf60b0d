"""The full iterated run: construct + bound + fix, then perturb and
re-branch for a fixed number of iterations, tracking the best solution.

A bound that proves the incumbent optimal (with integer data, a gap below
one) skips local branching and the loop.
Identical (instance, config) pairs reproduce bit-identical solutions.
"""

from fcndp import SolverConfig, generate_instance, solve_exact, solution_to_json, vfhlb

inst = generate_instance(8, 0.7, 4, seed=33)
cfg = SolverConfig(gamma=0.85, delta=None, iterations=10, seed=1)
print(inst.name, "| delta resolves to", cfg.resolve_delta(inst))

sol, rec = vfhlb(inst, cfg)
print(f"cost {rec.cost}, lower bound {rec.lower_bound}, gap {rec.gap}")
print("best-so-far trajectory:")
for cost, elapsed in rec.trajectory:
    print(f"  {elapsed:7.3f}s  {cost}")

exact = solve_exact(inst)
print("optimum:", exact.cost, "| matched:", rec.cost == exact.cost)

again, _ = vfhlb(inst, cfg)
print("rerun reproduces cost:", again.cost == sol.cost)

print("\nsolution JSON:")
print(solution_to_json(inst, sol, lower_bound=rec.lower_bound, seed=cfg.seed,
                       wall_time_s=rec.wall_time_s))
