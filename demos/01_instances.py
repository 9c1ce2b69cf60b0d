"""Build, generate, save and reload problem instances.

An instance is an undirected graph with three per-edge numbers (length,
opening cost, per-unit shipping cost) and a list of commodities, each a
(origin, destination, quantity) triple.
"""

import tempfile
from pathlib import Path

from fcndp import Commodity, Edge, Instance, compute_big_m, generate_instance, load_instance, save_instance

# a tiny instance written out by hand: a triangle with one commodity
triangle = Instance(
    nodes=3,
    edges=(
        Edge(0, 1, c=1, f=5, beta=1),
        Edge(1, 2, c=1, f=5, beta=1),
        Edge(0, 2, c=3, f=8, beta=1),
    ),
    commodities=(Commodity(origin=0, destination=2, quantity=2),),
    name="triangle",
)
print(f"{triangle.name}: {triangle.nodes} nodes, {triangle.num_edges} edges, "
      f"{triangle.num_commodities} commodity")

# the big-M constants make the path-optimality rows vacuous on closed edges
big_m = compute_big_m(triangle)
print("edge lengths:", [e.c for e in triangle.edges])
print("big-M per edge:", big_m.tolist())

# random instances follow the <nodes>-<density>-<commodities>-<seed> naming
inst = generate_instance(n_nodes=10, density=0.3, n_commodities=5, seed=1)
print(f"\ngenerated {inst.name}: {inst.num_edges} edges "
      f"(floor(0.3 * 45) = 13), integer data: {inst.is_integer_data()}")

with tempfile.TemporaryDirectory() as tmp:
    save_instance(inst, Path(tmp) / "demo-instance.txt")
    reloaded = load_instance(Path(tmp) / "demo-instance.txt")
print("round trip equal:", reloaded == inst)

# validation is strict: self-loops, duplicate edges, nonpositive quantities
try:
    Instance(2, (Edge(0, 0, 1, 1, 1),), ())
except ValueError as exc:
    print("rejected:", exc)
