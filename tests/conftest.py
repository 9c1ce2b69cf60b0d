import numpy as np
import pytest
from hypothesis import settings

from fcndp.graph import Adjacency, dijkstra
from fcndp.instance import Commodity, Edge, Instance
from fcndp.solution import Solution

# property tests run a fixed, small example set: the same examples on every
# run (no example database, no wall-clock deadline), inside the tier-1 budget
settings.register_profile("fcndp", derandomize=True, database=None, deadline=None, max_examples=12)
settings.load_profile("fcndp")


@pytest.fixture
def worked() -> Instance:
    """Three nodes, three edges, one commodity of quantity 2 from 0 to 2.

    All eight designs by hand: {(0,2)} costs 8 + 2*1 = 10 (path length 3),
    {(0,1),(1,2)} costs 10 + 2*2 = 14, all three open costs 18 + 4 = 22
    (follower takes the length-2 route), everything else disconnects the
    commodity. Optimum 10.
    """
    return Instance(
        3,
        (Edge(0, 1, 1, 5, 1), Edge(1, 2, 1, 5, 1), Edge(0, 2, 3, 8, 1)),
        (Commodity(0, 2, 2),),
        name="worked",
    )


def make_solution(inst: Instance, open_edges, arcs_by_commodity) -> Solution:
    """Hand-built solution: arcs as (tail, head) node pairs."""
    arc_of = {}
    for e, edge in enumerate(inst.edges):
        arc_of[(edge.u, edge.v)] = 2 * e
        arc_of[(edge.v, edge.u)] = 2 * e + 1
    y = np.zeros(inst.num_edges, dtype=np.int8)
    y[list(open_edges)] = 1
    x = np.zeros((inst.num_commodities, 2 * inst.num_edges), dtype=np.int8)
    for k, arcs in arcs_by_commodity.items():
        for pair in arcs:
            x[k, arc_of[pair]] = 1
    from fcndp.solution import evaluate_cost

    return Solution(y, x, evaluate_cost(inst, y, x))


def tree_bound(inst: Instance) -> float:
    """sum_k q_k dist_beta(o_k, d_k), every commodity routed alone along a
    shortest path by unit cost: the objective of ``build_model``'s start
    basis, and a lower bound on the bilevel optimum."""
    adj = Adjacency.from_instance(inst)
    beta = inst.edge_array("beta")
    return float(sum(com.quantity * dijkstra(adj, com.origin, beta).dist[com.destination] for com in inst.commodities))
