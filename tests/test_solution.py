import json

import numpy as np
import pytest

from conftest import make_solution
from fcndp.instance import Commodity, Edge, Instance, generate_instance
from fcndp.solution import (
    Solution,
    close_unused_edges,
    evaluate_cost,
    follower_paths,
    solution_from_dict,
    solution_to_dict,
    verify_bilevel,
)
from fcndp.heuristics import partial_decoupling


def test_evaluate_cost_worked_cases(worked):
    direct = make_solution(worked, [2], {0: [(0, 2)]})
    assert direct.cost == 10.0
    empty = make_solution(worked, [], {})
    assert evaluate_cost(worked, empty.y, empty.x) == 0.0
    detour = make_solution(worked, [0, 1, 2], {0: [(0, 1), (1, 2)]})
    assert detour.cost == 22.0


def test_evaluate_cost_linear_in_quantity(worked):
    doubled = Instance(
        worked.nodes,
        worked.edges,
        tuple(Commodity(k.origin, k.destination, 2 * k.quantity) for k in worked.commodities),
    )
    sol = make_solution(worked, [2], {0: [(0, 2)]})
    fixed = sum(worked.edges[e].f for e in sol.open_edges())
    var_once = evaluate_cost(worked, sol.y, sol.x) - fixed
    var_twice = evaluate_cost(doubled, sol.y, sol.x) - fixed
    assert var_twice == 2 * var_once


def test_verify_constructed_solution_passes(worked):
    sol = partial_decoupling(worked, 0.85, rng=0)
    report = verify_bilevel(worked, sol)
    assert report.passed and not report.violations


def test_verify_flags_longer_route(worked):
    # direct edge open but commodity routed the long way round
    sol = make_solution(worked, [0, 1, 2], {0: [(0, 2)]})
    # shortest open path is 0-1-2 of length 2; direct edge has length 3
    bad = make_solution(worked, [0, 1, 2], {0: [(0, 2)]})
    report = verify_bilevel(worked, bad)
    assert not report.passed
    assert any(v.constraint == "shortest-path" for v in report.violations)


def test_verify_flags_closed_edge(worked):
    bad = make_solution(worked, [0, 1], {0: [(0, 2)]})
    report = verify_bilevel(worked, bad)
    assert not report.passed
    assert any(v.constraint == "closed-edge" for v in report.violations)


def test_verify_flags_flow_imbalance(worked):
    bad = make_solution(worked, [0], {0: [(0, 1)]})  # stops short of node 2
    report = verify_bilevel(worked, bad)
    assert not report.passed
    assert any(v.constraint == "flow-conservation" for v in report.violations)


def test_verify_pass_implies_model_certificate(worked):
    """A passing solution extends to a full feasible point of the MIP: take
    follower distances to each destination as the potentials."""
    from fcndp.graph import Adjacency, dijkstra
    from fcndp.instance import compute_big_m
    from fcndp.model import SENSE_EQ, SENSE_GE, SENSE_LE, build_model

    sol = partial_decoupling(worked, 0.85, rng=3)
    assert verify_bilevel(worked, sol).passed
    model = build_model(worked, compute_big_m(worked))
    values = np.zeros(model.num_vars)
    values[: worked.num_edges] = sol.y
    for k in range(worked.num_commodities):
        start = model.x_var(k, 0)
        values[start : start + 2 * worked.num_edges] = sol.x[k]
    open_adj = Adjacency.from_instance(worked, open_mask=np.asarray(sol.y, bool))
    c = worked.edge_array("c")
    for k, com in enumerate(worked.commodities):
        pr = dijkstra(open_adj, com.destination, c)
        for i in range(worked.nodes):
            values[model.pi_var(k, i)] = pr.dist[i] if pr.reached[i] else 0.0
    assert np.all(values >= model.lb - 1e-9) and np.all(values <= model.ub + 1e-9)
    for row in model.rows:
        lhs = float(values[row.cols] @ row.coefs)
        if row.sense == SENSE_LE:
            assert lhs <= row.rhs + 1e-9, row.name
        elif row.sense == SENSE_GE:
            assert lhs >= row.rhs - 1e-9, row.name
        else:
            assert abs(lhs - row.rhs) <= 1e-9, row.name


def test_close_unused_edges_drops_idle_edge(worked):
    sol = make_solution(worked, [0, 1, 2], {0: [(0, 1), (1, 2)]})
    closed = close_unused_edges(worked, sol)
    assert closed.open_edges() == [0, 1]
    assert closed.cost == sol.cost - 8.0
    again = close_unused_edges(worked, closed)
    assert again.cost == closed.cost
    assert np.array_equal(again.y, closed.y)


def test_close_unused_edges_zero_flow(worked):
    sol = make_solution(worked, [0, 1, 2], {})
    # no commodities routed: a zero-flow x for the single commodity is not
    # conservation-feasible, but CloseEdge is defined purely on flows
    closed = close_unused_edges(worked, sol)
    assert closed.open_edges() == []
    assert closed.cost == 0.0


def test_close_unused_edges_cost_monotone():
    inst = generate_instance(7, 0.6, 3, seed=5)
    sol = partial_decoupling(inst, 0.85, rng=1)
    y = np.ones_like(sol.y)
    opened = Solution(y, sol.x, evaluate_cost(inst, y, sol.x))
    closed = close_unused_edges(inst, opened)
    assert closed.cost <= opened.cost


def test_solution_json_round_trip(worked):
    sol = make_solution(worked, [2], {0: [(0, 2)]})
    data = solution_to_dict(worked, sol, lower_bound=10.0, seed=7, wall_time_s=0.5)
    assert data["cost"] == 10.0
    assert data["gap"] == 0.0
    assert data["open_edges"] == [2]
    assert data["paths"] == {"0": [0, 2]}
    text = json.dumps(data, sort_keys=True)
    rebuilt = solution_from_dict(worked, json.loads(text))
    assert np.array_equal(rebuilt.y, sol.y)
    assert np.array_equal(rebuilt.x, sol.x)


def test_follower_paths_rejects_non_path(worked):
    bad = make_solution(worked, [0], {0: [(0, 1)]})
    with pytest.raises(ValueError, match="destination"):
        follower_paths(worked, bad)
