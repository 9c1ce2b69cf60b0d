import numpy as np
import pytest

from fcndp.instance import Commodity, Edge, Instance, compute_big_m, generate_instance
from fcndp.milp import solve_bnb, solve_lp
from fcndp.model import add_local_branching_cut, build_model
from fcndp.oracle import solve_exact


def test_worked_model_shape(worked):
    model = build_model(worked, compute_big_m(worked))
    E, K, V = 3, 1, 3
    assert model.num_vars == E + 2 * E * K + V * K == 12
    # y and x variables, in that order, may be made binary; pi may not
    assert model.integer_ok.tolist() == [True] * (3 + 6) + [False] * 3
    # destination potential pinned through its bounds
    pinned = model.pi_var(0, worked.commodities[0].destination)
    assert model.lb[pinned] == model.ub[pinned] == 0.0
    assert len(model.rows) == K * V + K * E + 2 * K * E == 12


def test_empty_commodity_model(worked):
    inst = Instance(worked.nodes, worked.edges, ())
    model = build_model(inst, compute_big_m(inst))
    assert model.num_vars == 3
    assert len(model.rows) == 0
    res = solve_lp(model)
    assert res.status == "optimal"
    assert res.objective == 0.0


def test_full_bnb_matches_oracle(worked):
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, solve_lp(model))
    assert res.status == "optimal"
    assert res.objective == 10.0


def test_lb_cut_zero_radius_forces_design(worked):
    model = build_model(worked, compute_big_m(worked))
    ybar = np.array([1, 1, 0])
    cut = add_local_branching_cut(model, ybar, 0)
    res = solve_bnb(cut, cut.integer_ok, solve_lp(cut))
    assert res.status == "optimal"
    assert np.allclose(np.round(res.values[:3]), ybar)


def test_lb_cut_arithmetic():
    inst = generate_instance(6, 0.6, 2, seed=0)
    model = build_model(inst, compute_big_m(inst))
    ybar = np.zeros(inst.num_edges, dtype=int)
    ybar[[0, 2]] = 1  # like (1,0,1,...) on the first three edges
    cut_model = add_local_branching_cut(model, ybar, 1)
    row = cut_model.rows[-1]
    assert row.rhs == 1 - 2
    candidate = np.zeros(inst.num_edges)
    candidate[[2]] = 1  # one flip from ybar on edge 0
    lhs = float(candidate[row.cols] @ row.coefs)
    assert lhs <= row.rhs  # hamming distance 1 <= delta
    # the incumbent itself always satisfies its own cut
    lhs_self = float(ybar[row.cols] @ row.coefs)
    assert lhs_self == row.rhs - 1  # left side 0 before moving the constant


def test_lb_cut_rhs_formula_matches_half_edges():
    inst = generate_instance(10, 0.3, 5, seed=1)
    assert inst.num_edges == 13
    import math

    delta = math.ceil(inst.num_edges / 2)
    assert delta == 7
    model = build_model(inst, compute_big_m(inst))
    ybar = np.zeros(13, dtype=int)
    cut_model = add_local_branching_cut(model, ybar, delta)
    row = cut_model.rows[-1]
    assert row.rhs == 7.0


def test_lb_cut_leaves_input_model_unchanged(worked):
    model = build_model(worked, compute_big_m(worked))
    rows = list(model.rows)
    bounds = (model.lb.copy(), model.ub.copy())
    one = add_local_branching_cut(model, [1, 0, 0], 1)
    assert model.rows == rows
    assert np.array_equal(model.lb, bounds[0]) and np.array_equal(model.ub, bounds[1])
    assert len(one.rows) == len(model.rows) + 1
    assert one.rows[:-1] == rows


def test_fix_opening_variable_zero(worked):
    model = build_model(worked, compute_big_m(worked))
    model.ub[model.y_var(2)] = 0.0
    res = solve_bnb(model, model.integer_ok, solve_lp(model))
    assert res.status == "optimal"
    assert res.objective == 14.0  # forced onto the two-edge route
    assert round(res.values[2]) == 0


def test_fix_all_infeasible(worked):
    model = build_model(worked, compute_big_m(worked))
    model.ub[:3] = 0.0
    res = solve_bnb(model, model.integer_ok, solve_lp(model))
    assert res.status == "infeasible"


def test_plan_split_and_validation(worked):
    model = build_model(worked, compute_big_m(worked))
    binary = np.zeros(model.num_vars, dtype=bool)
    binary[[model.y_var(0), model.x_var(0, 0)]] = True
    assert solve_bnb(model, binary, solve_lp(model)).status == "optimal"
    binary[model.pi_var(0, 0)] = True
    with pytest.raises(ValueError, match="cannot be made binary"):
        solve_bnb(model, binary, solve_lp(model))


def test_model_oracle_equivalence_small_batch():
    for seed in range(10):
        inst = generate_instance(5 + seed % 3, 0.7, 2, seed=seed)
        model = build_model(inst, compute_big_m(inst))
        res = solve_bnb(model, model.integer_ok, solve_lp(model))
        exact = solve_exact(inst)
        assert res.objective == exact.cost, inst.name


def test_lp_relaxation_below_integral(worked):
    model = build_model(worked, compute_big_m(worked))
    lp = solve_lp(model)
    bb = solve_bnb(model, model.integer_ok, lp)
    assert lp.objective <= bb.objective + 1e-9
