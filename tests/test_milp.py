import copy
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fcndp import milp
from conftest import tree_bound
from fcndp.instance import Commodity, Edge, Instance, compute_big_m, generate_instance
from fcndp.milp import solve_bnb, solve_lp
from fcndp.model import SENSE_EQ, SENSE_GE, SENSE_LE, MipModel, Row, add_local_branching_cut, build_model


def tiny_model(obj, lb, ub, rows=(), integer=None) -> MipModel:
    n = len(obj)
    integer = integer if integer is not None else [False] * n
    return MipModel(
        num_vars=n,
        obj=np.array(obj, dtype=float),
        lb=np.array(lb, dtype=float),
        ub=np.array(ub, dtype=float),
        integer_ok=np.array(integer, dtype=bool),
        rows=[
            Row(np.array(cols, dtype=int), np.array(coefs, dtype=float), sense, float(rhs))
            for cols, coefs, sense, rhs in rows
        ],
        num_edges=0,
        num_commodities=0,
        num_nodes=0,
    )


def residuals_ok(model: MipModel, values: np.ndarray, tol: float = 1e-7) -> bool:
    if np.any(values < model.lb - tol) or np.any(values > model.ub + tol):
        return False
    for row in model.rows:
        lhs = float(values[row.cols] @ row.coefs)
        scale = 1.0 + abs(row.rhs)
        if row.sense == SENSE_LE and lhs > row.rhs + tol * scale:
            return False
        if row.sense == SENSE_GE and lhs < row.rhs - tol * scale:
            return False
        if row.sense == SENSE_EQ and abs(lhs - row.rhs) > tol * scale:
            return False
    return True


def test_simple_maximization_via_min():
    model = tiny_model([-1.0], [0.0], [5.0], rows=[([0], [1.0], SENSE_LE, 1.0)])
    res = solve_lp(model)
    assert res.status == "optimal"
    assert abs(res.objective + 1.0) < 1e-9
    assert abs(res.values[0] - 1.0) < 1e-9


def test_infeasible_row():
    model = tiny_model([0.0], [0.0], [1.0], rows=[([], [], SENSE_GE, 1.0)])
    res = solve_lp(model)
    assert res.status == "infeasible"


def test_unbounded():
    """A variable with no finite bound on the side its cost falls to has no
    dual feasible start, so it is refused: min -x over x >= 0, the same with
    a row x <= 1 that bounds the LP, a free variable and a positive cost
    with no lower bound."""
    cases = [
        ([-1.0], [0.0], [math.inf], []),
        ([-1.0], [0.0], [math.inf], [([0], [1.0], SENSE_LE, 1.0)]),
        ([0.0], [-math.inf], [math.inf], [([0], [1.0], SENSE_LE, 1.0)]),
        ([1.0], [-math.inf], [0.0], [([0], [1.0], SENSE_GE, -1.0)]),
    ]
    for obj, lb, ub, rows in cases:
        with pytest.raises(ValueError, match="variable 0 is unbounded in the direction its cost falls"):
            solve_lp(tiny_model(obj, lb, ub, rows=rows))


def test_unknown_row_sense_refused():
    model = tiny_model([1.0], [0.0], [1.0], rows=[([0], [1.0], "<", 1.0)])
    with pytest.raises(ValueError, match="unknown row sense"):
        solve_lp(model)


def test_lp_relaxation_is_weak_bound(worked):
    model = build_model(worked, compute_big_m(worked))
    res = solve_lp(model)
    assert res.status == "optimal"
    assert res.objective <= 10.0 + 1e-9
    assert residuals_ok(model, res.values)


def test_reduced_cost_of_basic_variable_is_zero():
    model = tiny_model(
        [1.0, 1.0], [0.0, 0.0], [10.0, 10.0],
        rows=[([0, 1], [1.0, 1.0], SENSE_GE, 2.0)],
    )
    res = solve_lp(model)
    assert res.status == "optimal"
    inside = [v for v in range(2) if model.lb[v] + 1e-9 < res.values[v] < model.ub[v] - 1e-9]
    assert inside and all(res.reduced_costs[v] == 0.0 for v in inside)


def test_reduced_cost_free_standing_min():
    model = tiny_model([1.0], [0.0], [1.0])
    res = solve_lp(model)
    assert res.status == "optimal"
    assert res.values[0] == 0.0
    assert res.reduced_costs[0] == 1.0


def test_reduced_cost_refused_on_bnb_result(worked):
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, solve_lp(model))
    assert res.reduced_costs is None


def random_lp(rng, n=6, m=4):
    obj = rng.integers(-5, 6, size=n).astype(float)
    lb = np.zeros(n)
    ub = rng.integers(1, 5, size=n).astype(float)
    rows = []
    senses = [SENSE_LE, SENSE_GE, SENSE_EQ]
    for i in range(m):
        cols = rng.choice(n, size=rng.integers(2, n), replace=False)
        coefs = rng.integers(-3, 4, size=len(cols)).astype(float)
        sense = senses[int(rng.integers(0, 3))] if i else SENSE_LE
        point = rng.uniform(0, 1, size=len(cols)) * ub[cols]
        rhs = float(coefs @ point)  # keeps a good share of models feasible
        rows.append((cols, coefs, sense, rhs))
    return tiny_model(obj, lb, ub, rows=rows)


def scipy_solve(model: MipModel):
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in model.rows:
        dense = np.zeros(model.num_vars)
        dense[row.cols] = row.coefs
        if row.sense == SENSE_LE:
            a_ub.append(dense)
            b_ub.append(row.rhs)
        elif row.sense == SENSE_GE:
            a_ub.append(-dense)
            b_ub.append(-row.rhs)
        else:
            a_eq.append(dense)
            b_eq.append(row.rhs)
    return linprog(
        model.obj,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(model.lb, model.ub)),
        method="highs",
    )


def test_lp_against_scipy_on_random_models():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        model = random_lp(rng)
        ours = solve_lp(model)
        ref = scipy_solve(model)
        if ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 0:
            assert ours.status == "optimal", (ours.status, ref.status)
            assert abs(ours.objective - ref.fun) < 1e-6 * (1 + abs(ref.fun))
            assert residuals_ok(model, ours.values)
            checked += 1
    assert checked >= 20


def test_optimality_conditions_on_random_models():
    rng = np.random.default_rng(7)
    for _ in range(40):
        model = random_lp(rng)
        res = solve_lp(model)
        if res.status != "optimal":
            continue
        for j in range(model.num_vars):
            rc = res.reduced_costs[j]
            if abs(res.values[j] - model.lb[j]) < 1e-7:
                assert rc >= -1e-7
            elif abs(res.values[j] - model.ub[j]) < 1e-7:
                assert rc <= 1e-7
            else:
                assert rc == 0.0  # strictly inside its bounds: basic


def test_reduced_cost_bound_property(worked):
    """Forcing a nonbasic-at-zero opening variable to one costs at least
    its reduced cost on top of the LP optimum."""
    model = build_model(worked, compute_big_m(worked))
    res = solve_lp(model)
    for e in range(worked.num_edges):
        if res.values[e] > 1e-9:
            continue
        rc = res.reduced_costs[e]
        forced = replace(model, lb=model.lb.copy())
        forced.lb[e] = 1.0
        res2 = solve_lp(forced)
        if res2.status == "optimal":
            assert res2.objective >= res.objective + rc - 1e-6


def test_bnb_empty_plan_reduces_to_lp(worked):
    model = build_model(worked, compute_big_m(worked))
    lp = solve_lp(model)
    assert solve_bnb(model, np.zeros(model.num_vars, dtype=bool), lp) is lp


def test_bnb_cutoff_below_optimum(worked):
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, solve_lp(model), cutoff=9.5)
    assert res.status == "cutoff"
    res2 = solve_bnb(model, model.integer_ok, solve_lp(model), cutoff=10.5)
    assert res2.status == "optimal" and res2.objective == 10.0


def test_bnb_integral_objective_on_integer_instances():
    for seed in (0, 1):
        inst = generate_instance(6, 0.7, 2, seed=seed)
        model = build_model(inst, compute_big_m(inst))
        res = solve_bnb(model, model.integer_ok, solve_lp(model))
        assert res.status == "optimal"
        assert abs(res.objective - round(res.objective)) <= 1e-6


def test_bnb_bound_monotonicity():
    """Branching only tightens the relaxation: the LP bound of each child of
    a fractional node, branched like solve_bnb does, is at least its
    parent's. The whole tree is walked; on 6-0.8-3-12 it is one level deep,
    on 6-0.8-3-3 three levels."""
    deepest = 0
    for seed in (12, 3):
        inst = generate_instance(6, 0.8, 3, seed=seed)
        model = build_model(inst, compute_big_m(inst))
        assert solve_bnb(model, model.integer_ok, solve_lp(model)).status == "optimal"
        marked = np.flatnonzero(model.integer_ok)
        level = [(model, solve_lp(model))]
        depth = 0
        while level:
            children = []
            for node, res in level:
                frac = np.abs(res.values[marked] - np.round(res.values[marked]))
                if frac.max() <= milp.INTEGRALITY_TOL:
                    continue
                j = int(marked[np.argmax(frac)])
                for value in (0.0, 1.0):
                    child = replace(node, lb=node.lb.copy(), ub=node.ub.copy())
                    child.lb[j] = child.ub[j] = value
                    child_res = solve_lp(child)
                    if child_res.status == "optimal":
                        assert child_res.objective >= res.objective - 1e-6
                        children.append((child, child_res))
            depth += bool(children)
            level = children
        deepest = max(deepest, depth)
    assert deepest >= 2


def test_bnb_node_limit_flags_partial(worked, monkeypatch):
    monkeypatch.setattr(milp, "NODE_LIMIT", 0)
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, solve_lp(model))
    assert res.status == "iteration-limit"


def test_iteration_limit_status(worked, monkeypatch):
    monkeypatch.setattr(milp, "PIVOT_LIMIT_FLOOR", 1)
    monkeypatch.setattr(milp, "PIVOT_LIMIT_PER_DIM", 0)
    model = build_model(worked, compute_big_m(worked))
    res = solve_lp(model)
    assert res.status == "iteration-limit"


def test_bnb_stops_at_a_passed_deadline(worked):
    """A deadline that has passed stops the search before its first node,
    the root's included."""
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, solve_lp(model), deadline=time.monotonic())
    assert res.status == "iteration-limit"
    assert res.nodes == 0


def test_simplex_stops_at_a_passed_deadline():
    """A cold solve and a warm one end at the deadline where they end at
    the pivot budget: before the next pivot."""
    inst = generate_instance(8, 0.5, 4, 1)
    model = build_model(inst, compute_big_m(inst))
    cold = milp._Simplex(model, model.lb.copy(), model.ub.copy(), 10_000)
    cold.deadline = time.monotonic()
    assert cold.solve() == "iteration-limit"
    assert cold.iterations == 0
    root = solve_lp(model)
    ids = np.flatnonzero(model.integer_ok)
    j = int(ids[np.argmax(np.abs(root.values[ids] - np.round(root.values[ids])))])
    child = fixed(model, j, 0.0)
    warm = root.start.sx.copy()
    warm.set_bounds(child.lb, child.ub)
    warm.iterations = 0
    warm.deadline = time.monotonic()
    assert warm.solve() == "iteration-limit"
    assert warm.iterations == 0


def test_solved_lp_stays_optimal_past_its_deadline():
    """A solve that finds its point already optimal reports it so, with
    the root's point, even when its deadline has passed: a solved LP is not
    thrown away."""
    inst = generate_instance(8, 0.5, 4, 1)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    sx = root.start.sx.copy()
    sx.iterations = 0
    sx.deadline = time.monotonic()
    assert sx.solve() == "optimal"
    assert sx.iterations == 0
    assert np.array_equal(sx.values[: model.num_vars], root.values)


@st.composite
def oracle_models(draw):
    """LP relaxations of oracle-size instances (5-7 nodes, 1-3 commodities)."""
    n = draw(st.integers(5, 7))
    density = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8]))
    k = draw(st.integers(1, 3))
    inst = generate_instance(n, density, k, seed=draw(st.integers(0, 10_000)))
    return build_model(inst, compute_big_m(inst))


def warm_children(root, child: MipModel, sibling: MipModel):
    """The child re-solved both ways solve_bnb does: in place on a copy of
    the root's final tableau, and by a basis exchange back to the root's
    basis after its sibling was solved on such a copy. As solve_bnb does,
    the root first takes every row its solve held back."""
    root.start.sx.add_rows()
    in_place = root.start.sx.copy()
    in_place.set_bounds(child.lb, child.ub)
    exchanged = root.start.sx.copy()
    basis, at_upper = exchanged.basis.copy(), exchanged.at_upper.copy()
    exchanged.set_bounds(sibling.lb, sibling.ub)
    exchanged.solve()
    exchanged.set_bounds(child.lb, child.ub)
    exchanged.rebase(basis, at_upper)
    return in_place, exchanged


def fixed(model: MipModel, j: int, value: float) -> MipModel:
    child = replace(model, lb=model.lb.copy(), ub=model.ub.copy())
    child.lb[j] = child.ub[j] = value
    return child


def check_warm_child(model: MipModel, root, j: int, value: float, other: float) -> str:
    """Asserts that both warm re-solves of ``model`` with variable ``j`` fixed
    to ``value`` (its sibling fixes it to ``other``) agree with a cold solve,
    with the rows and bounds of the child and with HiGHS; returns the status."""
    child = fixed(model, j, value)
    cold = solve_lp(child)
    ref = scipy_solve(child)
    for sx in warm_children(root, child, fixed(model, j, other)):
        status = sx.solve()
        check_slots(sx, model)
        if status == "optimal":
            # the dual ratio test kept the basis dual feasible: every slot
            # whose variable may move has a reduced cost of the sign its
            # move needs
            d = sx._reduced_costs()
            assert d.shape == sx.nb.shape
            assert np.all(sx.move[sx.movable] * d[sx.movable] >= -milp.OPT_TOL)
        assert status == cold.status
        if status == "infeasible":
            assert ref.status == 2
            continue
        values = sx.values[: model.num_vars]
        objective = float(model.obj @ values)
        assert abs(objective - cold.objective) <= 1e-6 * (1 + abs(cold.objective))
        assert abs(objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
        assert residuals_ok(child, values)
    return cold.status


@given(model=oracle_models(), pick=st.integers(0, 10_000), value=st.sampled_from([0.0, 1.0]))
def test_warm_child_matches_cold_solve(model, pick, value):
    """Fixing one fractional y/x variable of the root to 0 or 1 and re-solving
    warm matches a cold solve of the child."""
    root = solve_lp(model)
    assert root.status == "optimal"
    marked = np.flatnonzero(model.integer_ok)
    frac = marked[np.abs(root.values[marked] - np.round(root.values[marked])) > 1e-6]
    assume(frac.size)
    check_warm_child(model, root, int(frac[pick % frac.size]), value, 1.0 - value)


def test_warm_child_matches_cold_solve_on_random_models():
    """The same check on random small LPs with mixed row senses, fixing any
    variable strictly inside its bounds to either bound; many of these
    children are infeasible, which single fixings of the network models never
    are."""
    rng = np.random.default_rng(11)
    statuses = []
    for _ in range(40):
        model = random_lp(rng)
        root = solve_lp(model)
        if root.status != "optimal":
            continue
        inside = np.flatnonzero((root.values > model.lb + 1e-6) & (root.values < model.ub - 1e-6))
        for j in inside:
            lo, hi = model.lb[j], model.ub[j]
            statuses.append(check_warm_child(model, root, j, lo, hi))
            statuses.append(check_warm_child(model, root, j, hi, lo))
    assert statuses.count("optimal") >= 20 and statuses.count("infeasible") >= 5


def test_restart_from_root_tableau_same_result(monkeypatch):
    """A B&B that restarts every basis exchange from a fresh copy of the
    root's tableau finds what the default one finds."""
    copies = []
    copy = milp._Simplex.copy

    def counted(self):
        copies.append(1)
        return copy(self)

    for case in ((6, 0.8, 3, 3), (8, 0.5, 4, 2)):
        inst = generate_instance(*case)
        model = build_model(inst, compute_big_m(inst))
        default = solve_bnb(model, model.integer_ok, solve_lp(model))
        with monkeypatch.context() as patch:
            patch.setattr(milp, "_RESTART_AFTER", -1)
            patch.setattr(milp._Simplex, "copy", counted)
            restarted = solve_bnb(model, model.integer_ok, solve_lp(model))
        assert restarted.status == default.status == "optimal"
        assert abs(restarted.objective - default.objective) <= 1e-9
    assert len(copies) > 2


def test_root_seed_gives_same_result():
    """One solve_lp result seeds any number of B&B calls: each call from a
    root that seeded the calls before it finds the bytes a call from a
    fresh root finds. A root from other bounds or another model is
    refused."""
    for case in ((6, 0.8, 3, 3), (8, 0.5, 4, 2)):
        inst = generate_instance(*case)
        model = build_model(inst, compute_big_m(inst))
        y_only = model.integer_ok & (np.arange(model.num_vars) < model.num_edges)
        shared = solve_lp(model)
        optimum = solve_bnb(model, model.integer_ok, shared).objective
        for binary, cutoff in ((model.integer_ok, None), (y_only, None), (model.integer_ok, optimum)):
            fresh = solve_bnb(model, binary, solve_lp(model), cutoff=cutoff)
            seeded = solve_bnb(model, binary, shared, cutoff=cutoff)
            assert fresh.nodes > 1
            assert seeded.status == fresh.status
            assert seeded.objective == fresh.objective
            assert seeded.values.tobytes() == fresh.values.tobytes()
            assert seeded.nodes == fresh.nodes
    inst = generate_instance(6, 0.8, 3, 3)
    model = build_model(inst, compute_big_m(inst))
    lp = solve_lp(model)
    with pytest.raises(ValueError, match="this model"):
        solve_bnb(build_model(inst, compute_big_m(inst)), model.integer_ok, root=lp)
    with pytest.raises(ValueError, match="this model"):
        solve_bnb(model, model.integer_ok, root=solve_bnb(model, model.integer_ok, lp))
    # closing the first variable the root's point uses cuts that point off
    model.ub[int(np.flatnonzero(lp.values > 0.0)[0])] = 0.0
    with pytest.raises(ValueError, match="other bounds"):
        solve_bnb(model, model.integer_ok, root=lp)


# The simplex keeps the short tableau B^-1 [N | b], one slot per nonbasic
# variable, holds up to _REFRESH pivots back from it and applies them as
# one matrix product; these tests pin that bookkeeping to the algebra it
# stands for.


@st.composite
def random_lps(draw):
    """Random LPs with mixed row senses and up to 16 variables and 12 rows,
    larger than ``random_lp``'s default."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    return random_lp(rng, n=draw(st.integers(8, 16)), m=draw(st.integers(5, 12)))


def exchange(sx, picks: list[int]) -> None:
    """One basis exchange per entry of ``picks``, which picks the nonbasic
    column that enters; it enters at the row of its largest entry."""
    d = np.zeros(sx.nb.size)
    for pick in picks:
        nonbasic = np.flatnonzero(sx.slot >= 0)
        q = int(nonbasic[pick % nonbasic.size])
        col = sx._col(sx.slot[q])
        r = int(np.argmax(np.abs(col)))
        if abs(col[r]) > 1e-6:
            sx._pivot(r, q, col, 0.0, False, d)


def a_i_b_of(model: MipModel) -> np.ndarray:
    """Every row of the model as ``[A | I | b]``."""
    m, n = len(model.rows), model.num_vars
    a_i_b = np.zeros((m, n + m + 1))
    for i, row in enumerate(model.rows):
        a_i_b[i, row.cols] = row.coefs
        a_i_b[i, n + i] = 1.0
        a_i_b[i, -1] = row.rhs
    return a_i_b


def exchanged(model: MipModel, picks: list[int]):
    """A cold start after ``exchange(picks)``, with the exchanges the block
    still holds back, and the model's rows as ``[A | I | b]``."""
    sx = milp._Simplex(model, model.lb.astype(float), model.ub.astype(float), 0)
    m, n = len(model.rows), model.num_vars
    a_i_b = a_i_b_of(model)
    start_rows, start_cols = model.start
    # the start basis: the slacks of the rows not held back, in row order,
    # each start column in place of its start row's, every other
    # structural nonbasic, in id order; a held-back row has no tableau row
    live = np.setdiff1d(np.arange(m), model.lazy)
    assert np.array_equal(sx.held, np.sort(model.lazy)) and sx.m == live.size
    position = np.full(m, -1)
    position[live] = np.arange(live.size)
    basis = n + live
    basis[position[start_rows]] = start_cols
    assert np.array_equal(sx.basis, basis)
    assert np.array_equal(sx.nb, np.setdiff1d(np.arange(n), start_cols))
    check_slots(sx, model)
    if len(start_rows):
        # B^-1 [N | b]; every entry of these models' live rows is an
        # integer, so the elimination rounds no further than
        # np.linalg.solve does
        assert_basis_inverse_times_start(sx, a_i_b, model, rtol=1e-12)
    else:
        # the slack start is [A | b] over the live rows, bit for bit as
        # filled row by row
        start = np.delete(a_i_b[live], np.s_[n : n + m], axis=1)
        assert sx.tableau.shape == start.shape and sx.tableau.tobytes() == start.tobytes()
    exchange(sx, picks)
    return sx, a_i_b


def test_near_max_ties():
    """Values within a relative 1e-9 of the largest tie: with no ids the
    first of them wins, with ids the one with the lowest id; a lone near
    value wins whatever its id, and a NaN wins outright."""
    values = np.array([1.0, 3.0, 3.0 * (1 - 5e-10), 2.0, 3.0])
    assert milp._near_max(values) == 1
    assert milp._near_max(values, np.array([0, 7, 5, 1, 8])) == 2
    assert milp._near_max(values, np.array([0, 7, 9, 1, 6])) == 4
    assert milp._near_max(np.array([3.0 * (1 - 2e-9), 3.0]), np.array([0, 1])) == 1
    assert milp._near_max(np.array([1.0, np.nan, 5.0]), np.array([0, 1, 2])) == 1
    # with no ids, a near value before the largest wins over it
    assert milp._near_max(np.array([1.0, 3.0 * (1 - 5e-10), 2.0, 3.0])) == 1
    assert milp._near_max(np.array([1.0, np.nan, 5.0, np.nan])) == 1


def test_starting_tableau_without_rows_and_with_a_cut():
    """A model with no rows starts from an empty tableau, and the model
    ``add_local_branching_cut`` makes from its dense row of every opening
    variable; both solve."""
    inst = generate_instance(7, 0.6, 2, 3)
    model = build_model(inst, compute_big_m(inst))
    ybar = np.ones(inst.num_edges, dtype=int)
    ybar[0] = 0  # one flip from the all-open design, within the radius
    rowless = [
        tiny_model([1.0, -2.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 0.0]),
        build_model(Instance(inst.nodes, inst.edges, ()), np.ones(inst.num_edges)),
    ]
    for case in (*rowless, add_local_branching_cut(model, ybar, 2)):
        sx, _ = exchanged(case, [])
        # the optimality rows are held back, the cut row is not
        assert sx.tableau.shape == (len(case.rows) - len(case.lazy), case.num_vars - len(case.start[1]) + 1)
        assert solve_lp(case).status == "optimal"


def check_slots(sx, model: MipModel) -> None:
    """``nb`` and ``slot`` are inverse maps over the nonbasic variables:
    every nonbasic variable has exactly one slot, and a basic one none. The
    variables that are neither basic nor in a slot are exactly the slacks
    of ``model``'s start rows, each fixed at 0, and those of the rows still
    held back, which are rows of ``model.lazy``."""
    assert sx.tableau.shape == (sx.m, sx.nb.size + 1)
    fixed_slacks = model.num_vars + np.asarray(model.start[0], dtype=int)
    assert np.all(np.isin(sx.held, model.lazy))
    slotless = np.concatenate([fixed_slacks, model.num_vars + sx.held])
    assert np.array_equal(np.sort(np.concatenate([sx.nb, sx.basis, slotless])), np.arange(sx.ncols))
    assert np.array_equal(sx.slot[sx.nb], np.arange(sx.nb.size))
    assert np.all(sx.slot[sx.basis] == -1)
    assert np.all(sx.slot[slotless] == -1)
    assert np.all(sx.l[fixed_slacks] == 0.0) and np.all(sx.u[fixed_slacks] == 0.0)


def assert_basis_inverse_times_start(sx, a_i_b: np.ndarray, model: MipModel, rtol: float = 1e-7) -> None:
    """The flushed tableau is B^-1 [N | b], with B the basic and N the
    nonbasic columns of ``[A | I | b]`` over the rows not held back, the
    latter in slot order, up to ``rtol`` of its largest entry."""
    sx._flush()
    check_slots(sx, model)
    live = a_i_b[np.setdiff1d(np.arange(len(model.rows)), sx.held)]
    expected = np.linalg.solve(live[:, sx.basis], live[:, np.append(sx.nb, -1)])
    np.testing.assert_allclose(sx.tableau, expected, rtol=0, atol=rtol * (1 + np.abs(expected).max()))


exchanges = st.lists(st.integers(0, 10_000), min_size=1, max_size=150)


@given(model=st.one_of(oracle_models(), random_lps()), picks=exchanges)
def test_held_back_reads_match_a_flush(model, picks):
    """Mid-block, every nonbasic column and every row read through the
    held-back pivots equals that of a flushed copy, and after a flush the
    tableau is B^-1 [N | b]."""
    sx, a_i_b = exchanged(model, picks)
    if sx.pend_k:
        flushed = copy.deepcopy(sx)
        flushed._flush()
        assert flushed.pend_k == 0
        for q in sx.nb:
            np.testing.assert_allclose(sx._col(sx.slot[q]), flushed.tableau[:, flushed.slot[q]], rtol=0, atol=1e-9)
        for r in range(sx.m):
            np.testing.assert_allclose(sx._row(r), flushed.tableau[r], rtol=0, atol=1e-9)
    assert_basis_inverse_times_start(sx, a_i_b, model)


few = st.lists(st.integers(0, 10_000), min_size=1, max_size=8)


@given(model=st.one_of(oracle_models(), random_lps()), picks=exchanges, mine=few, theirs=few)
def test_copy_is_independent_of_its_original(model, picks, mine, theirs):
    """A copy taken mid-block and its original, taking different exchanges
    in turn, each end on the tableau of their own basis, with pricing state
    of their own."""
    sx, a_i_b = exchanged(model, picks)
    twin = sx.copy()
    for name in ("tableau", "nb", "slot", "lbb", "ubb", "move", "movable", "row_weights"):
        assert not np.shares_memory(getattr(twin, name), getattr(sx, name)), name
    for a, b in itertools.zip_longest(mine, theirs):
        if a is not None:
            exchange(sx, [a])
        if b is not None:
            exchange(twin, [b])
    assert_basis_inverse_times_start(sx, a_i_b, model)
    assert_basis_inverse_times_start(twin, a_i_b, model)
    check_kept_state(sx, model)
    check_kept_state(twin, model)


@given(model=st.one_of(oracle_models(), random_lps()))
def test_block_of_one_solves_the_same(model):
    """Applying each pivot as it is taken (a block of one) and holding back
    up to _REFRESH of them give the same status and objective, and HiGHS
    agrees."""
    default = solve_lp(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "_REFRESH", 1)
        single = solve_lp(model)
    assert single.status == default.status
    if default.status == "optimal":
        assert abs(single.objective - default.objective) <= 1e-6 * (1 + abs(default.objective))
    ref = scipy_solve(model)
    if ref.status == 2:
        assert default.status == "infeasible"
        return
    assert ref.status == 0 and default.status == "optimal"
    for res in (default, single):
        assert abs(res.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
        assert residuals_ok(model, res.values)


def test_rebase_past_a_full_block(monkeypatch):
    """A basis exchange from a cold start to the optimal basis changes more
    columns than one block holds (95 on 15-0.25-8-1), so the block fills
    and is flushed midway; it ends on the optimal tableau and point. Both
    tableaux first take every held-back row, as solve_bnb's root does, so
    that they have the same rows."""
    inst = generate_instance(15, 0.25, 8, 1)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    target = root.start.sx
    target.add_rows()
    sx, _ = exchanged(model, [])
    sx.add_rows()
    full = []
    flush = milp._Simplex._flush

    def counted(self):
        full.append(self.pend_k == milp._REFRESH)
        flush(self)

    monkeypatch.setattr(milp._Simplex, "_flush", counted)
    sx.rebase(target.basis, target.at_upper)
    assert sx.iterations > milp._REFRESH and any(full)
    assert sorted(sx.basis) == sorted(target.basis)
    # each basic variable's row and each nonbasic variable's column,
    # wherever the exchange put them
    mine = sx.tableau[np.ix_(np.argsort(sx.basis), np.append(np.argsort(sx.nb), -1))]
    theirs = target.tableau[np.ix_(np.argsort(target.basis), np.append(np.argsort(target.nb), -1))]
    np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-7 * (1 + np.abs(theirs).max()))
    np.testing.assert_allclose(sx.values[: model.num_vars], root.values, rtol=0, atol=1e-7)


def rounds_of_rows(monkeypatch) -> list[int]:
    """Records, per round of rows a solve adds at a primal feasible point,
    how many it adds. The constructor's call, which adds the rows not held
    back to a tableau of no rows, is not a round."""
    add_rows = milp._Simplex.add_rows
    rounds: list[int] = []

    def counted(self, which=None):
        if which is not None and self.m:
            rounds.append(len(which))
        add_rows(self, which)

    monkeypatch.setattr(milp._Simplex, "add_rows", counted)
    return rounds


@pytest.mark.parametrize(
    "case, optimum, pivots, rounds_added",
    [((12, 0.3, 6, 1), 3397 / 3, 71, 1), ((15, 0.25, 8, 1), 1181.5, 163, 1), ((20, 0.2, 10, 1), 2010.2, 540, 3)],
    ids=["12-0.3-6-1", "15-0.25-8-1", "20-0.2-10-1"],
)
def test_root_lp_at_size(monkeypatch, case, optimum, pivots, rounds_added):
    """Cold root LPs of the sizes the benchmark solves, and of the size a
    full solve aims at, checked against HiGHS and against every row and
    bound of the model, the optimality rows the solve held back included.
    The dual simplex from the shortest-path-tree start, adding an
    optimality row only once its point violates it, takes exactly 71, 163
    and 540 pivots, the same under every BLAS kernel tried, and adds rows
    in exactly 1, 1 and 3 rounds, so a change that moves a pivot shows
    here; with every row from the start it took 72, 163 and 544, from the
    slack basis 124, 285 and 647, a primal phase 1 with artificials 238, 571
    and 1,205, and Dantzig's rule 1,601 on 15-0.25-8-1."""
    inst = generate_instance(*case)
    model = build_model(inst, compute_big_m(inst))
    rounds = rounds_of_rows(monkeypatch)
    res = solve_lp(model)
    ref = scipy_solve(model)
    assert res.status == "optimal" and ref.status == 0
    assert abs(res.objective - optimum) <= 1e-6 * optimum
    assert abs(ref.fun - optimum) <= 1e-6 * optimum
    assert residuals_ok(model, res.values)
    assert res.iterations == pivots
    assert len(rounds) == rounds_added and res.start.sx.held.size


# The simplex keeps its pricing state up to date pivot by pivot, and guards
# the dual and the basis exchange against pivots on rounding noise.


def check_kept_state(sx, model: MipModel) -> None:
    """Each array the simplex keeps from pivot to pivot equals its
    from-scratch definition, the slots map the nonbasic variables one to
    one, and every Devex row weight is finite and at least 1."""
    check_slots(sx, model)
    assert np.array_equal(sx.lbb, sx.l[sx.basis])
    assert np.array_equal(sx.ubb, sx.u[sx.basis])
    assert np.array_equal(sx.move, np.where(sx.at_upper[sx.nb], -1.0, 1.0))
    assert np.array_equal(sx.movable, sx.l[sx.nb] != sx.u[sx.nb])
    assert sx.row_weights.shape == (sx.m,)
    assert np.all(np.isfinite(sx.row_weights)) and np.all(sx.row_weights >= 1.0)


@given(model=oracle_models(), pick=st.integers(0, 10_000), value=st.sampled_from([0.0, 1.0]))
def test_kept_state_matches_its_definition(model, pick, value):
    """The cold start is dual feasible: every slot whose variable may move
    has a reduced cost of the sign its move needs, up to OPT_TOL. After every
    pivot of a cold solve, of a warm child re-solved in place and of one
    reached by basis exchange, and at the end of every solve, the kept
    pricing state is what it stands for."""
    start = milp._Simplex(model, model.lb.copy(), model.ub.copy(), 0)
    check_kept_state(start, model)
    d = start._reduced_costs()
    assert np.all(start.move[start.movable] * d[start.movable] >= -milp.OPT_TOL)
    checks = []
    pivot, solve = milp._Simplex._pivot, milp._Simplex.solve

    def checked_pivot(self, *args):
        pivot(self, *args)
        check_kept_state(self, model)
        checks.append(1)

    def checked_solve(self):
        status = solve(self)
        check_kept_state(self, model)
        return status

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp._Simplex, "_pivot", checked_pivot)
        patch.setattr(milp._Simplex, "solve", checked_solve)
        root = solve_lp(model)
        assert root.status == "optimal" and checks
        marked = np.flatnonzero(model.integer_ok)
        frac = marked[np.abs(root.values[marked] - np.round(root.values[marked])) > 1e-6]
        assume(frac.size)
        j = int(frac[pick % frac.size])
        for sx in warm_children(root, fixed(model, j, value), fixed(model, j, 1.0 - value)):
            check_kept_state(sx, model)
            if sx.solve() == "optimal":
                # each solve starts a fresh Devex reference framework: one
                # with nothing to do leaves every row weight at 1
                assert sx.solve() == "optimal"
                assert np.all(sx.row_weights == 1.0)


def child_of_root():
    """A copy of 6-0.8-3-3's optimal root tableau with its most fractional
    y/x variable fixed to 0: the dual needs pivots to re-solve it."""
    inst = generate_instance(6, 0.8, 3, 3)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    marked = np.flatnonzero(model.integer_ok)
    j = int(marked[np.argmax(np.abs(root.values[marked] - np.round(root.values[marked])))])
    sx = root.start.sx.copy()
    child = fixed(model, j, 0.0)
    sx.set_bounds(child.lb, child.ub)
    sx.iterations = 0
    return sx


def leaving_row(sx) -> int:
    """The row the dual simplex picks to leave at its first pivot, when every
    Devex row weight is 1: the most infeasible one."""
    return int(np.argmax(np.maximum(sx.lbb - sx.xb, sx.xb - sx.ubb)))


def test_dual_stops_on_a_noise_pivot(monkeypatch):
    """When the entering column's entry in the leaving row, read through the
    pending block, is at most PIVOT_TOL (though the row read passed the
    test), the dual stops at the pivot budget's status instead of dividing
    by it."""
    clean = child_of_root()
    assert clean.solve() == "optimal" and clean.iterations > 0
    col = milp._Simplex._col

    def noisy(self, q):
        c = col(self, q)
        c[leaving_row(self)] = 7.6e-11
        return c

    sx = child_of_root()
    monkeypatch.setattr(milp._Simplex, "_col", noisy)
    assert sx.solve() == "iteration-limit"
    assert sx.iterations == 0


def test_dual_stops_on_a_point_that_is_not_finite(monkeypatch):
    """A column spoilt by NaN away from the pivot makes the point NaN after
    one pivot; the dual stops there instead of pivoting on."""
    col = milp._Simplex._col

    def spoilt(self, q):
        c = col(self, q)
        r = leaving_row(self)
        c[np.arange(c.size) != r] = math.nan
        return c

    sx = child_of_root()
    monkeypatch.setattr(milp._Simplex, "_col", spoilt)
    assert sx.solve() == "iteration-limit"
    assert sx.iterations == 1


def spoil_reduced_costs(monkeypatch, by: float, times: float = math.inf) -> list[int]:
    """Makes the reduced costs read at a primal feasible point, as the
    dual's optimal exit reads them, put the first movable slot on the
    wrong side of its sign by ``by``, the first ``times`` such reads only;
    returns the list of spoilt slots, one per read."""
    reduced_costs = milp._Simplex._reduced_costs
    spoilt: list[int] = []

    def spoiling(self):
        d = reduced_costs(self)
        worst = np.maximum(self.lbb - self.xb, self.xb - self.ubb).max(initial=0.0)
        if worst <= milp.FEAS_TOL and len(spoilt) < times:
            j = int(np.flatnonzero(self.movable)[0])
            d[j] = -by * self.move[j]
            spoilt.append(j)
        return d

    monkeypatch.setattr(milp._Simplex, "_reduced_costs", spoiling)
    return spoilt


def test_dual_refuses_a_wrong_signed_reduced_cost(monkeypatch):
    """At its optimal exit the dual re-derives the reduced costs; a movable
    column whose reduced cost is on the wrong side of its sign by more than
    OPT_TOL ends the solve at the pivot budget's status, one within OPT_TOL
    does not."""
    inst = generate_instance(6, 0.8, 3, 3)
    model = build_model(inst, compute_big_m(inst))
    default = solve_lp(model)
    with pytest.MonkeyPatch.context() as patch:
        spoil_reduced_costs(patch, 0.5 * milp.OPT_TOL)
        within = solve_lp(model)
    assert within.status == "optimal" and within.objective == default.objective
    spoilt = spoil_reduced_costs(monkeypatch, 2.0 * milp.OPT_TOL)
    res = solve_lp(model)
    assert res.status == "iteration-limit" and spoilt
    assert res.iterations == default.iterations and res.start.sx is None


def test_bnb_drops_a_node_whose_solve_is_refused(monkeypatch):
    """A B&B node whose solve the optimal-exit check refuses is dropped
    like one cut at the pivot budget: no error, and the search ends at the
    budget's status with nothing better than the optimum."""
    inst = generate_instance(6, 0.8, 3, 3)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    default = solve_bnb(model, model.integer_ok, root=root)
    spoilt = spoil_reduced_costs(monkeypatch, 2.0 * milp.OPT_TOL, times=1)
    res = solve_bnb(model, model.integer_ok, root=root)
    assert default.status == "optimal" and default.nodes > 3
    assert len(spoilt) == 1 and res.nodes > 1
    assert res.status == "iteration-limit"
    assert res.objective >= default.objective


@pytest.mark.parametrize("fail", ["first-try", "always"])
def test_failed_exchange_retried_from_root(monkeypatch, fail):
    """A basis exchange that meets only entries at or below PIVOT_TOL is
    retried from a copy of the root's tableau. When only the first try fails,
    the B&B finds what it finds without the noise; when the retry fails too,
    the node is dropped and the B&B ends at the budget's status, with no
    error and nothing better than the optimum."""
    inst = generate_instance(6, 0.8, 3, 3)
    model = build_model(inst, compute_big_m(inst))
    default = solve_bnb(model, model.integer_ok, solve_lp(model))
    col, rebase = milp._Simplex._col, milp._Simplex.rebase
    noise = [False]
    tries: list[bool] = []

    def noisy_col(self, q):
        c = col(self, q)
        return np.zeros_like(c) if noise[0] else c

    def noisy_rebase(self, basis, at_upper):
        retry = bool(tries) and not tries[-1]
        noise[0] = fail == "always" or not retry
        try:
            tries.append(rebase(self, basis, at_upper))
        finally:
            noise[0] = False
        return tries[-1]

    monkeypatch.setattr(milp._Simplex, "_col", noisy_col)
    monkeypatch.setattr(milp._Simplex, "rebase", noisy_rebase)
    res = solve_bnb(model, model.integer_ok, solve_lp(model))
    assert default.status == "optimal" and len(tries) >= 2
    if fail == "first-try":
        # every failed exchange is followed by a retry that works
        assert tries[::2] == [False] * len(tries[::2]) and all(tries[1::2])
        assert res.status == "optimal" and res.objective == default.objective
    else:
        # the first exchange fails, and its retry works: it goes back to a
        # child of the root, whose basis the root's tableau already has, and
        # an exchange that needs no pivot cannot fail; the next exchange and
        # its retry both fail
        assert tries == [False, True, False, False]
        assert res.status == "iteration-limit"
        assert res.objective >= default.objective


def test_dual_reoptimizes_children_at_size():
    """Every child of 10-0.3-5-1's root LP (each of its 49 fractional y/x
    variables fixed to 0 and to 1) re-solved from the root's tableau, as
    B&B does, agrees with a cold solve. Dual Devex pricing takes at most
    2,000 pivots over all of them (1,062 with one BLAS thread from the root
    the tree start reaches, 1,301 from the slack basis's); choosing the
    most infeasible row took 5,082."""
    inst = generate_instance(10, 0.3, 5, 1)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    marked = np.flatnonzero(model.integer_ok)
    frac = marked[np.abs(root.values[marked] - np.round(root.values[marked])) > 1e-6]
    total = 0
    for j in frac:
        for value in (0.0, 1.0):
            child = fixed(model, j, value)
            sx = root.start.sx.copy()
            sx.set_bounds(child.lb, child.ub)
            sx.iterations = 0
            status = sx.solve()
            total += sx.iterations
            cold = solve_lp(child)
            assert status == cold.status
            if status == "optimal":
                objective = float(model.obj @ sx.values[: model.num_vars])
                assert abs(objective - cold.objective) <= 1e-6 * (1 + abs(cold.objective))
    assert frac.size == 49 and total <= 2000


def test_root_seed_after_bounds_tighten_around_its_point():
    """Closing every y/x variable that sits at 0 in the root with a reduced
    cost above 1e-6, as vfh's reduced-cost fixing does, leaves the root a
    valid seed: the seeded B&B has the status and objective of a cold one
    of the tightened model. A widened bound, or a tightened one that cuts
    off the root's point, is refused."""
    inst = generate_instance(8, 0.6, 4, 1)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    closed = np.flatnonzero(model.integer_ok & (root.values == 0.0) & (root.reduced_costs > 1e-6) & (model.ub > 0))
    assert closed.size
    model.ub[closed] = 0.0
    y_only = model.integer_ok & (np.arange(model.num_vars) < model.num_edges)
    tight = replace(model, lb=model.lb.copy(), ub=model.ub.copy())
    tight_root = solve_lp(tight)
    optimum = solve_bnb(tight, model.integer_ok, tight_root).objective
    for binary, cutoff in ((model.integer_ok, None), (y_only, None), (model.integer_ok, optimum)):
        cold = solve_bnb(tight, binary, tight_root, cutoff=cutoff)
        seeded = solve_bnb(model, binary, root=root, cutoff=cutoff)
        assert seeded.status == cold.status
        assert seeded.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
    model.ub[closed[0]] = 2.0
    with pytest.raises(ValueError, match="other bounds"):
        solve_bnb(model, model.integer_ok, root=root)
    model.ub[closed[0]] = 0.0
    assert root.values[0] > 0.0
    model.ub[0] = 0.0
    with pytest.raises(ValueError, match="other bounds"):
        solve_bnb(model, model.integer_ok, root=root)


def test_cold_start_holds_one_dense_copy():
    """A cold solve keeps one dense array, the short tableau, with room for
    m x (n - t + 1) entries for t start columns, which are basic and have
    no slot, and uses the rows not held back and those added since: its
    peak allocation stays below 1.75 tableaux of every row (a second dense
    copy of the model would take it past 2)."""
    inst = generate_instance(15, 0.25, 8, 1)
    model = build_model(inst, compute_big_m(inst))
    tracemalloc.start()
    try:
        res = solve_lp(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "optimal"
    sx = res.start.sx
    every_row = (len(model.rows), model.num_vars - len(model.start[1]) + 1)
    assert sx.tableau.shape == (len(model.rows) - sx.held.size, every_row[1]) and sx.held.size
    assert peak < 1.75 * np.zeros(every_row).nbytes


# build_model hands the kernel a start basis, each commodity's
# shortest-path in-tree toward its destination; these tests pin the start
# to its definition and the kernel's cold tableau to the algebra.


@st.composite
def generated_models(draw):
    """An instance of 5-9 nodes with its high-point relaxation, its full
    model, or its full model with a local-branching cut."""
    n = draw(st.integers(5, 9))
    density = draw(st.sampled_from([0.4, 0.5, 0.6, 0.8]))
    inst = generate_instance(n, density, draw(st.integers(1, 4)), seed=draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["hpr", "full", "cut"]))
    model = build_model(inst, compute_big_m(inst), optimality=kind != "hpr")
    if kind == "cut":
        ybar = draw(st.lists(st.integers(0, 1), min_size=inst.num_edges, max_size=inst.num_edges))
        model = add_local_branching_cut(model, ybar, draw(st.integers(0, inst.num_edges)))
    return inst, model


@given(case=generated_models())
def test_tree_start_is_dual_feasible_and_exact(case):
    """One start column per commodity and node but its destination (a
    generated instance is connected), an x of that commodity on an arc out
    of that node. At pivot 0 the start is dual feasible: every nonbasic
    variable sits at its lower bound with a reduced cost >= 0, the point
    costs sum_k q_k dist_beta(o_k, d_k), and a solve stopped there bounds
    the LP by that cost, less its rounding margin. The starting tableau is
    B^-1 [N | b] of ``[A | I | b]``, as np.linalg.solve gives it."""
    inst, model = case
    E, V = inst.num_edges, inst.nodes
    rows, cols = model.start
    assert len(rows) == inst.num_commodities * (V - 1)
    k, node = np.divmod(rows, V)
    arc = cols - E - 2 * E * k
    assert np.all((arc >= 0) & (arc < 2 * E))
    tails = [inst.edges[a >> 1].u if a % 2 == 0 else inst.edges[a >> 1].v for a in arc.tolist()]
    assert tails == node.tolist()
    sx, _ = exchanged(model, [])  # checks the basis and B^-1 [N | b]
    assert not sx.at_upper.any()
    assert np.all(sx._reduced_costs() >= -1e-9)
    assert float(model.obj @ sx.values[: model.num_vars]) == pytest.approx(tree_bound(inst), rel=1e-12)
    cut = solve_lp(model, deadline=time.monotonic() - 1.0)
    assert (cut.status, cut.iterations) == ("iteration-limit", 0)
    assert tree_bound(inst) - 1e-3 < cut.bound <= tree_bound(inst)


def test_tree_start_without_a_route_to_every_node_and_with_free_edges():
    """Two hand-built instances. In the first the graph has two components,
    so each destination is reached from only some nodes, and the flow rows
    of the others keep their slacks basic. In the second, edges of unit
    cost 0 tie shortest paths, and the tree is still listed children first.
    Both relaxations of each solve from the tree start to HiGHS's
    optimum."""
    split = Instance(
        6,
        (Edge(0, 1, 2, 50, 1), Edge(1, 2, 3, 60, 2), Edge(0, 2, 4, 70, 3),
         Edge(3, 4, 1, 40, 1), Edge(4, 5, 2, 30, 2), Edge(3, 5, 5, 20, 1)),
        (Commodity(0, 2, 3), Commodity(5, 3, 2), Commodity(1, 0, 1)),
    )
    free = Instance(
        5,
        (Edge(0, 1, 1, 50, 0), Edge(1, 2, 1, 50, 0), Edge(0, 2, 2, 60, 0), Edge(2, 3, 3, 40, 1),
         Edge(1, 3, 2, 70, 0), Edge(3, 4, 1, 30, 0), Edge(2, 4, 4, 20, 2)),
        (Commodity(0, 4, 2), Commodity(4, 1, 3)),
    )
    for inst, starts in ((split, 6), (free, 8)):
        for optimality in (False, True):
            model = build_model(inst, compute_big_m(inst), optimality=optimality)
            assert len(model.start[0]) == starts
            sx, _ = exchanged(model, [])
            assert np.all(sx._reduced_costs() >= 0.0)
            res = solve_lp(model)
            ref = scipy_solve(model)
            assert res.status == "optimal" and ref.status == 0
            assert abs(res.objective - ref.fun) <= 1e-9 * (1 + abs(ref.fun))
            assert residuals_ok(model, res.values)


def test_empty_start_is_the_slack_basis():
    """A model with an empty start, as a model not made by build_model has,
    starts from the slack basis: the tableau is [A | b] of the rows not
    held back bit for bit, every slack of those basic (``exchanged`` checks
    both). On 12-0.3-6-1 the dual simplex takes 124 pivots from there
    (124 too with every row from the start) and 71 from the tree start (72
    with every row), to the same optimum."""
    inst = generate_instance(12, 0.3, 6, 1)
    model = build_model(inst, compute_big_m(inst))
    slack = replace(model, start=(np.empty(0, dtype=int), np.empty(0, dtype=int)))
    exchanged(slack, [])
    tree, cold = solve_lp(model), solve_lp(slack)
    assert (tree.iterations, cold.iterations) == (71, 124)
    assert cold.objective == pytest.approx(tree.objective, rel=1e-12)


def test_start_refused_unless_a_dual_feasible_triangular_basis_of_equalities(worked):
    """The worked instance's start: node 1 on edge (1, 2) and node 0 on
    edge (0, 2), each on its direct arc to the destination. Routing node 0
    over node 1 instead (length 2 by unit cost, not 1) is not dual
    feasible; listing node 1 before node 0 then is not lower triangular; a
    coupling row is not an equality. Each is refused, as an unbounded
    variable is."""
    model = build_model(worked, compute_big_m(worked))
    x = model.x_var
    assert [a.tolist() for a in model.start] == [[1, 0], [x(0, 2), x(0, 4)]]
    refused = {
        "not dual feasible": ([0, 1], [x(0, 0), x(0, 2)]),
        "not unit lower triangular": ([1, 0], [x(0, 2), x(0, 0)]),
        "distinct structural columns in distinct equality rows": ([3], [x(0, 0)]),
    }
    for match, start in refused.items():
        with pytest.raises(ValueError, match=match):
            solve_lp(replace(model, start=tuple(np.array(a) for a in start)))


def test_start_of_four_levels_is_exact():
    """A hand-built start of four levels, listed lower triangular but
    scattered over the model's rows: start row i meets start column i and
    those of start rows before it, with coefficients other than +-1 on the
    nonbasic columns. Each coupling row meets start columns of several
    levels, and so does a held-back row. The starting tableau is
    B^-1 [N | b] of ``[A | I | b]`` as np.linalg.solve gives it, and so is
    the tableau once the held-back row is added; the LP solves to HiGHS's
    optimum."""
    le, ge, eq = SENSE_LE, SENSE_GE, SENSE_EQ
    rows = [
        ([0, 2, 5], [1.0, 1.0, -1.0], le, 4.0),  # levels 0 and 2
        ([2, 1, 0, 6], [1.0, -1.0, 1.0, 1.0], eq, 2.0),  # start row 2
        ([0, 4], [1.0, 2.0], eq, 3.0),  # start row 0
        ([1, 3, 6], [1.0, -1.0, 1.0], ge, -2.0),  # levels 1 and 3
        ([3, 2, 0, 4], [1.0, -1.0, -1.0, 3.0], eq, 1.0),  # start row 3
        ([1, 0, 5], [1.0, -1.0, 1.0], eq, 1.0),  # start row 1
        ([3, 1, 0, 4], [1.0, 1.0, 1.0, 1.0], le, 8.0),  # levels 0, 1 and 3
        ([3, 1, 0, 5], [1.0, -1.0, 1.0, 0.5], le, 6.0),  # held back
    ]
    model = tiny_model([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.5], [0.0] * 7, [10.0] * 7, rows=rows)
    model = replace(model, start=(np.array([2, 5, 1, 4]), np.arange(4)), lazy=np.array([7]))
    sx, a_i_b = exchanged(model, [])  # checks B^-1 [N | b] of the live rows
    sx.add_rows()
    assert sx.held.size == 0
    assert_basis_inverse_times_start(sx, a_i_b, model, rtol=1e-12)
    res, ref = solve_lp(model), scipy_solve(model)
    assert res.status == "optimal" and ref.status == 0
    assert abs(res.objective - ref.fun) <= 1e-9 * (1 + abs(ref.fun))
    assert residuals_ok(model, res.values)


def test_a_row_is_the_same_whenever_it_enters():
    """The held-back rows of 15-0.25-8-1 added to the cold tableau, or
    added with every other row by the constructor when none is held back,
    give the same tableau row for each basic variable, bit for bit, and
    the same basic values."""
    inst = generate_instance(15, 0.25, 8, 1)
    model = build_model(inst, compute_big_m(inst))
    later = milp._Simplex(model, model.lb.copy(), model.ub.copy(), 0)
    assert later.held.size
    later.add_rows()
    every = replace(model, lazy=np.empty(0, dtype=int))
    at_once = milp._Simplex(every, every.lb.copy(), every.ub.copy(), 0)
    assert at_once.held.size == later.held.size == 0
    assert np.array_equal(later.nb, at_once.nb)
    mine, theirs = np.argsort(later.basis), np.argsort(at_once.basis)
    assert np.array_equal(later.basis[mine], at_once.basis[theirs])
    assert later.tableau[mine].tobytes() == at_once.tableau[theirs].tobytes()
    assert later.xb[mine].tobytes() == at_once.xb[theirs].tobytes()


def gather_model() -> MipModel:
    """A start of three levels, and three held-back rows scattered over
    the model and of unequal lengths: one meets every start column, one
    has no entry, and one meets no basic column."""
    le, ge, eq = SENSE_LE, SENSE_GE, SENSE_EQ
    rows = [
        ([0, 3], [1.0, 1.0], eq, 2.0),  # start row 0
        ([0, 1, 2, 4], [1.0, 1.0, -1.0, 2.0], le, 9.0),  # held back
        ([1, 0, 4], [1.0, -1.0, 1.0], eq, 1.0),  # start row 1
        ([], [], le, 3.0),  # held back
        ([3, 5], [1.0, 1.0], le, 7.0),
        ([2, 1, 0, 5], [1.0, 1.0, -1.0, 1.0], eq, 3.0),  # start row 2
        ([5, 3], [3.0, -1.0], ge, -4.0),  # held back
        ([2, 4], [1.0, 0.5], le, 6.0),
    ]
    model = tiny_model([0.0, 0.0, 0.0, 1.0, 2.0, 1.5], [0.0] * 6, [10.0] * 6, rows=rows)
    return replace(model, start=(np.array([0, 2, 5]), np.arange(3)), lazy=np.array([1, 3, 6]))


def test_held_rows_enter_by_their_own_entries():
    """Held-back rows added in two calls, two rows apart and then the one
    between them, give the tableau and basic values of the rows live from
    the start, bit for bit once ordered by basic variable, and the tableau
    is B^-1 [N | b] as np.linalg.solve gives it."""
    model = gather_model()
    sx = milp._Simplex(model, model.lb.copy(), model.ub.copy(), 0)
    for which, still_held in (np.array([0, 2]), [3]), (None, []):
        sx.add_rows(which)
        assert np.array_equal(sx.held, still_held)
        live = replace(model, lazy=np.array(still_held, dtype=int))
        at_once = milp._Simplex(live, live.lb.copy(), live.ub.copy(), 0)
        assert np.array_equal(sx.nb, at_once.nb)
        mine, theirs = np.argsort(sx.basis), np.argsort(at_once.basis)
        assert np.array_equal(sx.basis[mine], at_once.basis[theirs])
        assert sx.tableau[mine].tobytes() == at_once.tableau[theirs].tobytes()
        assert sx.xb[mine].tobytes() == at_once.xb[theirs].tobytes()
        assert_basis_inverse_times_start(sx, a_i_b_of(model), model, rtol=1e-12)


def test_start_row_held_back_is_refused():
    """A start row may not be held back: its start column would have no
    row to be basic in. The same model holding back another row solves."""
    model = gather_model()
    with pytest.raises(ValueError, match="a start row cannot be held back"):
        solve_lp(replace(model, lazy=np.array([1, 2])))
    assert solve_lp(model).status == "optimal"


def test_rebase_refuses_a_basis_of_other_rows():
    """A state that added every held-back row has more rows than its cold
    root's basis covers, so a basis exchange to that basis is refused
    rather than left on extra basic variables."""
    inst = generate_instance(12, 0.3, 6, 1)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model).start.sx
    grown = root.copy()
    grown.add_rows()
    assert grown.m > root.m
    with pytest.raises(ValueError, match="a basis of 187 rows"):
        grown.rebase(root.basis, root.at_upper)


# build_model holds its optimality rows back (MipModel.lazy): a solve adds
# one to the live tableau only once its point violates it, and solve_bnb
# adds the rest to its root. These tests pin the result to every row and
# the rows added to the algebra.


@given(case=generated_models())
def test_held_back_rows_hold_at_the_optimum(case):
    """Whatever rows a solve held back, its optimum is HiGHS's over every
    row within a relative 1e-9, every row and bound holds at its point, and
    the reduced costs of the movable nonbasic variables have the sign
    their moves need, within OPT_TOL; those of the result are the
    structural ones, 0 on a ``pi`` column that meets no row added."""
    _, model = case
    res = solve_lp(model)
    ref = scipy_solve(model)
    assert res.status == "optimal" and ref.status == 0
    assert abs(res.objective - ref.fun) <= 1e-9 * (1 + abs(ref.fun))
    assert residuals_ok(model, res.values)
    sx = res.start.sx
    d = sx._reduced_costs()
    assert np.all(sx.move[sx.movable] * d[sx.movable] >= -milp.OPT_TOL)
    structural = sx.nb < model.num_vars
    assert np.array_equal(res.reduced_costs[sx.nb[structural]], d[structural])
    live = np.setdiff1d(np.arange(len(model.rows)), sx.held)
    met = np.zeros(model.num_vars, dtype=bool)
    for i in live:
        met[model.rows[i].cols] = True
    assert np.all(res.reduced_costs[~met] == 0.0)


@pytest.mark.parametrize("case", [(8, 0.5, 4, 1), (6, 0.8, 3, 3), (12, 0.3, 6, 1)], ids=["8-0.5-4-1", "6-0.8-3-3", "12-0.3-6-1"])
def test_completed_root_is_the_tableau_of_every_row(case):
    """Once solve_bnb has added every held-back row to its root, the
    root's tableau is B^-1 [N | b] of ``[A | I | b]`` over every row for
    its final basis, as np.linalg.solve gives it, and its kept pricing
    state is what it stands for; its point is the root's."""
    inst = generate_instance(*case)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    sx = root.start.sx
    assert sx.held.size and sx.m < len(model.rows)
    solve_bnb(model, model.integer_ok, root)
    assert sx.held.size == 0 and sx.m == len(model.rows)
    assert_basis_inverse_times_start(sx, a_i_b_of(model), model, rtol=1e-12)
    check_kept_state(sx, model)
    assert np.array_equal(sx.values[: model.num_vars], root.values)
    assert np.max(np.maximum(sx.lbb - sx.xb, sx.xb - sx.ubb)) <= milp.FEAS_TOL


def test_solve_cut_before_any_row_was_added_still_bounds(monkeypatch):
    """A solve whose deadline falls before its point was first primal
    feasible (pivot 70 on 12-0.3-6-1) has added no row. Its basis is dual
    feasible for the LP without the rows it held back, a relaxation, so its
    bound is at most the LP optimum over every row."""
    inst = generate_instance(12, 0.3, 6, 1)
    model = build_model(inst, compute_big_m(inst))
    optimum = solve_lp(model).objective
    rounds = rounds_of_rows(monkeypatch)
    for pivots in (0, 20, 50, 69):
        # a clock that ticks once per reading: the dual reads it once before
        # each pivot
        ticks = itertools.count()
        monkeypatch.setattr(milp.time, "monotonic", lambda: float(next(ticks)))
        cut = solve_lp(model, deadline=float(pivots))
        assert (cut.status, cut.iterations) == ("iteration-limit", pivots)
        assert -math.inf < cut.bound <= optimum
    assert rounds == []


def test_two_bnb_calls_add_their_roots_rows_once(monkeypatch):
    """Two solve_bnb calls from one root add the rows its solve held back
    once, in the first call, find the same bytes, and find what a B&B
    from a root solved with every row from the start finds."""
    inst = generate_instance(8, 0.5, 4, 1)
    model = build_model(inst, compute_big_m(inst))
    every = replace(model, lazy=np.empty(0, dtype=int))
    expected = solve_bnb(every, every.integer_ok, solve_lp(every))
    root = solve_lp(model)
    held = root.start.sx.held.size
    added = []
    add_rows = milp._Simplex.add_rows

    def counted(self, which=None):
        before = self.held.size
        add_rows(self, which)
        added.append(before - self.held.size)

    monkeypatch.setattr(milp._Simplex, "add_rows", counted)
    first, second = (solve_bnb(model, model.integer_ok, root) for _ in range(2))
    assert held and [n for n in added if n] == [held]
    assert (first.status, first.objective, first.nodes) == (second.status, second.objective, second.nodes)
    assert first.values.tobytes() == second.values.tobytes()
    assert first.status == expected.status == "optimal"
    assert first.objective == pytest.approx(expected.objective, rel=1e-9)


def test_cut_solve_bounds_with_a_margin():
    """A solve cut before its optimum bounds the LP from below by its
    point's objective, less each nonbasic variable's range times the larger
    of OPT_TOL and the wrong-signed part of its reduced cost. A slack's
    range is its bounds cut to what its row reaches within the variable
    bounds and its own, from the bound it sits at, which its row need not
    reach. A wrong-signed reduced cost on a variable of infinite range
    leaves no bound."""
    # min x0 + 2 x1 s.t. x0 + x1 >= 2, x0 <= 3, 0 <= x0 <= 4, 0 <= x1 <= 5
    model = tiny_model(
        [1.0, 2.0], [0.0, 0.0], [4.0, 5.0], rows=[([0, 1], [1.0, 1.0], SENSE_GE, 2.0), ([0], [1.0], SENSE_LE, 3.0)]
    )
    cut = solve_lp(model, deadline=time.monotonic() - 1.0)
    assert (cut.status, cut.iterations, cut.objective) == ("iteration-limit", 0, 0.0)
    assert cut.bound == pytest.approx(-9 * milp.OPT_TOL, rel=1e-12)  # x0 and x1 at 0, ranges 4 and 5
    sx = solve_lp(model).start.sx
    assert sorted(sx.nb.tolist()) == [1, 2]  # x1 at 0 and the first row's slack at 0
    d = sx._reduced_costs()
    # the slack 2 - x0 - x1 reaches [-7, 2] within the bounds, and at most 0
    # by its row's sense: range 7
    assert milp._dual_bound(model, sx, 2.0, d) == pytest.approx(2.0 - 12 * milp.OPT_TOL, rel=1e-12)
    wrong = np.where(sx.nb == 1, -0.5, d)
    assert milp._dual_bound(model, sx, 2.0, wrong) == pytest.approx(2.0 - 2.5 - 7 * milp.OPT_TOL, rel=1e-12)
    # a row that is never tight: x0 <= 10 with x0 at most 4. With x0 basic
    # in it, its slack sits at 0 but reaches only [6, 10], so its range is
    # 10, not 4; the point (x0 = 10) costs 10 and the slack's reduced cost
    # is -1, wrong-signed
    model.rows[1] = replace(model.rows[1], rhs=10.0)
    sx = milp._Simplex(model, model.lb.copy(), model.ub.copy(), 10)
    assert sx.rebase(np.array([2, 0]), sx.at_upper.copy())
    d = sx._reduced_costs()
    assert sx.values[0] == 10.0 and d[sx.slot[3]] == -1.0
    bound = milp._dual_bound(model, sx, 10.0, d)
    assert bound == pytest.approx(-5 * milp.OPT_TOL, abs=1e-12)  # x1's range 5 at OPT_TOL
    assert bound <= solve_lp(model).objective == 2.0
    model.ub[1] = math.inf
    sx = solve_lp(model).start.sx
    assert milp._dual_bound(model, sx, 2.0, np.where(sx.nb == 1, -0.5, sx._reduced_costs())) == -math.inf


def test_integral_objective_reads_fixed_variables():
    """Pruning rounds bounds up only when every feasible point's objective
    is an integer: the marked variables' costs must be integers, and an
    unmarked variable with a cost counts only when fixed to a value that
    makes its cost an integer."""
    binary = np.array([True, False])
    for cost, lb, ub, integral in ((3.0, 1.0, 1.0, True), (2.5, 1.0, 1.0, False), (1.0, 0.5, 0.5, False),
                                   (1.0, 0.0, 1.0, False)):
        assert milp._integral_objective(tiny_model([2.0, cost], [0.0, lb], [1.0, ub]), binary) is integral
    assert milp._integral_objective(tiny_model([0.5, 0.0], [0.0, 0.0], [1.0, 1.0]), binary) is False


def test_dual_stops_on_a_reduced_cost_that_is_not_finite(monkeypatch):
    """A reduced cost spoilt by NaN makes the ratio test's longest step NaN;
    the dual stops there, before its first pivot, instead of pivoting on
    it."""
    model = tiny_model([1.0, 1.0], [0.0, 0.0], [5.0, 5.0], rows=[([0, 1], [1.0, 1.0], SENSE_GE, 1.0)])
    assert solve_lp(model).iterations == 1
    sx = milp._Simplex(model, model.lb.copy(), model.ub.copy(), 100)
    # the dual reads the reduced costs the constructor derived
    monkeypatch.setattr(milp._Simplex, "_derived_d", lambda self: np.full(self.nb.size, math.nan))
    assert sx.solve() == "iteration-limit"
    assert sx.iterations == 0


def test_runtime_needs_numpy_only():
    """With scipy unimportable, the package imports and a full run works:
    the kernel is numpy's alone, as pyproject.toml promises."""
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from fcndp import SolverConfig, generate_instance, vfhlb\n"
        "sol, rec = vfhlb(generate_instance(6, 0.7, 2, seed=1), SolverConfig(seed=1))\n"
        "print(rec.cost, rec.lower_bound)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    cost, bound = map(float, run.stdout.split())
    assert bound <= cost < math.inf
