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
from fcndp.instance import Instance, compute_big_m, generate_instance
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
        kinds=["y" if b else "pi" for b in integer],
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
    res = solve_bnb(model, model.integer_ok)
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
    bb = solve_bnb(model, np.zeros(model.num_vars, dtype=bool))
    assert bb.status == lp.status
    assert bb.objective == lp.objective
    assert bb.reduced_costs is not None


def test_bnb_cutoff_below_optimum(worked):
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, cutoff=9.5)
    assert res.status == "cutoff"
    res2 = solve_bnb(model, model.integer_ok, cutoff=10.5)
    assert res2.status == "optimal" and res2.objective == 10.0


def test_bnb_integral_objective_on_integer_instances():
    for seed in (0, 1):
        inst = generate_instance(6, 0.7, 2, seed=seed)
        model = build_model(inst, compute_big_m(inst))
        res = solve_bnb(model, model.integer_ok)
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
        assert solve_bnb(model, model.integer_ok).status == "optimal"
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
    res = solve_bnb(model, model.integer_ok)
    assert res.status == "iteration-limit"


def test_iteration_limit_status(worked, monkeypatch):
    monkeypatch.setattr(milp, "PIVOT_LIMIT_FLOOR", 1)
    monkeypatch.setattr(milp, "PIVOT_LIMIT_PER_DIM", 0)
    model = build_model(worked, compute_big_m(worked))
    res = solve_lp(model)
    assert res.status == "iteration-limit"


def test_bnb_stops_at_a_passed_deadline(worked):
    """A deadline that has passed stops the search before its first node,
    the root relaxation included."""
    model = build_model(worked, compute_big_m(worked))
    res = solve_bnb(model, model.integer_ok, deadline=time.monotonic())
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
    basis after its sibling was solved on such a copy."""
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
        check_slots(sx)
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
        default = solve_bnb(model, model.integer_ok)
        with monkeypatch.context() as patch:
            patch.setattr(milp, "_RESTART_AFTER", -1)
            patch.setattr(milp._Simplex, "copy", counted)
            restarted = solve_bnb(model, model.integer_ok)
        assert restarted.status == default.status == "optimal"
        assert abs(restarted.objective - default.objective) <= 1e-9
    assert len(copies) > 2


def test_root_seed_gives_same_result():
    """A solve_lp result passed as root= replaces the root solve and changes
    nothing else; one from other bounds or another model is refused."""
    for case in ((6, 0.8, 3, 3), (8, 0.5, 4, 2)):
        inst = generate_instance(*case)
        model = build_model(inst, compute_big_m(inst))
        y_only = model.integer_ok & (np.arange(model.num_vars) < model.num_edges)
        optimum = solve_bnb(model, model.integer_ok).objective
        for binary, cutoff in ((model.integer_ok, None), (y_only, None), (model.integer_ok, optimum)):
            cold = solve_bnb(model, binary, cutoff=cutoff)
            seeded = solve_bnb(model, binary, root=solve_lp(model), cutoff=cutoff)
            assert cold.nodes > 1
            assert seeded.status == cold.status
            assert seeded.objective == cold.objective
            assert seeded.values.tobytes() == cold.values.tobytes()
            assert seeded.nodes == cold.nodes
    inst = generate_instance(6, 0.8, 3, 3)
    model = build_model(inst, compute_big_m(inst))
    lp = solve_lp(model)
    with pytest.raises(ValueError, match="this model"):
        solve_bnb(build_model(inst, compute_big_m(inst)), model.integer_ok, root=lp)
    with pytest.raises(ValueError, match="this model"):
        solve_bnb(model, model.integer_ok, root=solve_bnb(model, model.integer_ok))
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
        col = sx._col(q)
        r = int(np.argmax(np.abs(col)))
        if abs(col[r]) > 1e-6:
            sx._pivot(r, q, col, 0.0, False, d)


def exchanged(model: MipModel, picks: list[int]):
    """A cold start after ``exchange(picks)``, with the exchanges the block
    still holds back, and the model's rows as ``[A | I | b]``."""
    sx = milp._Simplex(model, model.lb.astype(float), model.ub.astype(float), 0)
    m, n = len(model.rows), model.num_vars
    a_i_b = np.zeros((m, n + m + 1))
    for i, row in enumerate(model.rows):
        a_i_b[i, row.cols] = row.coefs
        a_i_b[i, n + i] = 1.0
        a_i_b[i, -1] = row.rhs
    # the starting tableau is [A | b], bit for bit as filled row by row:
    # every slack basic, every structural nonbasic in the slot of its own id
    start = np.delete(a_i_b, np.s_[n : n + m], axis=1)
    assert sx.tableau.shape == start.shape and sx.tableau.tobytes() == start.tobytes()
    assert np.array_equal(sx.basis, np.arange(n, n + m))
    assert np.array_equal(sx.nb, np.arange(n))
    check_slots(sx)
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
        assert sx.tableau.shape == (len(case.rows), case.num_vars + 1)
        assert solve_lp(case).status == "optimal"


def check_slots(sx) -> None:
    """``nb`` and ``slot`` are inverse maps over the nonbasic variables:
    every nonbasic variable has exactly one slot, and a basic one none."""
    assert sx.tableau.shape == (sx.m, sx.nb.size + 1)
    assert np.array_equal(np.sort(np.concatenate([sx.nb, sx.basis])), np.arange(sx.ncols))
    assert np.array_equal(sx.slot[sx.nb], np.arange(sx.nb.size))
    assert np.all(sx.slot[sx.basis] == -1)


def assert_basis_inverse_times_start(sx, a_i_b: np.ndarray) -> None:
    """The flushed tableau is B^-1 [N | b], with B the basic and N the
    nonbasic columns of ``[A | I | b]``, the latter in slot order."""
    sx._flush()
    check_slots(sx)
    expected = np.linalg.solve(a_i_b[:, sx.basis], a_i_b[:, np.append(sx.nb, -1)])
    np.testing.assert_allclose(sx.tableau, expected, rtol=0, atol=1e-7 * (1 + np.abs(expected).max()))


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
            np.testing.assert_allclose(sx._col(q), flushed.tableau[:, flushed.slot[q]], rtol=0, atol=1e-9)
        for r in range(sx.m):
            np.testing.assert_allclose(sx._row(r), flushed.tableau[r], rtol=0, atol=1e-9)
    assert_basis_inverse_times_start(sx, a_i_b)


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
    assert_basis_inverse_times_start(sx, a_i_b)
    assert_basis_inverse_times_start(twin, a_i_b)
    check_kept_state(sx)
    check_kept_state(twin)


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
    columns than one block holds, so the block fills and is flushed midway;
    it ends on the optimal tableau and point."""
    inst = generate_instance(12, 0.3, 6, 1)
    model = build_model(inst, compute_big_m(inst))
    root = solve_lp(model)
    target = root.start.sx
    sx, _ = exchanged(model, [])
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


@pytest.mark.parametrize(
    "case, optimum, most_pivots",
    [((12, 0.3, 6, 1), 3397 / 3, 150), ((15, 0.25, 8, 1), 1181.5, 350), ((20, 0.2, 10, 1), 2010.2, 800)],
    ids=["12-0.3-6-1", "15-0.25-8-1", "20-0.2-10-1"],
)
def test_root_lp_at_size(case, optimum, most_pivots):
    """Cold root LPs of the sizes the benchmark solves, and of the size a
    full solve aims at, checked against HiGHS and against every row and
    bound of the model. The dual simplex from the slack basis takes 124,
    285 and 647 pivots under every BLAS kernel tried; a primal phase 1
    with artificials took 238, 571 and 1,205, and Dantzig's rule 1,601 on
    15-0.25-8-1."""
    inst = generate_instance(*case)
    model = build_model(inst, compute_big_m(inst))
    res = solve_lp(model)
    ref = scipy_solve(model)
    assert res.status == "optimal" and ref.status == 0
    assert abs(res.objective - optimum) <= 1e-6 * optimum
    assert abs(ref.fun - optimum) <= 1e-6 * optimum
    assert residuals_ok(model, res.values)
    assert res.iterations <= most_pivots


# The simplex keeps its pricing state up to date pivot by pivot, and guards
# the dual and the basis exchange against pivots on rounding noise.


def check_kept_state(sx) -> None:
    """Each array the simplex keeps from pivot to pivot equals its
    from-scratch definition, the slots map the nonbasic variables one to
    one, and every Devex row weight is finite and at least 1."""
    check_slots(sx)
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
    check_kept_state(start)
    d = start._reduced_costs()
    assert np.all(start.move[start.movable] * d[start.movable] >= -milp.OPT_TOL)
    checks = []
    pivot, solve = milp._Simplex._pivot, milp._Simplex.solve

    def checked_pivot(self, *args):
        pivot(self, *args)
        check_kept_state(self)
        checks.append(1)

    def checked_solve(self):
        status = solve(self)
        check_kept_state(self)
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
            check_kept_state(sx)
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
    default = solve_bnb(model, model.integer_ok)
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
    res = solve_bnb(model, model.integer_ok)
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
    2,000 pivots over all of them (1,301 under every BLAS kernel tried);
    choosing the most infeasible row took 5,082."""
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
    optimum = solve_bnb(tight, model.integer_ok).objective
    for binary, cutoff in ((model.integer_ok, None), (y_only, None), (model.integer_ok, optimum)):
        cold = solve_bnb(tight, binary, cutoff=cutoff)
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
    """A cold solve keeps one dense m x (n + 1) array, the short tableau:
    its peak allocation stays below 1.75 tableaux (a second dense copy of
    the model would take it past 2)."""
    inst = generate_instance(15, 0.25, 8, 1)
    model = build_model(inst, compute_big_m(inst))
    tracemalloc.start()
    try:
        res = solve_lp(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "optimal"
    assert res.start.sx.tableau.shape == (len(model.rows), model.num_vars + 1)
    assert peak < 1.75 * res.start.sx.tableau.nbytes


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
