import math
import time

import numpy as np
import pytest

from conftest import make_solution, tree_bound
from fcndp import heuristics, milp
from fcndp.driver import SolverConfig, vfhlb
from fcndp.instance import Commodity, Edge, Instance, generate_instance
from fcndp.heuristics import (
    SWEEPS,
    _sweeps,
    candidate_list,
    ejection_cycle,
    ejection_cost_sentinel,
    inefficiency_metrics,
    lbound,
    local_branching,
    partial_decoupling,
    proves_optimal,
    vfh,
)
from fcndp.oracle import solve_exact
from fcndp.solution import verify_bilevel


def quantities_instance(qs) -> Instance:
    edges = (Edge(0, 1, 1, 1, 1),)
    return Instance(2, edges, tuple(Commodity(0, 1, q) for q in qs))


def test_candidate_list_thresholds():
    inst = quantities_instance([10, 8, 5])
    assert candidate_list(inst, [0, 1, 2], 0.85) == [0]
    assert candidate_list(inst, [0, 1, 2], 0.75) == [0, 1]
    assert candidate_list(inst, [1, 2], 0.85) == [1]


def test_candidate_list_never_empty_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        qs = rng.integers(1, 30, size=rng.integers(1, 8)).tolist()
        inst = quantities_instance(qs)
        got = candidate_list(inst, range(len(qs)), 0.85)
        assert got
        top = max(qs)
        assert all(qs[k] >= 0.85 * top for k in got)


def test_candidate_list_errors():
    inst = quantities_instance([1])
    with pytest.raises(ValueError, match="pending"):
        candidate_list(inst, [], 0.85)
    with pytest.raises(ValueError, match="gamma"):
        candidate_list(inst, [0], 0.0)


def test_blend_recomputes_against_current_design():
    """The second leader reuses the edge the first one opened, because its
    opening cost is no longer charged. At alpha = 1 the leader 0 -> 1
    (quantity 2) opens edge 0; the leader 2 -> 1 then pays 2 + 1 for the
    detour 2-0-1, where 2 + 5 (edge 0 charged again) would lose to 5 + 1
    for the direct edge 2."""
    inst = Instance(
        3,
        (Edge(0, 1, 1, 4, 1), Edge(0, 2, 1, 1, 1), Edge(1, 2, 1, 5, 1)),
        (Commodity(0, 1, 2), Commodity(2, 1, 1)),
    )
    empty = np.zeros(3, dtype=np.int8)
    first = next(_sweeps(inst, 1.0, np.random.default_rng(0), [0, 1], empty, inst.edge_array("f")))
    assert first.open_edges() == [0, 1]
    assert first.cost == 4 + 1 + 2 * 1 + 1 * 2


def test_partial_decoupling_worked(worked):
    for seed in range(10):
        sol = partial_decoupling(worked, 0.85, rng=seed)
        assert sol.cost in (10.0, 14.0)
        assert verify_bilevel(worked, sol).passed


def test_partial_decoupling_no_commodities(worked):
    inst = Instance(worked.nodes, worked.edges, ())
    sol = partial_decoupling(inst, 0.85, rng=0)
    assert type(sol.cost) is float and sol.cost == 0.0
    assert sol.open_edges() == []
    assert sol.y.dtype == np.int8 and sol.y.shape == (inst.num_edges,)
    assert sol.x.dtype == np.int8 and sol.x.shape == (0, 2 * inst.num_edges)


def test_partial_decoupling_alpha_one_routes_min_variable_cost():
    # free edges, alpha = 1: the blend degenerates to the variable cost, so
    # the leader lays down the cheap-to-ship route even though it is longer
    inst = Instance(
        4,
        (
            Edge(0, 1, 5, 0, 1),
            Edge(1, 3, 5, 0, 1),
            Edge(0, 2, 1, 0, 10),
            Edge(2, 3, 1, 0, 10),
        ),
        (Commodity(0, 3, 1),),
    )
    empty = np.zeros(4, dtype=np.int8)
    sol = next(_sweeps(inst, 0.85, np.random.default_rng(0), [0], empty, inst.edge_array("f")))
    assert sol.open_edges() == [0, 1]
    assert sol.cost == 2.0


def test_partial_decoupling_running_min_over_rounds():
    """partial_decoupling keeps the first cheapest of the sweeps it would
    draw from the same rng; here the sweep costs vary and the cheapest
    comes third."""
    inst = generate_instance(8, 0.5, 4, seed=2)
    empty = np.zeros(inst.num_edges, dtype=np.int8)
    sweeps = list(_sweeps(inst, 0.85, np.random.default_rng(2), range(4), empty, inst.edge_array("f")))
    assert len(sweeps) == SWEEPS
    costs = [s.cost for s in sweeps]
    first = costs.index(min(costs))
    assert first > 0 and max(costs) > min(costs)
    sol = partial_decoupling(inst, 0.85, rng=2)
    assert sol.cost == sweeps[first].cost
    assert np.array_equal(sol.y, sweeps[first].y)
    assert np.array_equal(sol.x, sweeps[first].x)


def test_sweeps_route_each_design_once(monkeypatch):
    """The ten sweeps on 8-0.5-4-2 lay down two designs. Every sweep routes
    its four leaders (40 shortest-path calls), but the length re-route of
    every commodity and the closing of unused edges run once per design
    (8 calls, not 40), and sweeps of one design yield one Solution."""
    inst = generate_instance(8, 0.5, 4, seed=2)
    calls = []
    real = heuristics.dijkstra

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(heuristics, "dijkstra", counted)
    empty = np.zeros(inst.num_edges, dtype=np.int8)
    sweeps = list(_sweeps(inst, 0.85, np.random.default_rng(2), range(4), empty, inst.edge_array("f")))
    assert len({s.cost for s in sweeps}) == len({id(s) for s in sweeps}) == 2
    assert len(calls) == SWEEPS * 4 + 2 * 4


def tree_instance() -> Instance:
    # unique paths everywhere: the relaxation is integral immediately
    return Instance(
        3,
        (Edge(0, 1, 1, 4, 1), Edge(1, 2, 1, 4, 1)),
        (Commodity(0, 2, 2),),
    )


def test_lbound_immediate_integral_guard():
    res = lbound(tree_instance())
    assert res.solution is not None
    assert res.iterations == 0
    assert res.value == 8 + 2 * 2
    assert verify_bilevel(tree_instance(), res.solution).passed


def test_lbound_worked_is_lower_bound(worked):
    res = lbound(worked)
    assert res.value <= 10.0


def test_lbound_iteration_cap():
    inst = generate_instance(10, 0.3, 5, seed=1)
    assert inst.num_edges == 13
    res = lbound(inst)
    assert res.iterations <= math.ceil(0.2 * 13) == 3


def test_lbound_stops_at_its_pass_cap(monkeypatch):
    """lbound runs at most ceil(0.2 E) passes: with every pass stubbed to
    a fractional point that puts one more opening variable at 1, bounding
    on 8-0.5-4-2 (E = 14; the root promotes 5) stops after 3 passes with
    the last pass's bound and no design, short of the 90% rule."""
    inst = generate_instance(8, 0.5, 4, 2)
    E = inst.num_edges
    passes = []

    def fractional(model, binary, *, root, **kwargs):
        values = root.values.copy()
        values[:E] = np.where(binary[:E], 1.0, 0.25)
        values[int(np.flatnonzero(~binary[:E])[0])] = 1.0
        passes.append(int(binary[:E].sum()))
        return milp.LpResult(milp.STATUS_OPTIMAL, root.objective + len(passes), values)

    monkeypatch.setattr(heuristics, "solve_bnb", fractional)
    res = lbound(inst)
    assert (E, math.ceil(0.2 * E)) == (14, 3)
    assert passes == [5, 6, 7] and res.iterations == 3
    assert (res.value, res.solution, res.status) == (math.ceil(497.5 + 3), None, "optimal")


def test_lbound_raises_on_an_infeasible_root():
    """A commodity whose destination its origin does not reach makes the
    high-point relaxation infeasible, and lbound raises; vfh falls back on
    that error (``test_failed_relaxation_falls_back_to_the_construction``)."""
    split = Instance(4, (Edge(0, 1, 1, 10, 1), Edge(2, 3, 1, 10, 1)), (Commodity(0, 3, 1),))
    with pytest.raises(RuntimeError, match="relaxation solve failed: infeasible"):
        lbound(split)


@pytest.mark.parametrize(
    "case, optimum",
    [((8, 0.5, 4, 2), 524.0), ((8, 0.6, 4, 1), 801.0), ((9, 0.4, 4, 4), 495.0)],
    ids=["8-0.5-4-2", "8-0.6-4-1", "9-0.4-4-4"],
)
def test_lbound_never_repeats_a_pass(monkeypatch, case, optimum):
    """A pass that promotes nothing would hand solve_bnb the model, mask and
    root of the pass before it, so lbound stops instead of solving the same
    MIP again."""
    masks = []
    real = heuristics.solve_bnb

    def recorded(model, binary, **kwargs):
        masks.append(binary.copy())
        return real(model, binary, **kwargs)

    monkeypatch.setattr(heuristics, "solve_bnb", recorded)
    res = lbound(generate_instance(*case))
    assert len(masks) == res.iterations >= 1
    assert all(not np.array_equal(a, b) for a, b in zip(masks, masks[1:]))
    assert res.value <= optimum


def test_lbound_promotes_a_half_up_to_rounding(monkeypatch):
    """An opening variable one half up to rounding (0.5 - 5e-15, as B&B
    passes return) is promoted whichever way its last bits fall; one
    clearly below one half (0.5 - 1e-6) is not."""
    inst = generate_instance(8, 0.5, 4, 2)
    real_lp, real_bnb = heuristics.solve_lp, heuristics.solve_bnb
    masks = []
    below = []

    def nudged_lp(model, **kwargs):
        root = real_lp(model, **kwargs)
        below.extend(int(e) for e in np.flatnonzero(root.values[: model.num_edges] < 0.25)[:2])
        root.values[below] = [0.5 - 5e-15, 0.5 - 1e-6]
        return root

    def recorded(model, binary, **kwargs):
        masks.append(binary.copy())
        return real_bnb(model, binary, **kwargs)

    monkeypatch.setattr(heuristics, "solve_lp", nudged_lp)
    monkeypatch.setattr(heuristics, "solve_bnb", recorded)
    lbound(inst)
    assert len(below) == 2 and masks
    assert masks[0][below[0]] and not masks[0][below[1]]


def test_bound_kept_when_bounding_runs_out(monkeypatch):
    """A bounding pass that runs out of budget keeps the bound already proved:
    the root LP of 8-0.5-4-2 is 497.5, so 498 on integer data, not 0."""
    inst = generate_instance(8, 0.5, 4, 2)
    roots = []

    def out_of_budget(model, binary, **kwargs):
        roots.append(kwargs["root"])
        return milp.LpResult(milp.STATUS_ITERATION_LIMIT, math.inf, model.lb.copy())

    monkeypatch.setattr(heuristics, "solve_bnb", out_of_budget)
    res = lbound(inst)
    assert abs(roots[0].objective - 497.5) < 1e-6
    assert (res.value, res.status, res.iterations, res.solution) == (498.0, "iteration-limit", 1, None)
    assert vfh(inst, 0.85, rng=1).lower_bound == 498.0


def test_proves_optimal_rule():
    """A gap below one proves optimality on integer data only; other data
    must close the gap up to a relative 1e-6."""
    whole = quantities_instance([1])
    assert whole.is_integer_data()
    assert proves_optimal(whole, 10.0, 9.01)
    assert not proves_optimal(whole, 10.0, 9.0)
    half = quantities_instance([0.5])
    assert not half.is_integer_data()
    assert not proves_optimal(half, 8.01, 7.765)
    assert proves_optimal(half, 8.01, 8.01 - 1e-6)
    assert not proves_optimal(half, 8.01, 8.01 - 1e-4)


def test_vfh_worked_proves_optimum(worked):
    res = vfh(worked, 0.85, rng=0)
    assert res.solution.cost == 10.0
    assert abs(res.solution.cost - res.lower_bound) < 1
    assert proves_optimal(worked, res.solution.cost, res.lower_bound)


def test_vfh_keeps_the_proof_of_a_pass_that_ends_at_its_cutoff():
    """On 6-0.8-3-0 bounding stops at 384; a relax-and-fix pass then finds
    nothing under the incumbent's cost, which proves it: the bound rises to
    422, the oracle optimum."""
    inst = generate_instance(6, 0.8, 3, 0)
    assert lbound(inst).value == 384.0
    res = vfh(inst, 0.85, rng=1)
    assert (res.solution.cost, res.lower_bound) == (422.0, 422.0)
    assert solve_exact(inst).cost == 422.0


def test_pass_out_of_budget_proves_nothing(monkeypatch):
    """A relax-and-fix pass that runs out of budget before it finds an
    incumbent ends with an infinite objective too, but proves nothing: the
    bound stays at lbound's 384 and the incumbent is not proven."""
    inst = generate_instance(6, 0.8, 3, 0)
    bnb = heuristics.solve_bnb

    def out_of_budget(model, binary, *, cutoff=None, **kwargs):
        if cutoff is None:  # lbound's passes
            return bnb(model, binary, **kwargs)
        return milp.LpResult(milp.STATUS_ITERATION_LIMIT, math.inf, model.lb.copy())

    monkeypatch.setattr(heuristics, "solve_bnb", out_of_budget)
    res = vfh(inst, 0.85, rng=1)
    assert (res.solution.cost, res.lower_bound) == (422.0, 384.0)
    assert not proves_optimal(inst, res.solution.cost, res.lower_bound)


def test_pass_out_of_budget_with_a_point_stops_relax_and_fix(monkeypatch):
    """A relax-and-fix pass that runs out of budget after it found a point
    under the cutoff ends relax-and-fix: on 6-0.8-3-6 (rng 6) the first
    pass's point, stubbed to an out-of-budget status, stops vfh with the
    construction's 465 and lbound's 371, where two more passes reach the
    optimum 414 and prove it."""
    inst = generate_instance(6, 0.8, 3, 6)
    bnb = heuristics.solve_bnb
    passes = []

    def out_of_budget(model, binary, *, cutoff=None, **kwargs):
        res = bnb(model, binary, cutoff=cutoff, **kwargs)
        if cutoff is None:  # lbound's passes
            return res
        passes.append(res.objective)
        return milp.LpResult(milp.STATUS_ITERATION_LIMIT, res.objective, res.values)

    assert (vfh(inst, 0.85, rng=6).solution.cost, lbound(inst).value) == (414.0, 371.0)
    monkeypatch.setattr(heuristics, "solve_bnb", out_of_budget)
    res = vfh(inst, 0.85, rng=6)
    assert len(passes) == 1 and passes[0] < 465.0
    assert (res.solution.cost, res.lower_bound) == (465.0, 371.0)
    assert verify_bilevel(inst, res.solution).passed


def test_vfh_returns_lbound_solution_when_integral():
    inst = tree_instance()
    res = vfh(inst, 0.85, rng=0)
    assert res.solution.cost == res.lower_bound == 12.0
    assert res.fixed_edges == []


@pytest.mark.parametrize(
    "case, seed, construction, optimum",
    [((6, 0.8, 3, 6), 6, 465.0, 414.0), ((8, 0.6, 4, 0), 0, 571.0, 528.0)],
    ids=["6-0.8-3-6", "8-0.6-4-0"],
)
def test_relax_and_fix_improves_the_incumbent(case, seed, construction, optimum):
    """Bounding proves nothing here and the construction is not optimal: a
    relax-and-fix pass finds a cheaper design, the optimum, which vfh
    returns proven. Runs where a pass improves on the construction are
    rare; these two were found by scanning instances and seeds."""
    inst = generate_instance(*case)
    assert partial_decoupling(inst, 0.85, rng=seed).cost == construction
    assert lbound(inst).solution is None
    res = vfh(inst, 0.85, rng=seed)
    assert (res.solution.cost, res.lower_bound) == (optimum, optimum)
    assert solve_exact(inst).cost == optimum
    assert verify_bilevel(inst, res.solution).passed


def test_vfh_sandwich_and_rcvf_safety_smoke():
    for seed in range(5):
        inst = generate_instance(6, 0.7, 2, seed=seed)
        exact = solve_exact(inst)
        res = vfh(inst, 0.85, rng=seed)
        assert res.lower_bound <= exact.cost <= res.solution.cost
        for e in res.fixed_edges:
            assert exact.y[e] == 0, f"RCVF closed edge {e} open in the optimum"


def test_high_point_relaxation_trap():
    """Shipping is cheap on the long route 0-2-3 (length 10, beta 1) and
    dear on the short 0-1-3 (length 2, beta 5). The high-point relaxation
    opens all four edges and sends the 0 -> 3 commodity along 0-2-3, at
    160, where the follower would take 0-1-3. The bilevel optimum, 170,
    closes edge 1-3 and sends 1 -> 3 round by 0 and 2. lbound's integral
    root is no proof, and vfh's full model reaches 170."""
    inst = Instance(
        4,
        (Edge(0, 1, 1, 10, 5), Edge(1, 3, 1, 10, 5), Edge(0, 2, 5, 10, 1), Edge(2, 3, 5, 10, 1)),
        (Commodity(0, 3, 10), Commodity(0, 1, 10), Commodity(1, 3, 10)),
    )
    assert solve_exact(inst).cost == 170.0
    res = lbound(inst)
    assert (res.value, res.solution, res.iterations) == (160.0, None, 0)
    sol, rec = vfhlb(inst, SolverConfig(seed=1))
    assert (rec.cost, rec.lower_bound) == (170.0, 170.0)
    assert verify_bilevel(inst, sol).passed


def test_past_deadline_solves_no_root(monkeypatch):
    """With the deadline already past, lbound's root relaxation stops
    before its first pivot and vfh falls back to the construction and the
    bound of the start basis, every commodity on its shortest path by unit
    cost. When bounding proves nothing, the full root is cut the same way,
    and vfh keeps the better of its bound and bounding's."""
    inst = generate_instance(6, 0.8, 3, 0)
    ends = []  # per simplex run: (status, pivots)
    solve = milp._Simplex.solve

    def watched(self):
        status = solve(self)
        ends.append((status, self.iterations))
        return status

    monkeypatch.setattr(milp._Simplex, "solve", watched)
    construction = partial_decoupling(inst, 0.85, rng=1)
    res = vfh(inst, 0.85, rng=1, deadline=time.monotonic() - 1.0)
    assert (res.solution.cost, res.lower_bound) == (construction.cost, tree_bound(inst))
    assert 0.0 < tree_bound(inst) < 384.0
    assert ends == [(milp.STATUS_ITERATION_LIMIT, 0)]
    for bounding, kept in ((384.0, 384.0), (0.0, tree_bound(inst))):
        ends.clear()
        result = heuristics.LboundResult(bounding, None, 1)
        monkeypatch.setattr(heuristics, "lbound", lambda *args, **kwargs: result)
        res = vfh(inst, 0.85, rng=1, deadline=time.monotonic() - 1.0)
        assert (res.solution.cost, res.lower_bound, res.fixed_edges) == (construction.cost, kept, [])
        assert ends == [(milp.STATUS_ITERATION_LIMIT, 0)]


def test_reduced_cost_fixing_on_the_full_root():
    """On 6-0.7-3-257 bounding proves nothing, so vfh solves the full
    model's root itself; a relax-and-fix pass then closes edge 8 by its
    reduced cost at that root. The edge is closed in the optimum, and vfh
    proves the oracle optimum."""
    inst = generate_instance(6, 0.7, 3, 257)
    assert lbound(inst).solution is None
    res = vfh(inst, 0.85, rng=257)
    exact = solve_exact(inst)
    assert res.fixed_edges == [8] and exact.y[8] == 0
    assert (res.solution.cost, res.lower_bound) == (exact.cost, exact.cost) == (503.0, 503.0)
    assert verify_bilevel(inst, res.solution).passed


def test_vfh_rcvf_fires_and_stays_safe():
    """On the first 6-0.7-3 instance, tried from seed 50 on, where the
    reduced-cost test closes an edge, every edge it closes is closed in the
    optimum and vfh still finds the optimum. Seeds 50-399 give the same
    answer under one and two BLAS threads and OpenBLAS's SkylakeX, Haswell,
    Sandybridge and Prescott kernels: the test fires on 257 only (lbound
    proves 99, 112 and 144 itself, so no reduced-cost fixing runs there)."""
    for seed in range(50, 300):
        inst = generate_instance(6, 0.7, 3, seed=seed)
        res = vfh(inst, 0.85, rng=seed)
        if res.fixed_edges:
            break
    else:
        pytest.fail("reduced-cost fixing closes no edge on any candidate")
    assert (seed, res.fixed_edges) == (257, [8])
    exact = solve_exact(inst)
    assert all(exact.y[e] == 0 for e in res.fixed_edges)
    assert res.solution.cost == exact.cost


def test_local_branching_zero_radius_keeps_design(worked):
    start = make_solution(worked, [0, 1], {0: [(0, 1), (1, 2)]})
    out = local_branching(worked, start, 0)
    assert np.array_equal(out.y, start.y)


def test_local_branching_reaches_optimum_within_radius(worked):
    start = make_solution(worked, [0, 1], {0: [(0, 1), (1, 2)]})
    assert start.cost == 14.0
    # by enumeration the designs within two flips of (1,1,0) cost 14, 15, 15
    # and 22, so radius 2 cannot improve; the optimum (0,0,1) sits at
    # distance 3
    stuck = local_branching(worked, start, 2)
    assert stuck.cost == 14.0
    assert np.array_equal(stuck.y, start.y)
    out = local_branching(worked, start, 3)
    assert out.cost == 10.0
    assert int(np.abs(out.y - start.y).sum()) <= 3
    assert verify_bilevel(worked, out).passed


def test_local_branching_past_its_deadline_returns_its_input(monkeypatch):
    """Once its deadline has passed, local branching returns its input and
    builds no simplex tableau; with time left it builds one."""
    inst = generate_instance(6, 0.8, 3, 0)
    start = partial_decoupling(inst, 0.85, rng=1)
    built = []
    init = milp._Simplex.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(milp._Simplex, "__init__", counted)
    assert local_branching(inst, start, 6, deadline=time.monotonic()) is start
    assert built == []
    local_branching(inst, start, 6, deadline=time.monotonic() + 60.0)
    assert built


def test_local_branching_contracts_random():
    rng = np.random.default_rng(3)
    for trial in range(15):
        inst = generate_instance(6, 0.7, 2, seed=trial)
        start = partial_decoupling(inst, 0.85, rng=trial)
        delta = int(rng.integers(0, inst.num_edges + 1))
        out = local_branching(inst, start, delta)
        assert out.cost <= start.cost
        assert int(np.abs(out.y - start.y).sum()) <= delta
        assert verify_bilevel(inst, out).passed


def ratio_fixture_single() -> tuple[Instance, float]:
    inst = Instance(
        2,
        (Edge(0, 1, 1, 10, 2),),
        (Commodity(0, 1, 3), Commodity(0, 1, 5)),
    )
    return inst, 13.0


def test_inefficiency_of_a_design_with_no_used_edge():
    """With no commodity no edge carries flow: no ratio, average 0, and no
    inefficient edge or chain."""
    inst = Instance(3, (Edge(0, 1, 1, 4, 1), Edge(1, 2, 1, 4, 1)), ())
    sol = make_solution(inst, [], {})
    assert sol.x.shape == (0, 4)
    report = inefficiency_metrics(inst, sol)
    assert (report.ratios, report.average, report.inefficient, report.chains) == ({}, 0.0, [], [])


def test_inefficiency_ratio_hand_computed():
    inst, expect = ratio_fixture_single()
    sol = make_solution(inst, [0], {0: [(0, 1)], 1: [(0, 1)]})
    report = inefficiency_metrics(inst, sol)
    assert report.ratios == {0: expect}
    assert report.average == expect
    assert report.inefficient == []
    assert report.chains == []


def ratio_fixture_pair() -> Instance:
    return Instance(
        3,
        (Edge(0, 1, 1, 10, 2), Edge(1, 2, 1, 6, 1)),
        (Commodity(0, 2, 3), Commodity(0, 2, 5)),
    )


def test_inefficiency_average_and_set():
    inst = ratio_fixture_pair()
    sol = make_solution(
        inst, [0, 1], {0: [(0, 1), (1, 2)], 1: [(0, 1), (1, 2)]}
    )
    report = inefficiency_metrics(inst, sol)
    assert report.ratios == {0: 13.0, 1: 7.0}
    assert report.average == 10.0
    assert report.inefficient == [0]
    assert report.chains == []  # singletons are dropped


def test_inefficiency_chains_shape():
    found = 0
    for seed in range(30):
        inst = generate_instance(9, 0.7, 6, seed=seed)
        sol = partial_decoupling(inst, 0.85, rng=seed)
        report = inefficiency_metrics(inst, sol, rng=seed)
        for chain in report.chains:
            found += 1
            assert 2 <= len(chain) <= 4
            assert set(chain) <= set(report.inefficient)
            nodes: list[int] = []
            degree: dict[int, int] = {}
            for e in chain:
                for node in (inst.edges[e].u, inst.edges[e].v):
                    degree[node] = degree.get(node, 0) + 1
            # a node-simple path: exactly two endpoints, no node reused
            assert len(degree) == len(chain) + 1
            assert sorted(degree.values())[-1] <= 2
            assert sum(1 for d in degree.values() if d == 1) == 2
    assert found, "no chains produced across 30 instances"


def test_ejection_cycle_no_inefficient_edges_is_identity():
    inst, _ = ratio_fixture_single()
    sol = make_solution(inst, [0], {0: [(0, 1)], 1: [(0, 1)]})
    out = ejection_cycle(inst, sol, 0.85, rng=0)
    assert out is sol


def test_ejection_cycle_deterministic_and_feasible():
    for seed in range(8):
        inst = generate_instance(8, 0.7, 5, seed=seed)
        sol = partial_decoupling(inst, 0.85, rng=seed)
        a = ejection_cycle(inst, sol, 0.85, rng=99)
        b = ejection_cycle(inst, sol, 0.85, rng=99)
        assert a.cost == b.cost
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert a.cost <= sol.cost
        assert verify_bilevel(inst, a).passed


def test_ejection_sentinel_dominates_costs():
    inst = generate_instance(7, 0.6, 3, seed=1)
    assert ejection_cost_sentinel(inst) > 1e6 * float(inst.edge_array("f").sum())
