import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import tree_bound
from fcndp import driver, heuristics, milp
from fcndp.driver import RunRecord, SolverConfig, update_best, vfhlb
from fcndp.instance import compute_big_m, generate_instance
from fcndp.milp import solve_lp
from fcndp.model import build_model
from fcndp.oracle import solve_exact
from fcndp.solution import Solution, verify_bilevel


def dummy(cost: float) -> Solution:
    return Solution(np.zeros(1, dtype=np.int8), np.zeros((0, 2), dtype=np.int8), cost)


def test_update_best_cases():
    ten, fourteen = dummy(10.0), dummy(14.0)
    assert update_best(ten, fourteen) is ten
    assert update_best(fourteen, ten) is ten
    tie = dummy(10.0)
    assert update_best(ten, tie) is ten  # ties keep the incumbent
    assert update_best(None, ten) is ten


def test_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.gamma == 0.85
    assert cfg.iterations == 10
    assert cfg.delta is None
    inst = generate_instance(10, 0.3, 5, seed=1)
    assert cfg.resolve_delta(inst) == math.ceil(13 / 2) == 7
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(delta=-1)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize("limit", [math.nan, 0.0, -3.0])
def test_time_limit_must_be_positive(limit):
    # a NaN limit would make every clock comparison false: no deadline at all
    with pytest.raises(ValueError, match="time_limit"):
        SolverConfig(time_limit=limit)


def test_worked_run_proves_optimum_and_skips_loop(worked):
    sol, rec = vfhlb(worked)
    assert sol.cost == 10.0
    assert rec.gap < 1
    # vfh proves the incumbent: only its entry, no local branching
    assert len(rec.trajectory) == 1
    assert rec.status == "ok"


def test_proven_incumbent_is_not_searched(monkeypatch):
    """On 8-0.6-4-1 an lbound pass is integral, which proves vfh's
    incumbent (801, the optimum): neither local branching nor an ejection
    cycle runs."""
    calls = []

    def stage(name):
        def called(inst, sol, *args, **kwargs):
            calls.append(name)
            return sol

        return called

    monkeypatch.setattr(driver, "local_branching", stage("local_branching"))
    monkeypatch.setattr(driver, "ejection_cycle", stage("ejection_cycle"))
    sol, rec = vfhlb(generate_instance(8, 0.6, 4, 1), SolverConfig(seed=1))
    assert calls == []
    assert rec.cost == rec.lower_bound == 801.0
    assert len(rec.trajectory) == 1
    assert rec.status == "ok"


def refuse_proofs(monkeypatch):
    """Make vfhlb treat every bound as open, so that its search loop runs
    whatever vfh proved; vfh itself keeps its own proof test."""
    monkeypatch.setattr(driver, "proves_optimal", lambda *args: False)


def test_gap_below_one_proves_nothing_on_fractional_data(monkeypatch):
    """With f and beta of 6-0.8-3-0 divided by 100, lbound's bound lies
    within one of vfh's incumbent but is no proof: vfh goes on to
    relax-and-fix passes, and only a pass's cutoff proves the incumbent.
    A vfhlb run whose vfh stops at lbound's bound runs every perturbation
    iteration, as on an open gap, and ends on the optimum."""
    inst = generate_instance(6, 0.8, 3, 0)
    edges = tuple(replace(e, f=e.f / 100, beta=e.beta / 100) for e in inst.edges)
    scaled = replace(inst, edges=edges)
    assert not scaled.is_integer_data()
    opt = solve_exact(scaled).cost
    bounding = heuristics.lbound(scaled).value
    res = heuristics.vfh(scaled, SolverConfig().gamma, rng=1)
    assert res.solution.cost - bounding < 1
    assert not heuristics.proves_optimal(scaled, res.solution.cost, bounding)
    assert heuristics.proves_optimal(scaled, res.solution.cost, res.lower_bound)
    assert bounding < res.lower_bound <= opt
    relax_and_fix = driver.vfh

    def stopped_at_bounding(*args, **kwargs):
        # the same draws from the run's generator, with lbound's bound only
        return replace(relax_and_fix(*args, **kwargs), lower_bound=bounding)

    monkeypatch.setattr(driver, "vfh", stopped_at_bounding)
    sol, rec = vfhlb(scaled, SolverConfig(seed=1))
    assert rec.lower_bound == bounding
    assert len(rec.trajectory) == 2 + SolverConfig().iterations == 12
    assert abs(sol.cost - opt) <= 1e-9
    assert rec.lower_bound <= opt
    assert verify_bilevel(scaled, sol).passed


def test_no_commodities_is_proven_empty():
    """With no commodities the empty design is optimal: vfh returns it at
    cost 0 with bound 0, and vfhlb stops after vfh."""
    inst = generate_instance(6, 0.8, 3, 0)
    empty = replace(inst, commodities=())
    res = driver.vfh(empty, 0.85, rng=1)
    assert (res.solution.cost, res.lower_bound) == (0.0, 0.0)
    assert not res.solution.y.any() and res.solution.x.shape == (0, 2 * inst.num_edges)
    sol, rec = vfhlb(empty, SolverConfig(seed=1))
    assert (rec.cost, rec.lower_bound, rec.status) == (0.0, 0.0, "ok")
    assert len(rec.trajectory) == 1


def test_failed_relaxation_falls_back_to_the_construction(monkeypatch):
    """When lbound raises, its root relaxation having failed, vfh returns
    the constructive design with the trivial bound 0, and vfhlb searches on
    from it to a design that passes verify_bilevel."""
    inst = generate_instance(6, 0.8, 3, 0)

    def failed(*args, **kwargs):
        raise RuntimeError("relaxation solve failed: iteration-limit")

    monkeypatch.setattr(heuristics, "lbound", failed)
    construction = heuristics.partial_decoupling(inst, 0.85, rng=1)
    res = heuristics.vfh(inst, 0.85, rng=1)
    assert res.lower_bound == 0.0
    assert res.solution.cost == construction.cost
    assert np.array_equal(res.solution.y, construction.y) and np.array_equal(res.solution.x, construction.x)
    sol, rec = vfhlb(inst, SolverConfig(seed=1))
    assert rec.lower_bound == 0.0 and sol.cost <= construction.cost
    assert verify_bilevel(inst, sol).passed


def test_runs_match_oracle_smoke():
    for seed in range(5):
        inst = generate_instance(6, 0.7, 2, seed=seed)
        exact = solve_exact(inst)
        sol, rec = vfhlb(inst, SolverConfig(seed=seed))
        assert sol.cost >= exact.cost
        assert rec.lower_bound <= exact.cost
        assert verify_bilevel(inst, sol).passed


def test_trajectory_monotone_and_bound_sane():
    inst = generate_instance(8, 0.6, 4, seed=3)
    sol, rec = vfhlb(inst, SolverConfig(seed=3))
    costs = [c for c, _ in rec.trajectory]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert rec.cost == costs[-1]
    assert rec.lower_bound <= rec.cost
    assert rec.gap == rec.cost - rec.lower_bound >= 0


def test_deterministic_given_seed():
    inst = generate_instance(7, 0.6, 3, seed=11)
    a_sol, a_rec = vfhlb(inst, SolverConfig(seed=5))
    b_sol, b_rec = vfhlb(inst, SolverConfig(seed=5))
    assert a_sol.cost == b_sol.cost
    assert np.array_equal(a_sol.y, b_sol.y)
    assert np.array_equal(a_sol.x, b_sol.x)
    assert a_rec.lower_bound == b_rec.lower_bound
    assert [c for c, _ in a_rec.trajectory] == [c for c, _ in b_rec.trajectory]


def test_time_limit_returns_feasible_flagged():
    inst = generate_instance(8, 0.7, 4, seed=2)
    sol, rec = vfhlb(inst, SolverConfig(seed=2, time_limit=1e-4))
    assert verify_bilevel(inst, sol).passed
    # with the budget gone before the loop the run is flagged
    if rec.gap >= 1:
        assert rec.status == "time-limit"


def test_time_limit_is_one_deadline_for_the_whole_run():
    """Bounding, relax-and-fix and local branching all stop at the deadline,
    inside their simplex runs too, root relaxations included."""
    inst = generate_instance(15, 0.25, 8, 1)
    t0 = time.monotonic()
    sol, rec = vfhlb(inst, SolverConfig(seed=1, time_limit=0.5))
    assert time.monotonic() - t0 <= 0.75
    assert verify_bilevel(inst, sol).passed


@st.composite
def oracle_instances(draw):
    """Instances the oracle enumerates: 5-7 nodes, at most 14 edges."""
    n = draw(st.integers(5, 7))
    density = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8]))
    inst = generate_instance(n, density, draw(st.integers(1, 3)), seed=draw(st.integers(0, 10_000)))
    assume(inst.num_edges <= 14)
    return inst


def check_bounds(inst, limit):
    """The bound lies between the root relaxation and the optimum, and the
    design is feasible and no cheaper than the optimum. Only a deadline
    that cuts the root relaxation itself leaves the bound below the root:
    then the run is flagged, and the bound is still at least that of the
    start basis the cut root's dual simplex began from."""
    root = solve_lp(build_model(inst, compute_big_m(inst)))
    opt = solve_exact(inst).cost
    sol, rec = vfhlb(inst, SolverConfig(seed=1, time_limit=limit))
    assert rec.lower_bound <= opt <= sol.cost
    if rec.lower_bound < root.objective - 1e-6:
        assert rec.status == "time-limit"
        assert rec.lower_bound >= tree_bound(inst)
    assert verify_bilevel(inst, sol).passed


def test_cut_root_keeps_its_bound():
    """A limit that has passed before bounding starts cuts lbound's root
    relaxation at its first pivot, on the start basis. That basis is dual
    feasible, so its bound, every commodity on its shortest path by unit
    cost, is kept: on 8-0.6-4-1 lbound returns 220 with the root's status
    instead of raising, and vfhlb reports it, below the oracle optimum
    801, on a run flagged time-limit."""
    inst = generate_instance(8, 0.6, 4, 1)
    cut = heuristics.lbound(inst, deadline=time.monotonic() - 1.0)
    assert (cut.value, cut.solution, cut.iterations, cut.status) == (220.0, None, 0, "iteration-limit")
    sol, rec = vfhlb(inst, SolverConfig(seed=1, time_limit=1e-6))
    assert tree_bound(inst) == 220.0 <= rec.lower_bound <= solve_exact(inst).cost == 801.0 <= sol.cost
    assert rec.status == "time-limit"
    assert verify_bilevel(inst, sol).passed


@given(inst=oracle_instances(), limit=st.sampled_from([None, 1e-3, 0.01, 0.05]))
def test_bounds_hold_under_a_time_limit(inst, limit):
    check_bounds(inst, limit)


class Ticks:
    """A clock that moves on by one at every read, so that a deadline falls
    at the same pivot of the same simplex run however fast the machine."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


def ticking(monkeypatch) -> Ticks:
    """A Ticks clock in place of ``time`` in every module that reads the clock."""
    clock = Ticks()
    for module in (driver, heuristics, milp):
        monkeypatch.setattr(module, "time", clock)
    return clock


def test_bounds_hold_wherever_the_deadline_falls(monkeypatch):
    """A deadline at every one of the run's clock reads in turn: in
    construction, between B&B nodes, inside dual simplex runs.
    The bounds hold wherever it falls."""
    inst = generate_instance(6, 0.8, 2, 335)
    clock = ticking(monkeypatch)
    vfhlb(inst, SolverConfig(seed=1))
    reads = int(clock.now)
    cut = []  # per dual simplex run: did the deadline end it
    solve = milp._Simplex.solve

    def watched(self):
        status = solve(self)
        cut.append(status == milp.STATUS_ITERATION_LIMIT and clock.now >= self.deadline)
        return status

    monkeypatch.setattr(milp._Simplex, "solve", watched)
    for ticks in range(1, reads + 1):
        clock.now = 0.0
        check_bounds(inst, float(ticks))
    assert sum(cut) >= 10


@pytest.mark.parametrize("refused", [False, True], ids=["proofs-kept", "proofs-refused"])
def test_cut_run_without_proof_reports_time_limit(monkeypatch, refused):
    """A deadline at every clock read after the first of a run that vfh
    proves when it has no limit. A run that the deadline cuts and that ends
    without a proof reports ``time-limit``; one that still ends proven
    reports ``ok``. With proofs refused the search loop runs to its end, so
    the deadline also falls in its last round and after it."""
    if refused:
        refuse_proofs(monkeypatch)
    inst = generate_instance(6, 0.8, 2, 335)
    clock = ticking(monkeypatch)
    _, rec = vfhlb(inst, SolverConfig(seed=1))
    assert (rec.gap, rec.status) == (0.0, "ok")
    reads = int(clock.now)
    ends = set()
    for ticks in range(1, reads):  # the deadline t0 + ticks is at or before the last read
        clock.now = 0.0
        _, rec = vfhlb(inst, SolverConfig(seed=1, time_limit=float(ticks)))
        proven = driver.proves_optimal(inst, rec.cost, rec.lower_bound)
        assert rec.status == ("ok" if proven else "time-limit"), ticks
        ends.add(proven)
    assert ends == ({False} if refused else {False, True})


# instances tried in order, with proofs refused; each test below runs
# on the first one where its premise holds and fails if none does, so that a
# kernel change that moves the premise off every candidate cannot make the
# test pass vacuously. Every candidate gives the same call counts, cost and
# bound with one or two BLAS threads and under OpenBLAS's SkylakeX, Haswell,
# Sandybridge and Prescott kernels; 9-0.4-4-4, 8-0.6-4-1 and 7-0.65-3-5 are
# left out because they do not (lbound proves 9-0.4-4-4 under five of those
# settings but leaves relax-and-fix to prove it under two SkylakeX threads,
# and proves 8-0.6-4-1 in two passes or three, depending on how the
# simplex's matrix products round)
CANDIDATES = [(8, 0.5, 4, 2), (6, 0.8, 3, 0), (6, 0.8, 3, 25), (8, 0.5, 4, 1)]


def test_local_branching_not_repeated_on_unchanged_incumbent(monkeypatch):
    """When every ejection cycle returns its input, only the first
    local-branching search runs; each iteration still records a cost. vfh
    proves every candidate, so proofs are refused to make the loop run."""
    refuse_proofs(monkeypatch)
    calls = []
    unchanged = []  # per ejection cycle: did it return its input?
    real_search, real_cycle = driver.local_branching, driver.ejection_cycle

    def counted(*args, **kwargs):
        calls.append(1)
        return real_search(*args, **kwargs)

    def watched(inst, sol, *args, **kwargs):
        out = real_cycle(inst, sol, *args, **kwargs)
        unchanged.append(out is sol)
        return out

    monkeypatch.setattr(driver, "local_branching", counted)
    monkeypatch.setattr(driver, "ejection_cycle", watched)
    for case in CANDIDATES:
        calls.clear()
        unchanged.clear()
        _, rec = vfhlb(generate_instance(*case), SolverConfig(seed=1))
        # premise: the loop runs, and no ejection cycle changes the incumbent
        if unchanged and all(unchanged):
            break
    else:
        pytest.fail("no candidate has every ejection cycle returning its input")
    assert len(calls) == 1
    assert len(rec.trajectory) == 2 + SolverConfig().iterations == 12
    assert len(unchanged) == SolverConfig().iterations


def test_local_branching_starts_from_a_changed_perturbation(monkeypatch):
    """When every ejection cycle returns a new Solution, every round's local
    branching starts from it. Proofs are refused to make the loop run."""
    refuse_proofs(monkeypatch)
    perturbed: list[Solution] = []
    starts: list[Solution] = []

    def new_solution(inst, sol, gamma, rng=None):
        perturbed.append(replace(sol, y=sol.y.copy(), x=sol.x.copy()))
        return perturbed[-1]

    search = driver.local_branching

    def recorded(inst, sol, delta, **kwargs):
        starts.append(sol)
        return search(inst, sol, delta, **kwargs)

    monkeypatch.setattr(driver, "ejection_cycle", new_solution)
    monkeypatch.setattr(driver, "local_branching", recorded)
    _, rec = vfhlb(generate_instance(6, 0.8, 3, 0), SolverConfig(seed=1))
    assert len(perturbed) == SolverConfig().iterations == 10
    assert len(starts) == 1 + len(perturbed)
    assert all(start is new for start, new in zip(starts[1:], perturbed))
    assert len(rec.trajectory) == 12


def test_cold_starts_counted(monkeypatch):
    """Only a root LP starts cold: B&B children start from their parent's
    basis, a B&B, always seeded with its root, starts nothing cold, the
    high-point relaxation's root is solved once for bounding and the
    unfixed full root once for relax-and-fix, also after reduced-cost
    fixing closed edges. Runs on the first candidate with every kind of
    start: lbound passes that do not prove optimality, reduced-cost fixing
    that closes an edge, and local branching, which runs only because
    proofs are refused: vfh proves every candidate."""
    refuse_proofs(monkeypatch)
    roots = {}  # the unfixed high-point relaxation and full model
    cold: list[str] = []  # one entry per cold start: which unfixed root, or "other"
    init = milp._Simplex.__init__

    def counted_init(self, model, lb, ub, iter_limit):
        unfixed = [
            name
            for name, fresh in roots.items()
            if len(model.rows) == len(fresh.rows)
            and np.array_equal(lb, fresh.lb)
            and np.array_equal(ub, fresh.ub)
        ]
        cold.append(unfixed[0] if unfixed else "other")
        init(self, model, lb, ub, iter_limit)

    # (seeded with root=, given a cutoff, cold starts inside)
    bnb_starts: list[tuple[bool, bool, int]] = []
    bnb = heuristics.solve_bnb

    def counted_bnb(model, binary, **kwargs):
        before = len(cold)
        res = bnb(model, binary, **kwargs)
        bnb_starts.append((kwargs.get("root") is not None, kwargs.get("cutoff") is not None, len(cold) - before))
        return res

    lp_calls = []
    lp = heuristics.solve_lp

    def counted_lp(model, **kwargs):
        lp_calls.append(1)
        return lp(model, **kwargs)

    fixed: list[list[int]] = []  # the edges each vfh run closes
    relax_and_fix = driver.vfh

    def kept_vfh(*args, **kwargs):
        res = relax_and_fix(*args, **kwargs)
        fixed.append(res.fixed_edges)
        return res

    bounding = []
    lbound = heuristics.lbound

    def kept_lbound(*args, **kwargs):
        bounding.append(lbound(*args, **kwargs))
        return bounding[-1]

    searches = []
    search = driver.local_branching

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(milp._Simplex, "__init__", counted_init)
    monkeypatch.setattr(heuristics, "solve_bnb", counted_bnb)
    monkeypatch.setattr(heuristics, "solve_lp", counted_lp)
    monkeypatch.setattr(heuristics, "lbound", kept_lbound)
    monkeypatch.setattr(driver, "local_branching", counted_search)
    monkeypatch.setattr(driver, "vfh", kept_vfh)
    for case in CANDIDATES:
        for seen in (cold, bnb_starts, lp_calls, bounding, searches, fixed):
            seen.clear()
        inst = generate_instance(*case)
        roots["hpr"] = build_model(inst, compute_big_m(inst), optimality=False)
        roots["full"] = build_model(inst, compute_big_m(inst))
        vfhlb(inst, SolverConfig(seed=1))
        passes = bounding[0].iterations
        if passes and bounding[0].solution is None and fixed[0] and searches:
            break
    else:
        pytest.fail("no candidate has lbound passes, reduced-cost fixing and local branching")
    # the counts below are the ones this instance takes; a kernel change
    # that picks another candidate must re-derive them, not loosen them
    assert case == (6, 0.8, 3, 0)
    assert (passes, len(searches), fixed) == (1, 1, [[2]])
    # one lbound pass, seeded with the HPR root, and two vfh passes, seeded
    # with the full root, the second after reduced-cost fixing, then the
    # one local-branching B&B, seeded with the root local branching solved
    assert bnb_starts == [(True, False, 0)] + [(True, True, 0)] * 3
    # the HPR root and the full root once each, then the local-branching root
    assert cold == ["hpr", "full", "other"]
    assert len(lp_calls) == 3


def test_record_round_trip():
    rec = RunRecord(seed=1, cost=10.0, lower_bound=9.0, gap=1.0,
                    trajectory=[(10.0, 0.1)], wall_time_s=0.2)
    data = rec.to_dict()
    assert data["seed"] == 1
    assert data["trajectory"] == [[10.0, 0.1]]
