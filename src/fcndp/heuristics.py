"""Construction, bounding, variable fixing, local branching and perturbation.

One construction sweep (``_sweeps``) serves two callers: ``partial_decoupling``
routes every commodity from the empty design under the instance's opening
costs, and ``ejection_cycle`` re-routes only the commodities crossing an
inefficient chain, on top of the edges the others keep open and with the
chain priced out. Both keep the first cheapest of ``SWEEPS`` sweeps.

All randomized choices draw from a single numpy Generator passed by the
caller (an int seed is accepted and wrapped), so every operation is a
deterministic function of (inputs, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Adjacency, dijkstra, extract_path
from .instance import Instance, compute_big_m
from .milp import (
    CUTOFF_SLACK, INTEGRALITY_TOL, STATUS_ITERATION_LIMIT, STATUS_OPTIMAL, solve_bnb, solve_lp
)
from .model import MipModel, add_local_branching_cut, build_model
from .solution import Solution, close_unused_edges

RCVF_SLACK = 1e-6
SWEEPS = 10  # construction sweeps, alpha = 1, 0.9, ..., 0.1


def candidate_list(inst: Instance, pending, gamma: float) -> list[int]:
    """Commodities whose quantity reaches gamma times the largest pending one.

    Never empty: the maximum always qualifies. Returned sorted by id so a
    seeded uniform draw is reproducible.
    """
    pending = sorted(int(k) for k in pending)
    if not pending:
        raise ValueError("no pending commodities")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    top = max(inst.commodities[k].quantity for k in pending)
    return [k for k in pending if inst.commodities[k].quantity >= gamma * top]


def ejection_cost_sentinel(inst: Instance) -> float:
    """Finite stand-in for an infinite opening cost; dominates any design."""
    f_sum = float(inst.edge_array("f").sum())
    flow = float(inst.edge_array("c").sum()) * float(inst.quantity_array().sum() or 1.0)
    return 1e6 * (f_sum + flow)


def _sweeps(inst: Instance, gamma: float, rng, leaders, base_y: np.ndarray, opening: np.ndarray):
    """Yield one closed, re-costed design per sweep, alpha descending from 1.

    A sweep routes the ``leaders`` one by one on top of the design
    ``base_y``, each along a shortest path under the blended cost: the
    ``opening`` cost of every still-closed edge, plus alpha times its
    variable cost, plus 1 - alpha times its length. Then every commodity is
    re-routed by length on the opened network and unused edges close, so
    the yielded cost never includes ``opening``, only the instance's ``f``.
    Sweeps that lay down the same design yield the same ``Solution``, routed
    and closed once.
    """
    E, K = inst.num_edges, inst.num_commodities
    c = inst.edge_array("c")
    beta = inst.edge_array("beta")
    full_adj = Adjacency.from_instance(inst)
    routed: dict[bytes, Solution] = {}  # by the leaders' design
    for step in range(SWEEPS):
        alpha = 1.0 - step / SWEEPS
        y = base_y.copy()
        pending = list(leaders)
        while pending:
            cand = candidate_list(inst, pending, gamma)
            k = cand[int(rng.integers(len(cand)))]
            pending.remove(k)
            com = inst.commodities[k]
            cost = np.where(y == 0, opening, 0.0) + alpha * com.quantity * beta + (1.0 - alpha) * c
            for arc in extract_path(dijkstra(full_adj, com.origin, cost), com.destination):
                y[arc >> 1] = 1
        key = y.tobytes()
        if key not in routed:
            x = np.zeros((K, 2 * E), dtype=np.int8)
            open_adj = Adjacency.from_instance(inst, open_mask=y.astype(bool))
            for k, com in enumerate(inst.commodities):
                x[k, extract_path(dijkstra(open_adj, com.origin, c), com.destination)] = 1
            routed[key] = close_unused_edges(inst, Solution(y, x, 0.0))
        yield routed[key]


def partial_decoupling(inst: Instance, gamma: float, rng=0) -> Solution:
    """Constructive heuristic: the first cheapest of ``SWEEPS`` sweeps that
    leader-route every commodity from the empty design, charging each
    closed edge its fixed cost."""
    rng = np.random.default_rng(rng)
    empty = np.zeros(inst.num_edges, dtype=np.int8)
    sweeps = _sweeps(inst, gamma, rng, range(inst.num_commodities), empty, inst.edge_array("f"))
    return min(sweeps, key=lambda s: s.cost)


def _strengthen_bound(value: float, inst: Instance) -> float:
    # integral costs make every design cost an integer, so a fractional
    # lower bound rounds up; also absorbs simplex float noise at equality
    if inst.is_integer_data():
        return float(math.ceil(value - 1e-6))
    return value


def proves_optimal(inst: Instance, cost: float, bound: float) -> bool:
    """True when ``bound`` proves ``cost`` optimal. On integer data every
    design cost is an integer, so a gap below one is closed; on other data
    the gap must close up to a relative 1e-6."""
    if inst.is_integer_data():
        return abs(cost - bound) < 1
    return cost - bound <= 1e-6 * (1 + abs(cost))


def _design(inst: Instance, model: MipModel, values: np.ndarray) -> Solution | None:
    """The design at a point of ``model`` whose y and x values are integral,
    with its unused edges closed; None at any other point."""
    marked = values[model.integer_ok]
    if np.any(np.abs(marked - np.round(marked)) > INTEGRALITY_TOL):
        return None
    E, K = inst.num_edges, inst.num_commodities
    # close_unused_edges rounds the flows and opens exactly the edges they use
    x = values[E : E + 2 * E * K].reshape(K, 2 * E)
    return close_unused_edges(inst, Solution(values[:E], x, 0.0))


def _routes_shortest(inst: Instance, sol: Solution) -> bool:
    """True when every commodity's route in the integral design ``sol`` is
    a shortest path by length in the design's open network, which makes a
    design of the high-point relaxation bilevel feasible."""
    c = inst.edge_array("c")
    arc_c = np.repeat(c, 2)
    open_adj = Adjacency.from_instance(inst, open_mask=sol.y.astype(bool))
    for k, com in enumerate(inst.commodities):
        best = float(dijkstra(open_adj, com.origin, c).dist[com.destination])
        if float(arc_c @ sol.x[k]) > best + 1e-9 * (1.0 + abs(best)):
            return False
    return True


@dataclass
class LboundResult:
    value: float
    solution: Solution | None  # an integral pass's design, which value proves optimal
    iterations: int
    status: str = STATUS_OPTIMAL  # else the status of the pass that stopped early


def lbound(inst: Instance, *, deadline: float | None = None) -> LboundResult:
    """Progressive-integrality lower bound on the high-point relaxation.

    Re-solves the relaxation while promoting every opening variable at value
    >= 0.5 to binary (within 1e-9, so that a value one half up to rounding
    is promoted whichever way its last bits fall), for at most ceil(0.2 E)
    passes, stopping early on an integral solution, or once more than 90%
    of the opening variables are binary, or when a pass promotes nothing
    new. The root relaxation is solved once, until ``deadline`` (a
    ``time.monotonic()`` value), and seeds every pass.

    The model is the HPR (``build_model(..., optimality=False)``), so every
    pass is a relaxation of the bilevel problem and its objective a valid
    bound. An integral solution, at the root or after a pass, proves its
    design optimal (the result's ``solution``) only when every commodity's
    route is shortest in the design's open network; otherwise bounding stops
    there with that pass's bound and no solution.

    A pass that ends without a proven optimum (budget, or ``deadline``)
    stops the bounding: the result keeps the last valid bound, the
    ceil-rounded root or the last completed pass, with that pass's status.
    A root relaxation cut by the budget or ``deadline`` stopped on a dual
    feasible basis, so the result is its bound (``LpResult.bound``, at
    least the trivial 0, since no cost is negative) with the root's status.
    Raises only when the root relaxation is infeasible.
    """
    model = build_model(inst, compute_big_m(inst), optimality=False)
    root = solve_lp(model, deadline=deadline)
    if root.status == STATUS_ITERATION_LIMIT:
        return LboundResult(_strengthen_bound(max(root.bound, 0.0), inst), None, 0, root.status)
    if root.status != STATUS_OPTIMAL:
        raise RuntimeError(f"relaxation solve failed: {root.status}")
    E = inst.num_edges
    max_iters = math.ceil(0.2 * E)
    binary = np.zeros(model.num_vars, dtype=bool)
    remaining = set(range(E))
    nvbin = 0
    iterations = 0
    res = root
    while True:
        sol = _design(inst, model, res.values)
        if sol is not None:
            if _routes_shortest(inst, sol):
                return LboundResult(sol.cost, sol, iterations)
            break  # a bound, but no design of the bilevel problem
        if iterations >= max_iters or nvbin > 0.9 * E:
            break
        promote = [e for e in sorted(remaining) if res.values[e] >= 0.5 - 1e-9]
        if not promote:
            break  # the same model, mask and root would give the same result
        binary[promote] = True
        remaining -= set(promote)
        nvbin += len(promote)
        last = res
        res = solve_bnb(model, binary, root=root, deadline=deadline)
        iterations += 1
        if res.status != STATUS_OPTIMAL:
            return LboundResult(_strengthen_bound(last.objective, inst), None, iterations, res.status)
    return LboundResult(_strengthen_bound(res.objective, inst), None, iterations)


@dataclass
class VfhResult:
    solution: Solution
    lower_bound: float
    fixed_edges: list[int] = field(default_factory=list)


def vfh(inst: Instance, gamma: float, rng=0, *, deadline: float | None = None) -> VfhResult:
    """Relax-and-fix driver: construction, bounding, then one commodity's
    flow block turns binary per pass under the incumbent cutoff, with
    reduced-cost fixing of closed opening variables after each success.

    Bounding (``lbound``) runs on the high-point relaxation. When it does
    not prove the instance, ``vfh`` builds the full model, whose integral
    points are bilevel feasible, solves its root relaxation once until
    ``deadline`` and seeds every pass with it. Reduced-cost fixing closes
    only edges that sit at 0 in that root, so its basis stays optimal under
    the closed bounds and it is never re-solved. Stops when every block moved, the bound proves the
    incumbent optimal (``proves_optimal``), a pass finds nothing under the
    cutoff, or a pass runs out of budget or reaches ``deadline``. A pass
    that finds nothing under the cutoff is a proof: the bound rises to the
    incumbent's cost (less ``CUTOFF_SLACK`` on other than integer data).
    When bounding or the full root runs out of budget the constructive
    incumbent is returned with the best bound reached, a cut full root's
    own bound included; when the HPR root is infeasible, with the trivial
    bound 0.
    """
    rng = np.random.default_rng(rng)
    s_best = partial_decoupling(inst, gamma, rng=rng)
    try:
        lb_res = lbound(inst, deadline=deadline)
    except RuntimeError:
        # the root relaxation failed: fall back to the constructive
        # incumbent and the trivial bound
        return VfhResult(s_best, 0.0)
    if lb_res.solution is not None:
        return VfhResult(lb_res.solution, lb_res.value)
    min_cost = s_best.cost
    bound = lb_res.value
    if lb_res.status != STATUS_OPTIMAL:
        return VfhResult(s_best, bound)
    model = build_model(inst, compute_big_m(inst))
    lp = solve_lp(model, deadline=deadline)
    if lp.status != STATUS_OPTIMAL:
        return VfhResult(s_best, max(bound, _strengthen_bound(max(lp.bound, 0.0), inst)))
    binary = np.zeros(model.num_vars, dtype=bool)
    pending = list(range(inst.num_commodities))
    fixed_edges: list[int] = []
    while pending and not proves_optimal(inst, min_cost, bound):
        cand = candidate_list(inst, pending, gamma)
        k = cand[int(rng.integers(len(cand)))]
        pending.remove(k)
        binary[model.x_var(k, 0) : model.x_var(k, 2 * inst.num_edges)] = True
        res = solve_bnb(model, binary, root=lp, cutoff=min_cost, deadline=deadline)
        if res.objective == math.inf:
            # cutoff or infeasible: no design costs below the pruning level
            # min_cost - CUTOFF_SLACK, which proves the incumbent optimal;
            # iteration-limit (budget or deadline) with no incumbent proves
            # nothing
            if res.status != STATUS_ITERATION_LIMIT:
                bound = max(bound, _strengthen_bound(min_cost - CUTOFF_SLACK, inst))
            break
        # lp.objective <= res.objective < min_cost, so a closed edge has a
        # positive reduced cost: it is nonbasic at 0 in the root
        y_now = res.values[: inst.num_edges]
        closed = [
            e
            for e in range(inst.num_edges)
            if model.ub[e] != 0.0
            and y_now[e] <= 1e-6
            and lp.objective + lp.reduced_costs[e] > min_cost + RCVF_SLACK
        ]
        model.ub[closed] = 0.0
        fixed_edges += closed
        sol = _design(inst, model, res.values)
        if sol is not None:
            if sol.cost < min_cost:
                s_best = sol
                min_cost = sol.cost
        elif res.status == STATUS_OPTIMAL and res.objective > bound:
            bound = _strengthen_bound(res.objective, inst)
        if res.status == STATUS_ITERATION_LIMIT:
            break
    return VfhResult(s_best, bound, fixed_edges)


def local_branching(
    inst: Instance, sol: Solution, delta: int, *, deadline: float | None = None
) -> Solution:
    """Branch-and-bound restricted to designs within Hamming distance
    ``delta`` of the incumbent design, under its cost as cutoff, from a root
    relaxation solved until ``deadline``. Returns the improvement with its
    unused edges closed (which can take it past ``delta``), or the input
    unchanged, at once if ``deadline`` has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        return sol
    model = build_model(inst, compute_big_m(inst))
    model = add_local_branching_cut(model, sol.y, delta)
    root = solve_lp(model, deadline=deadline)
    res = solve_bnb(model, model.integer_ok, root=root, cutoff=sol.cost, deadline=deadline)
    if res.objective < math.inf:
        out = _design(inst, model, res.values)
        if out is not None and out.cost < sol.cost:
            return out
    return sol


@dataclass
class InefficiencyReport:
    ratios: dict[int, float]  # open edges carrying flow
    average: float
    inefficient: list[int]
    chains: list[list[int]]


def inefficiency_metrics(inst: Instance, sol: Solution, rng=None) -> InefficiencyReport:
    """Cost-per-crossing ratio of every used edge, the edges above average,
    and simple chains of 2..4 such edges grown from random seeds.

    Each chain is a node-simple path; edges join a chain at either endpoint
    and leave the candidate pool when consumed; single-edge chains are
    dropped.
    """
    rng = np.random.default_rng(0 if rng is None else rng)
    E = inst.num_edges
    x = np.round(np.asarray(sol.x)).astype(int)
    y = np.round(np.asarray(sol.y)).astype(int)
    crossings = x.reshape(inst.num_commodities, E, 2).sum(axis=2) if x.size else np.zeros((0, E), dtype=int)
    q = inst.quantity_array()
    beta = inst.edge_array("beta")
    f = inst.edge_array("f")
    ratios: dict[int, float] = {}
    for e in range(E):
        n_e = int(crossings[:, e].sum()) if crossings.size else 0
        if y[e] == 1 and n_e > 0:
            ratios[e] = float((beta[e] * float(q @ crossings[:, e]) + f[e]) / n_e)
    if not ratios:
        return InefficiencyReport({}, 0.0, [], [])
    average = sum(ratios.values()) / len(ratios)
    inefficient = sorted(e for e, r in ratios.items() if r > average)
    chains: list[list[int]] = []
    remaining = list(inefficient)
    while len(remaining) >= 2:
        start = remaining.pop(int(rng.integers(len(remaining))))
        edge = inst.edges[start]
        chain = [start]
        nodes = [edge.u, edge.v]  # path endpoints at positions 0 and -1
        while len(chain) < 4:
            head, tail = nodes[0], nodes[-1]
            options = []
            for cand in remaining:
                ce = inst.edges[cand]
                for a, b in ((ce.u, ce.v), (ce.v, ce.u)):
                    if a == head and b not in nodes:
                        options.append((cand, "head", b))
                    elif a == tail and b not in nodes:
                        options.append((cand, "tail", b))
            if not options:
                break
            pick, side, new_node = options[int(rng.integers(len(options)))]
            remaining.remove(pick)
            if side == "head":
                chain.insert(0, pick)
                nodes.insert(0, new_node)
            else:
                chain.append(pick)
                nodes.append(new_node)
        chains.append(chain)
    chains = [ch for ch in chains if len(ch) >= 2]
    return InefficiencyReport(ratios, average, inefficient, chains)


def ejection_cycle(inst: Instance, sol: Solution, gamma: float, rng=0) -> Solution:
    """Perturbation: price a random inefficient chain out of the design and
    rebuild the routes of the commodities crossing it; accept ties or
    improvements, otherwise keep the input."""
    rng = np.random.default_rng(rng)
    chains = inefficiency_metrics(inst, sol, rng=rng).chains
    if not chains:
        return sol
    chain = chains[int(rng.integers(len(chains)))]
    # commodities crossing the chain are rebuilt on top of the edges the
    # others use, which stay open
    crossing = np.asarray(sol.x).reshape(inst.num_commodities, inst.num_edges, 2).sum(axis=2) > 0
    on_chain = crossing[:, chain].any(axis=1)
    base_y = crossing[~on_chain].any(axis=0).astype(np.int8)
    opening = inst.edge_array("f")
    opening[chain] = ejection_cost_sentinel(inst)
    sweeps = _sweeps(inst, gamma, rng, np.flatnonzero(on_chain).tolist(), base_y, opening)
    rebuilt = min(sweeps, key=lambda s: s.cost)
    return rebuilt if rebuilt.cost <= sol.cost else sol
