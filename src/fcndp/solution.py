"""Solution values, leader-cost evaluation, bilevel verification and cleanup.

A solution stores the open-edge indicator vector ``y`` (length E) and one
directed arc-indicator row per commodity ``x`` (shape K x 2E, arc layout as
in :mod:`fcndp.graph`). Solutions are value objects: every operation returns
a fresh one.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .graph import Adjacency, arc_endpoints, dijkstra, extract_path
from .instance import Instance


BINARY_TOL = 1e-6


@dataclass
class Solution:
    y: np.ndarray  # (E,) 0/1
    x: np.ndarray  # (K, 2E) 0/1
    cost: float

    def open_edges(self) -> list[int]:
        return [int(e) for e in np.flatnonzero(self.y)]


def arc_unit_costs(inst: Instance, k: int) -> np.ndarray:
    """Variable cost of commodity k on every arc: quantity times edge beta."""
    beta = inst.edge_array("beta")
    return inst.commodities[k].quantity * np.repeat(beta, 2)


def evaluate_cost(inst: Instance, y, x) -> float:
    """Fixed cost of open edges plus variable cost of all routed flow."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    total = float(np.dot(inst.edge_array("f"), y))
    for k in range(inst.num_commodities):
        total += float(np.dot(arc_unit_costs(inst, k), x[k]))
    return total


@dataclass
class Violation:
    constraint: str  # flow-conservation | closed-edge | shortest-path | binary
    commodity: int | None
    detail: str


@dataclass
class FeasibilityReport:
    passed: bool
    violations: list[Violation]


def verify_bilevel(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Check flow conservation, open-edge usage and follower optimality.

    A PASS means every commodity's flow is a unit o->d flow on open edges
    whose length equals the shortest open-network distance, recomputed here
    with an independent Dijkstra pass.
    """
    violations: list[Violation] = []
    y = np.asarray(sol.y)
    x = np.asarray(sol.x)
    for arr, label in ((y, "y"), (x, "x")):
        off = np.abs(arr - np.round(arr))
        if np.any(off > BINARY_TOL):
            violations.append(Violation("binary", None, f"{label} has fractional entries"))
    yb = np.round(y).astype(int)
    xb = np.round(x).astype(int)
    c = inst.edge_array("c")
    open_adj = Adjacency.from_instance(inst, open_mask=yb.astype(bool))
    for k, com in enumerate(inst.commodities):
        flow = xb[k]
        used = np.flatnonzero(flow)
        for arc in used:
            e = int(arc) >> 1
            if flow[int(arc)] + flow[int(arc) ^ 1] > yb[e]:
                violations.append(
                    Violation("closed-edge", k, f"flow on closed or doubly-used edge {e}")
                )
        balance = np.zeros(inst.nodes, dtype=int)
        for arc in used:
            tail, head = arc_endpoints(inst, int(arc))
            balance[tail] += flow[int(arc)]
            balance[head] -= flow[int(arc)]
        want = np.zeros(inst.nodes, dtype=int)
        want[com.origin] += 1
        want[com.destination] -= 1
        bad = np.flatnonzero(balance != want)
        if bad.size:
            violations.append(
                Violation("flow-conservation", k, f"imbalance at nodes {bad.tolist()}")
            )
            continue
        pr = dijkstra(open_adj, com.origin, c)
        if not pr.reached[com.destination]:
            violations.append(
                Violation("shortest-path", k, "destination unreachable in open network")
            )
            continue
        path_len = float(np.dot(np.repeat(c, 2), flow))
        best = float(pr.dist[com.destination])
        tol = 0.0 if inst.is_integer_data() else 1e-9 * (1.0 + abs(best))
        if path_len > best + tol:
            violations.append(
                Violation(
                    "shortest-path",
                    k,
                    f"routed length {path_len} exceeds shortest open distance {best}",
                )
            )
    return FeasibilityReport(not violations, violations)


def close_unused_edges(inst: Instance, sol: Solution) -> Solution:
    """Close every open edge carrying no flow in either direction; re-cost.

    Idempotent and never increases cost. Follower paths stay shortest: only
    unused alternatives disappear.
    """
    x = np.round(np.asarray(sol.x)).astype(np.int8)
    per_edge = x.sum(axis=0).reshape(-1, 2).sum(axis=1) if x.size else np.zeros(inst.num_edges, dtype=int)
    y = ((per_edge > 0)).astype(np.int8)
    cost = evaluate_cost(inst, y, x)
    return replace(sol, y=y, x=x.copy(), cost=cost)


def follower_paths(inst: Instance, sol: Solution) -> dict[int, list[int]]:
    """Node sequence of each commodity's routed path, walked from the flows."""
    paths: dict[int, list[int]] = {}
    for k, com in enumerate(inst.commodities):
        flow = np.round(np.asarray(sol.x[k])).astype(int)
        nxt: dict[int, int] = {}
        for arc in np.flatnonzero(flow):
            tail, head = arc_endpoints(inst, int(arc))
            if tail in nxt:
                raise ValueError(f"commodity {k} flow is not a simple path")
            nxt[tail] = head
        seq = [com.origin]
        while seq[-1] != com.destination:
            if seq[-1] not in nxt or len(seq) > inst.nodes:
                raise ValueError(f"commodity {k} flow does not reach its destination")
            seq.append(nxt[seq[-1]])
        paths[k] = seq
    return paths


def solution_to_dict(
    inst: Instance,
    sol: Solution,
    *,
    lower_bound: float = float("nan"),
    seed: int = 0,
    wall_time_s: float = 0.0,
) -> dict:
    cost = float(sol.cost)
    lb = float(lower_bound)
    return {
        "cost": cost,
        "lower_bound": lb,
        "open_edges": sol.open_edges(),
        "paths": {str(k): seq for k, seq in follower_paths(inst, sol).items()},
        "gap": cost - lb,
        "wall_time_s": float(wall_time_s),
        "seed": int(seed),
    }


def solution_to_json(inst: Instance, sol: Solution, **kwargs) -> str:
    return json.dumps(solution_to_dict(inst, sol, **kwargs), indent=2, sort_keys=True)


def _id(value, size: int, what: str) -> int:
    """``value`` as an id in [0, size); raises ValueError on a non-int
    (bools and floats included) or an id outside that range."""
    if type(value) is not int:
        raise ValueError(f"{what} id {value!r} is not an integer")
    if not 0 <= value < size:
        raise ValueError(f"{what} id {value} is outside [0, {size})")
    return value


def _of_type(value, kind, what: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} does not match the solution schema")
    return value


def solution_from_dict(inst: Instance, data: dict) -> Solution:
    """Rebuild a Solution from the JSON schema (open_edges + node paths);
    raises ValueError on input of another shape or on an edge, commodity or
    node id the instance lacks."""
    _of_type(data, dict, "solution")
    y = np.zeros(inst.num_edges, dtype=np.int8)
    for e in _of_type(data.get("open_edges"), list, "open_edges"):
        y[_id(e, inst.num_edges, "edge")] = 1
    arc_of = {}
    for e, edge in enumerate(inst.edges):
        arc_of[(edge.u, edge.v)] = 2 * e
        arc_of[(edge.v, edge.u)] = 2 * e + 1
    x = np.zeros((inst.num_commodities, 2 * inst.num_edges), dtype=np.int8)
    for key, seq in _of_type(data.get("paths", {}), dict, "paths").items():
        if not (isinstance(key, str) and key.isascii() and key.isdigit()):
            raise ValueError(f"commodity key {key!r} is not a decimal id")
        k = _id(int(key), inst.num_commodities, "commodity")
        nodes = [_id(i, inst.nodes, "node") for i in _of_type(seq, list, f"path of commodity {k}")]
        for pair in zip(nodes, nodes[1:]):
            if pair not in arc_of:
                raise ValueError(f"path of commodity {k} uses missing edge {pair}")
            x[k, arc_of[pair]] = 1
    cost = _of_type(data.get("cost"), (int, float), "cost")
    if not abs(cost) <= sys.float_info.max:  # NaN, infinities and ints no float holds
        raise ValueError(f"cost {cost} is not a finite float")
    return Solution(y, x, float(cost))
