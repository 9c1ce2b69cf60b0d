"""Exact reference solver: exhaustive enumeration over open-edge subsets.

For every design the follower distance of each commodity is computed with a
batched Floyd-Warshall over lexicographic weights length-first, then
variable cost, which resolves ties among shortest paths in the leader's
favor. Ground truth for all desk-scale tests; quadratic memory per chunk,
exponential in the edge count overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Adjacency, dijkstra, extract_path
from .instance import Instance
from .solution import Solution, evaluate_cost


@dataclass
class OracleResult:
    cost: float
    y: np.ndarray
    x: np.ndarray
    feasible_designs: int


def _lex_weights(inst: Instance, k: int) -> tuple[np.ndarray, float]:
    """Per-edge weight c*G + g with G bounding any path's variable cost, so
    minimizing the combined weight minimizes (length, variable cost)
    lexicographically. Exact in float64 for integer-sized data."""
    c = inst.edge_array("c")
    g = inst.commodities[k].quantity * inst.edge_array("beta")
    gap = float(g.sum()) + 1.0
    return c * gap + g, gap


def solve_exact(inst: Instance, limit: int = 20, *, chunk_bits: int = 16) -> OracleResult:
    """Global optimum by enumerating all 2^E designs (E <= limit).

    Ties in total cost break to the lexicographically smallest design
    vector, independent of chunking.
    """
    E, K, V = inst.num_edges, inst.num_commodities, inst.nodes
    if E > limit:
        raise ValueError(f"instance has {E} edges, enumeration limit is {limit}")
    if not all(float(e.c).is_integer() for e in inst.edges):
        # the combined weight only splits back into (length, variable cost)
        # when lengths are integral
        raise ValueError("exact enumeration requires integer edge lengths")
    f = inst.edge_array("f")
    weights = [_lex_weights(inst, k) for k in range(K)]
    n_designs = 1 << E
    chunk = min(1 << chunk_bits, n_designs)
    us = np.array([e.u for e in inst.edges], dtype=int)
    vs = np.array([e.v for e in inst.edges], dtype=int)

    best_cost = math.inf
    best_masks: list[int] = []
    feasible_count = 0
    for start in range(0, n_designs, chunk):
        masks = np.arange(start, min(start + chunk, n_designs), dtype=np.int64)
        open_bits = ((masks[:, None] >> np.arange(E)) & 1).astype(bool)
        total = open_bits @ f
        feasible = np.ones(masks.size, dtype=bool)
        for k, com in enumerate(inst.commodities):
            w, gap = weights[k]
            dist = np.full((masks.size, V, V), math.inf)
            dist[:, np.arange(V), np.arange(V)] = 0.0
            for e in range(E):
                col = np.where(open_bits[:, e], w[e], math.inf)
                dist[:, us[e], vs[e]] = col
                dist[:, vs[e], us[e]] = col
            for via in range(V):
                np.minimum(
                    dist,
                    dist[:, :, via, None] + dist[:, via, None, :],
                    out=dist,
                )
            lex = dist[:, com.origin, com.destination]
            reached = np.isfinite(lex)
            feasible &= reached
            total = total + np.mod(np.where(reached, lex, 0.0), gap)
        total = np.where(feasible, total, math.inf)
        feasible_count += int(feasible.sum())
        if not np.any(feasible):
            continue
        chunk_min = float(total.min())
        if chunk_min > best_cost:
            continue
        tied = min(
            (int(m) for m in masks[total == chunk_min]),
            key=lambda m: _design_key(m, E),
        )
        if chunk_min < best_cost:
            best_cost = chunk_min
            best_masks = [tied]
        else:
            best_masks.append(tied)

    if not best_masks:
        raise ValueError("no feasible design: some commodity is disconnected")
    best_mask = min(best_masks, key=lambda m: _design_key(m, E))
    y = np.array([(best_mask >> e) & 1 for e in range(E)], dtype=np.int8)
    x = np.zeros((K, 2 * E), dtype=np.int8)
    adj = Adjacency.from_instance(inst, open_mask=y.astype(bool))
    for k, com in enumerate(inst.commodities):
        pr = dijkstra(adj, com.origin, weights[k][0])
        x[k, extract_path(pr, com.destination)] = 1
    return OracleResult(best_cost, y, x, feasible_count)


def _design_key(mask: int, num_edges: int) -> tuple[int, ...]:
    return tuple((mask >> e) & 1 for e in range(num_edges))


def oracle_solution(inst: Instance, res: OracleResult) -> Solution:
    cost = evaluate_cost(inst, res.y, res.x)
    return Solution(res.y.copy(), res.x.copy(), cost)
