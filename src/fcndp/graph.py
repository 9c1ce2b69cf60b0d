"""Adjacency views and the shortest-path kernels used by every solver stage.

Arcs are the bidirected edges: arc ``2e`` runs u->v of edge ``e`` and arc
``2e + 1`` runs v->u, so ``arc ^ 1`` is the reverse arc and ``arc >> 1`` the
edge index. Weights are always given per edge (both directions share them).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance

NO_ARC = -1


@dataclass(frozen=True)
class Adjacency:
    """Per-node outgoing arc lists for an instance, optionally masked to open edges."""

    nodes: int
    num_edges: int
    out: tuple[tuple[tuple[int, int], ...], ...]  # per node: (arc id, head)

    @classmethod
    def from_instance(cls, inst: Instance, open_mask=None) -> "Adjacency":
        lists: list[list[tuple[int, int]]] = [[] for _ in range(inst.nodes)]
        for e, edge in enumerate(inst.edges):
            if open_mask is not None and not open_mask[e]:
                continue
            lists[edge.u].append((2 * e, edge.v))
            lists[edge.v].append((2 * e + 1, edge.u))
        return cls(inst.nodes, inst.num_edges, tuple(tuple(l) for l in lists))


def arc_endpoints(inst: Instance, arc: int) -> tuple[int, int]:
    edge = inst.edges[arc >> 1]
    return (edge.u, edge.v) if arc % 2 == 0 else (edge.v, edge.u)


@dataclass
class PathResult:
    """Single-source shortest-path tree; ``reached`` is the authoritative flag.

    ``dist`` holds +inf for unreached nodes, but callers should branch on
    ``reached`` rather than compare against the float sentinel.
    """

    source: int
    dist: np.ndarray
    pred_arc: np.ndarray
    pred_node: np.ndarray
    reached: np.ndarray


def dijkstra(adj: Adjacency, source: int, weights) -> PathResult:
    """Exact single-source shortest paths under nonnegative per-edge weights.

    Heap keys are (distance, node id), so ties settle the lowest node id
    first and runs are reproducible.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (adj.num_edges,):
        raise ValueError(f"expected {adj.num_edges} edge weights, got {w.shape}")
    if (w < 0).any():
        raise ValueError("negative edge weight")
    # the relaxation runs on Python lists and floats, which add and compare
    # as float64 does, and the result becomes arrays once at the end
    w = w.tolist()
    out = adj.out
    dist = [math.inf] * adj.nodes
    pred_arc = [NO_ARC] * adj.nodes
    pred_node = [-1] * adj.nodes
    done = [False] * adj.nodes
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for arc, head in out[node]:
            nd = d + w[arc >> 1]
            if nd < dist[head]:
                dist[head] = nd
                pred_arc[head] = arc
                pred_node[head] = node
                heapq.heappush(heap, (nd, head))
    return PathResult(
        source,
        np.array(dist),
        np.array(pred_arc, dtype=int),
        np.array(pred_node, dtype=int),
        np.array(done, dtype=bool),
    )


def extract_path(pr: PathResult, target: int) -> list[int]:
    """Arc ids of the source->target path; empty when target is the source."""
    if not pr.reached[target]:
        raise ValueError(f"node {target} unreached from {pr.source}")
    arcs: list[int] = []
    node = target
    while node != pr.source:
        arcs.append(int(pr.pred_arc[node]))
        node = int(pr.pred_node[node])
        if len(arcs) > len(pr.dist):
            raise RuntimeError("predecessor chain is cyclic")
    arcs.reverse()
    return arcs


def shortest_path_dag(adj: Adjacency, o: int, d: int, weights) -> set[int]:
    """Arcs lying on at least one shortest o->d path.

    Arc (i,j) of edge e qualifies iff dist_o(i) + w_e + dist_d(j) equals the
    shortest o->d distance. Acyclic whenever weights are strictly positive.
    """
    w = np.asarray(weights, dtype=float)
    from_o = dijkstra(adj, o, w)
    if not from_o.reached[d]:
        raise ValueError(f"node {d} unreachable from {o}")
    from_d = dijkstra(adj, d, w)
    best = from_o.dist[d]
    tol = 1e-9 * (1.0 + abs(best))
    arcs: set[int] = set()
    for node in range(adj.nodes):
        for arc, head in adj.out[node]:
            if not (from_o.reached[node] and from_d.reached[head]):
                continue
            if abs(from_o.dist[node] + w[arc >> 1] + from_d.dist[head] - best) <= tol:
                arcs.add(arc)
    return arcs
