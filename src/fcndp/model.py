"""Sparse assembly of the one-level design/routing MIP.

Variables, in id order: one opening indicator ``y_e`` per edge, one flow
indicator ``x`` per commodity and arc, and one shortest-distance potential
``pi`` per commodity and node (the destination's potential is fixed to 0
through its bounds). Rows: per-commodity flow conservation (equalities),
flow/opening coupling, and the lifted big-M optimality rows that force every
routed path to be shortest in the open network, one per arc direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .instance import Instance

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="


@dataclass
class Row:
    cols: np.ndarray
    coefs: np.ndarray
    sense: str
    rhs: float
    name: str = ""


@dataclass
class MipModel:
    num_vars: int
    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    kinds: list[str]  # "y" | "x" | "pi"
    integer_ok: np.ndarray  # bool mask: y and x variables
    rows: list[Row]
    num_edges: int
    num_commodities: int
    num_nodes: int

    def y_var(self, e: int) -> int:
        return e

    def x_var(self, k: int, arc: int) -> int:
        return self.num_edges + 2 * self.num_edges * k + arc

    def pi_var(self, k: int, node: int) -> int:
        return self.num_edges * (1 + 2 * self.num_commodities) + self.num_nodes * k + node

    def y_values(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values)[: self.num_edges]

    def x_values(self, values: np.ndarray, k: int) -> np.ndarray:
        start = self.x_var(k, 0)
        return np.asarray(values)[start : start + 2 * self.num_edges]


def build_model(inst: Instance, big_m: np.ndarray) -> MipModel:
    E, K, V = inst.num_edges, inst.num_commodities, inst.nodes
    num_vars = E + 2 * E * K + V * K
    kinds = ["y"] * E + ["x"] * (2 * E * K) + ["pi"] * (V * K)
    c = inst.edge_array("c")
    big_m = np.asarray(big_m, dtype=float)
    ks = np.arange(K)
    es = np.arange(E)
    # by commodity and edge, the id of the forward arc's x (the reverse
    # arc's is the next id), and by commodity the id of node 0's pi
    x_fwd = E + 2 * E * ks[:, None] + 2 * es
    pi_0 = E * (1 + 2 * K) + V * ks

    obj = np.zeros(num_vars)
    obj[:E] = inst.edge_array("f")
    obj[E : E + 2 * E * K] = np.repeat(np.outer(inst.quantity_array(), inst.edge_array("beta")), 2)
    lb = np.zeros(num_vars)
    ub = np.ones(num_vars)
    ub[E + 2 * E * K :] = float(c.sum())
    ub[pi_0 + np.array([com.destination for com in inst.commodities], dtype=int)] = 0.0
    model = MipModel(
        num_vars=num_vars,
        obj=obj,
        lb=lb,
        ub=ub,
        kinds=kinds,
        integer_ok=np.array([k in ("y", "x") for k in kinds]),
        rows=[],
        num_edges=E,
        num_commodities=K,
        num_nodes=V,
    )
    rows = model.rows
    # Every row's cols and coefs are views of one row, or one slice, of an
    # index array and a coefficient array built for all rows of its kind.

    # flow conservation, one row per commodity and node over the node's
    # edges in id order: both arcs' x of each, +1 on the arc out of the
    # node and -1 on the arc into it (an instance has no self-loops)
    u = np.array([edge.u for edge in inst.edges], dtype=int)
    v = np.array([edge.v for edge in inst.edges], dtype=int)
    ends, end_edge = np.concatenate([u, v]), np.concatenate([es, es])
    order = np.lexsort((end_edge, ends))
    inc_edge = end_edge[order]
    sign = np.where(order < E, 1.0, -1.0)  # +1 at the edge's tail u
    starts = [0, *(2 * np.cumsum(np.bincount(ends, minlength=V))).tolist()]
    flow_cols = (x_fwd[:, inc_edge, None] + np.array([0, 1])).reshape(K, 4 * E)
    flow_coefs = np.tile(np.stack([sign, -sign], axis=1).reshape(-1), (K, 1))
    for k, com in enumerate(inst.commodities):
        for i in range(V):
            rhs = 1.0 if i == com.origin else (-1.0 if i == com.destination else 0.0)
            at = slice(starts[i], starts[i + 1])
            rows.append(Row(flow_cols[k, at], flow_coefs[k, at], SENSE_EQ, rhs, f"flow_{k}_{i}"))

    # coupling, one row per commodity and edge: x_k,2e + x_k,2e+1 - y_e <= 0
    couple_cols = np.stack([x_fwd, x_fwd + 1, np.broadcast_to(es, (K, E))], axis=2).reshape(K * E, 3)
    couple_coefs = np.tile([1.0, 1.0, -1.0], (K * E, 1))
    for i, (k, e) in enumerate(itertools.product(range(K), range(E))):
        rows.append(Row(couple_cols[i], couple_coefs[i], SENSE_LE, 0.0, f"couple_{k}_{e}"))

    # optimality, one row per commodity and arc, arc 2e running u -> v and
    # arc 2e + 1 v -> u: pi_k,tail - pi_k,head + (M_e - c_e) y_e
    # + 2 c_e x_k,reverse arc <= M_e
    tails = np.broadcast_to(np.stack([u, v], axis=1), (K, E, 2))
    heads = tails[:, :, ::-1]
    opt_cols = np.stack(
        [
            pi_0[:, None, None] + tails,
            pi_0[:, None, None] + heads,
            np.broadcast_to(es[:, None], (K, E, 2)),
            np.stack([x_fwd + 1, x_fwd], axis=2),
        ],
        axis=3,
    ).reshape(2 * K * E, 4)
    edge_coefs = np.stack([np.ones(E), -np.ones(E), big_m - c, 2.0 * c], axis=1)
    opt_coefs = np.repeat(np.tile(edge_coefs, (K, 1)), 2, axis=0)
    rhs = np.repeat(np.tile(big_m, K), 2).tolist()
    names = zip(np.repeat(ks, 2 * E).tolist(), tails.reshape(-1).tolist(), heads.reshape(-1).tolist())
    for i, (k, tail, head) in enumerate(names):
        rows.append(Row(opt_cols[i], opt_coefs[i], SENSE_LE, rhs[i], f"opt_{k}_{tail}_{head}"))
    return model


def add_local_branching_cut(model: MipModel, ybar, delta: int) -> MipModel:
    """Hamming-ball cut around the design ``ybar``: at most ``delta`` flips.

    Only the opening variables enter the row; flow variables stay free. The
    result shares everything but its row list with ``model``, which is left
    unchanged.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    ybar = np.round(np.asarray(ybar)).astype(int)
    if ybar.shape != (model.num_edges,):
        raise ValueError("design vector length mismatch")
    cols = np.arange(model.num_edges)
    coefs = np.where(ybar == 0, 1.0, -1.0)
    rhs = float(delta - int(ybar.sum()))
    cut = Row(cols, coefs, SENSE_LE, rhs, "local_branching")
    return replace(model, rows=[*model.rows, cut])
