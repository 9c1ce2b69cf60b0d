"""Sparse assembly of the one-level design/routing MIP.

Variables, in id order: one opening indicator ``y_e`` per edge, one flow
indicator ``x`` per commodity and arc, and one shortest-distance potential
``pi`` per commodity and node (the destination's potential is fixed to 0
through its bounds). Rows: per-commodity flow conservation (equalities),
flow/opening coupling, and the lifted big-M optimality rows that force every
routed path to be shortest in the open network, one per arc direction.
"""

from __future__ import annotations

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
    obj = np.zeros(num_vars)
    lb = np.zeros(num_vars)
    ub = np.ones(num_vars)
    kinds = ["y"] * E + ["x"] * (2 * E * K) + ["pi"] * (V * K)
    c = inst.edge_array("c")
    pot_cap = float(c.sum())

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

    for e, edge in enumerate(inst.edges):
        obj[model.y_var(e)] = edge.f
    for k, com in enumerate(inst.commodities):
        for e, edge in enumerate(inst.edges):
            g = com.quantity * edge.beta
            obj[model.x_var(k, 2 * e)] = g
            obj[model.x_var(k, 2 * e + 1)] = g
    for k, com in enumerate(inst.commodities):
        for i in range(V):
            ub[model.pi_var(k, i)] = 0.0 if i == com.destination else pot_cap

    rows = model.rows
    # each node's edges in id order, with the sign of the edge's forward arc
    # out of the node: +1 at its tail u, -1 at its head v (an instance has
    # no self-loops)
    incident: list[list[tuple[int, float]]] = [[] for _ in range(V)]
    for e, edge in enumerate(inst.edges):
        incident[edge.u].append((e, 1.0))
        incident[edge.v].append((e, -1.0))
    for k, com in enumerate(inst.commodities):
        for i in range(V):
            cols, coefs = [], []
            for e, sign in incident[i]:
                cols += [model.x_var(k, 2 * e), model.x_var(k, 2 * e + 1)]
                coefs += [sign, -sign]
            rhs = 1.0 if i == com.origin else (-1.0 if i == com.destination else 0.0)
            rows.append(
                Row(np.array(cols, dtype=int), np.array(coefs), SENSE_EQ, rhs, f"flow_{k}_{i}")
            )
    for k in range(K):
        for e in range(E):
            rows.append(
                Row(
                    np.array([model.x_var(k, 2 * e), model.x_var(k, 2 * e + 1), model.y_var(e)]),
                    np.array([1.0, 1.0, -1.0]),
                    SENSE_LE,
                    0.0,
                    f"couple_{k}_{e}",
                )
            )
    for k in range(K):
        for e, edge in enumerate(inst.edges):
            m_e = big_m[e]
            for arc in (2 * e, 2 * e + 1):
                tail, head = (edge.u, edge.v) if arc == 2 * e else (edge.v, edge.u)
                rows.append(
                    Row(
                        np.array(
                            [
                                model.pi_var(k, tail),
                                model.pi_var(k, head),
                                model.y_var(e),
                                model.x_var(k, arc ^ 1),
                            ]
                        ),
                        np.array([1.0, -1.0, m_e - edge.c, 2.0 * edge.c]),
                        SENSE_LE,
                        m_e,
                        f"opt_{k}_{tail}_{head}",
                    )
                )
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
