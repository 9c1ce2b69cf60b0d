"""Sparse assembly of the one-level design/routing MIP.

Variables, in id order: one opening indicator ``y_e`` per edge, one flow
indicator ``x`` per commodity and arc, and one shortest-distance potential
``pi`` per commodity and node (the destination's potential is fixed to 0
through its bounds). Rows: per-commodity flow conservation (equalities),
flow/opening coupling, and the lifted big-M optimality rows that force every
routed path to be shortest in the open network, one per arc direction.
The optimality rows, 2KE of the KV + 3KE rows, seldom bind at an LP
optimum, so ``MipModel.lazy`` lets the LP kernel hold them back: a solve
adds one to its tableau only once its point violates it.

Without the ``pi`` columns and the optimality rows the model is the
high-point relaxation (HPR; Moore & Bard, *The mixed integer linear bilevel
programming problem*, Oper. Res. 38, 1990): the leader's design and routing
with no follower optimality. Every bilevel feasible point projects onto one
of its points, so its optimum, and that of any relaxation of it, bounds the
bilevel optimum from below; an integral HPR point is bilevel feasible only
when each commodity's route is shortest in its open network.

``build_model`` also hands the LP kernel a start basis, ``MipModel.start``:
per commodity k, the shortest-path in-tree toward its destination d_k by
``beta`` (the network simplex's classic start; one Dijkstra per distinct
destination, since the weights q_k beta give the same tree). Each node v
that reaches d_k, d_k itself excepted, has the x column of its tree arc
basic in its flow row (k, v); every other row keeps its slack basic. The
nodes are listed children before parents, so the block of these rows and
columns is unit lower triangular. The basis is dual feasible: with the
flow rows' duals q_k dist(v -> d_k) and every other dual 0, a nonbasic x
of arc (tail, head) has reduced cost q_k (beta_e + dist(head) - dist(tail))
>= 0, a y its opening cost f_e >= 0 and a pi 0. A model built any other way
has an empty start, which is the slack basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Adjacency, dijkstra
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
    integer_ok: np.ndarray  # bool mask: y and x variables
    rows: list[Row]
    num_edges: int
    num_commodities: int
    num_nodes: int
    # a dual feasible start basis: column start[1][i] basic in row
    # start[0][i]; the rows are equalities and the block unit lower
    # triangular. Empty: the slack basis.
    start: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(0, dtype=int), np.empty(0, dtype=int))
    )
    # the indices of the rows the LP kernel may hold back until its point
    # violates one (build_model: the optimality rows); no start row.
    # Empty: every row from the start
    lazy: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def y_var(self, e: int) -> int:
        return e

    def x_var(self, k: int, arc: int) -> int:
        return self.num_edges + 2 * self.num_edges * k + arc

    def pi_var(self, k: int, node: int) -> int:
        return self.num_edges * (1 + 2 * self.num_commodities) + self.num_nodes * k + node


def build_model(inst: Instance, big_m: np.ndarray, *, optimality: bool = True) -> MipModel:
    """The one-level MIP with big-M values ``big_m`` per edge, or with
    ``optimality=False`` the high-point relaxation: the same y and x
    columns, flow and coupling rows, and no ``pi`` columns or optimality
    rows. Both start from the shortest-path-tree basis (``start``)."""
    E, K, V = inst.num_edges, inst.num_commodities, inst.nodes
    num_vars = E + 2 * E * K + (V * K if optimality else 0)
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
    if optimality:
        ub[E + 2 * E * K :] = float(c.sum())
        ub[pi_0 + np.array([com.destination for com in inst.commodities], dtype=int)] = 0.0
    model = MipModel(
        num_vars=num_vars,
        obj=obj,
        lb=lb,
        ub=ub,
        integer_ok=np.arange(num_vars) < E + 2 * E * K,
        rows=[],
        num_edges=E,
        num_commodities=K,
        num_nodes=V,
        start=_tree_start(inst),
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
    if not optimality:
        return model

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
    model.lazy = np.arange(len(rows), len(rows) + 2 * K * E)
    for i, (k, tail, head) in enumerate(names):
        rows.append(Row(opt_cols[i], opt_coefs[i], SENSE_LE, rhs[i], f"opt_{k}_{tail}_{head}"))
    return model


def _tree_start(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Per commodity, each node's arc toward the destination in the
    shortest-path tree by ``beta``, basic in the node's flow row, every
    node listed before its parent."""
    E, V = inst.num_edges, inst.nodes
    adj = Adjacency.from_instance(inst)
    beta = inst.edge_array("beta")
    trees: dict[int, list[tuple[int, int]]] = {}  # by destination: (node, arc toward it)
    start_rows: list[int] = []
    start_cols: list[int] = []
    for k, com in enumerate(inst.commodities):
        dest = com.destination
        if dest not in trees:
            tree = dijkstra(adj, dest, beta)
            children: list[list[int]] = [[] for _ in range(V)]
            for v in np.flatnonzero(tree.reached).tolist():
                if v != dest:
                    children[int(tree.pred_node[v])].append(v)
            # breadth first from the destination, then reversed
            nodes = [dest]
            for v in nodes:
                nodes.extend(children[v])
            # the tree reaches v by the arc into v, so v's arc toward the
            # destination is its reverse
            trees[dest] = [(v, int(tree.pred_arc[v]) ^ 1) for v in reversed(nodes[1:])]
        for v, arc in trees[dest]:
            start_rows.append(V * k + v)
            start_cols.append(E + 2 * E * k + arc)
    return np.array(start_rows, dtype=int), np.array(start_cols, dtype=int)


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
