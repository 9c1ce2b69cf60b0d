"""Self-contained LP/MIP kernel with two calls:
``solve_lp(model)`` solves the relaxation with a bounded-variable dual
simplex, and
``solve_bnb(model, binary, *, root=None, cutoff=None, deadline=None)``
runs branch-and-bound over the variables a boolean mask marks binary, until
the absolute ``time.monotonic()`` value ``deadline`` if one is given.

The simplex keeps the short dense tableau ``B^-1 [N | b]`` (desk-scale
models make dense cheap): one column per nonbasic variable and none for
the basic ones, whose columns are unit vectors. With one slack per row it
is m x (n + 1) for n structural variables, where the full tableau
``B^-1 [A | I | b]`` would be m x (n + m + 1). A cold start fills it
straight from ``MipModel.rows`` as ``[A | b]``, every slack basic, so it
is the only dense copy of the model; numpy is all it needs.
It is a bounded dual simplex, the kernel's only algorithm, and prices by
dual Devex (Harris, *Pivot selection methods of the Devex LP code*, Math.
Prog. 5, 1973): among the rows whose basic variable is out of its bounds
by more than ``FEAS_TOL``, the one with the largest infeasibility^2 / w_i
leaves, with every row weight 1 at the start of each solve and updated
from the pivot column. It takes Harris's two-pass ratio test: the longest
step that keeps every reduced cost within ``OPT_TOL`` of its sign, then
the largest pivot inside it. The pricing state (the bounds
of the basic variables, the direction each nonbasic variable moves in,
which may move at all, the Devex weights) is kept up to date pivot by
pivot rather than rebuilt. A pivot does not rewrite the tableau: it is
held back as one column and one row of a pending block, and the reads the
simplex makes, one column or one row, subtract the block's product on the
fly. The block is applied as one matrix product when the whole tableau is
read (every ``_REFRESH`` pivots, when ``xb`` and the reduced costs are
re-derived, and on a copy) or when it holds ``_REFRESH`` pivots.

Every solve takes one path: the dual simplex back to primal feasibility
from a dual feasible basis. A cold start is the slack basis with each
structural variable nonbasic at the bound its cost points to (lower for a
cost >= 0, upper for one < 0), which is dual feasible, so there is no
phase 1 (Koberstein, *The dual simplex method, techniques for a fast and
stable implementation*, PhD thesis, Paderborn 2005). A variable unbounded
in the direction its cost falls, a free one included, is refused with
``ValueError``; every model built in this package bounds every variable,
so none of its LPs is unbounded. Only the root relaxation starts cold;
``root=`` hands ``solve_bnb`` a ``solve_lp`` result so that it is solved
once however many B&B calls start from it, also after the model's bounds
tightened around the root's point, which leaves its basis optimal. A B&B
child starts from its parent's optimal basis with its one branched bound
changed. The parent's tableau is reused in place by the child explored next; the
other child reaches its parent's basis from whatever tableau is live by a
basis exchange, so a pending node holds O(rows + columns) state and no
LU factorization is needed. Rounding builds up over long runs of pivots:
a solve stops with ``STATUS_ITERATION_LIMIT`` when its point is no longer
finite, when its pivot, read through the pending pivots, is at most
``PIVOT_TOL``, or when, once primal feasible, a reduced cost re-derived
from the tableau is on the wrong side of ``OPT_TOL``; a basis exchange
that finds no pivot above ``PIVOT_TOL`` is retried from the root's
tableau, the node dropped if that fails too.

A pivot reads the tableau twice, each time through the pending block: the
leaving row (``_row``) and then the entering column (``_col``). Everything
else it reads is kept state of size m or n: the basic values ``xb`` and
their bounds, the reduced costs, the move directions and the Devex
weights. Every pricing and ratio-test choice counts values within a
relative 1e-9 of the best as tied. The leaving row's ties go to the lowest
row. The ratio test's go to the largest pivot, then to the lowest variable
id; a lone candidate needs no tie-break. A basis exchange's ties go to the
lowest row. The matrix products round as the BLAS kernel does (OpenBLAS's
SkylakeX kernel also by thread count), and the tolerance keeps those last
bits from picking the pivots. The values still differ in their last
bits, and the B&B's branching and its callers' rounding can turn on them,
so solves are bit-reproducible only under one BLAS build and thread count.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, MipModel

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_CUTOFF = "cutoff"
STATUS_ITERATION_LIMIT = "iteration-limit"

PIVOT_TOL = 1e-9
OPT_TOL = 1e-7
FEAS_TOL = 1e-7
CUTOFF_SLACK = 1e-6
INTEGRALITY_TOL = 1e-6
NODE_LIMIT = 200_000
# simplex pivot budget per LP solve: max(floor, per_dim * (rows + columns)),
# with one slack column per row
PIVOT_LIMIT_FLOOR = 2000
PIVOT_LIMIT_PER_DIM = 50
# pivots between re-derivations of xb and the reduced costs from the
# tableau; also the most pivots the tableau holds back before a flush
_REFRESH = 64
# a flush applies the held-back pivots as one matrix product per slice of
# this many rows, so that its temporary stays small next to the tableau
_CHUNK = 256
# a B&B tableau that has taken this many pivots since it was copied from the
# root's is replaced by a fresh copy before its next basis exchange
_RESTART_AFTER = 2000


def _near_max(values: np.ndarray, ids: np.ndarray | None = None) -> int:
    """Position of the entry of ``values`` with the lowest id among those
    within a relative 1e-9 of the largest, which must be positive (a NaN
    wins outright); ``ids`` defaults to the positions. Entries that only
    rounding tells apart tie, so the choice does not turn on how a BLAS
    kernel rounds."""
    top = np.maximum.reduce(values)
    if math.isnan(top):
        return int(np.argmax(values))
    near = values >= top * (1.0 - 1e-9)
    if ids is None:
        return int(near.argmax())  # the first near entry
    near = near.nonzero()[0]
    return int(near[0] if near.size == 1 else near[np.argmin(ids[near])])


@dataclass
class _Start:
    """What ``solve_bnb(root=)`` needs from a ``solve_lp`` result: the model
    and bounds it solved, and its final solver state, tableau included
    (None unless optimal). A B&B works on a copy, so one result can seed
    many calls."""

    model: MipModel
    lb: np.ndarray
    ub: np.ndarray
    sx: _Simplex | None


@dataclass
class LpResult:
    status: str
    objective: float
    values: np.ndarray
    reduced_costs: np.ndarray | None = None  # LP results only
    iterations: int = 0
    nodes: int = 0
    start: _Start | None = field(default=None, repr=False, compare=False)  # LP results only


class _Simplex:
    """One solver state, solved by ``solve``, the dual simplex. The
    constructor builds the cold start, the slack basis of ``[A | I]``
    with each structural variable nonbasic at the bound its cost points
    to; it refuses a variable unbounded in that direction.
    A warm start puts new bounds on a solved state, after a ``rebase`` to
    another basis if need be.

    The tableau is the short one, ``B^-1 [N | b]``: one column, or slot,
    per nonbasic variable and none for the basic ones, whose columns are
    unit vectors. ``nb[s]`` is the variable in slot ``s`` and ``slot[j]``
    the slot of variable ``j``, -1 while ``j`` is basic; at a pivot the
    leaving variable takes the entering one's slot. The reduced costs ``d``
    and the pricing state ``move`` and ``movable`` are kept by slot."""

    def __init__(self, model: MipModel, lb: np.ndarray, ub: np.ndarray, iter_limit: int):
        rows = model.rows
        m, n = len(rows), model.num_vars
        self.m = m
        # one slack per row, x_row + s_i = rhs, bounded by the row's sense
        self.l = np.concatenate([lb, np.zeros(m)])
        self.u = np.concatenate([ub, np.zeros(m)])
        for i, row in enumerate(rows):
            if row.sense == SENSE_LE:
                self.u[n + i] = math.inf
            elif row.sense == SENSE_GE:
                self.l[n + i] = -math.inf
            elif row.sense != SENSE_EQ:
                raise ValueError(f"unknown row sense {row.sense!r}")
        self.c = np.concatenate([model.obj, np.zeros(m)])
        # each structural starts nonbasic at the bound its cost points to,
        # which makes the slack basis dual feasible; a slack starts basic
        self.at_upper = self.c < 0.0
        unbounded = np.flatnonzero(~np.isfinite(np.where(self.at_upper, self.u, self.l)[:n]))
        if unbounded.size:
            raise ValueError(f"variable {int(unbounded[0])} is unbounded in the direction its cost falls")
        self.iter_limit = iter_limit
        self.deadline = math.inf  # in time.monotonic(); a solve stops there as at iter_limit
        self.iterations = 0
        self.ncols = n + m
        # the starting tableau [A | b], every structural nonbasic in the
        # slot of its own id, filled by one assignment of all the rows'
        # entries
        self.tableau = np.zeros((m, n + 1))
        if m:
            at_row = np.repeat(np.arange(m), [row.cols.size for row in rows])
            cols = np.concatenate([row.cols for row in rows])
            self.tableau[at_row, cols] = np.concatenate([row.coefs for row in rows])
            self.tableau[:, -1] = [row.rhs for row in rows]
        # pivots held back from the tableau: the live tableau is
        # tableau - pend_c[:, :pend_k] @ pend_r[:pend_k]
        self.pend_c = np.empty((m, _REFRESH))
        self.pend_r = np.empty((_REFRESH, n + 1))
        self.pend_k = 0
        self.basis = np.arange(n, n + m)
        self.nb = np.arange(n)
        self.slot = np.concatenate([self.nb, np.full(m, -1)])
        # Devex reference weights of the dual pricing, one per row
        self.row_weights = np.ones(m)
        self._sync()
        self._refresh_xb()

    def _sync(self) -> None:
        """Derives the pricing state that pivots keep up to date from the
        bounds, the basis and the nonbasic flags: the bounds of the basic
        variables by row (``lbb``, ``ubb``), and by slot the direction each
        nonbasic variable moves in (``move``: +1 up from its lower bound, -1
        down from its upper one) and whether it may move at all (``movable``:
        not fixed)."""
        self.lbb = self.l[self.basis]
        self.ubb = self.u[self.basis]
        self.move = np.where(self.at_upper[self.nb], -1.0, 1.0)
        self.movable = self.l[self.nb] != self.u[self.nb]

    def rebase(self, basis: np.ndarray, at_upper: np.ndarray) -> bool:
        """Moves to ``basis`` by exchange: each wanted column not yet basic
        pivots in at the row, among those whose basic column is not wanted,
        where its entry is largest. One pivot, counted as an iteration, per
        column that differs. Then takes the nonbasic flags ``at_upper`` and
        re-derives ``xb`` under the current bounds. Returns False, on a
        tableau that is still valid but not on ``basis``, when a wanted
        column has no entry above ``PIVOT_TOL`` to pivot on."""
        wanted = np.zeros(self.ncols, dtype=bool)
        wanted[basis] = True
        d = np.zeros(self.nb.size)  # reduced costs are recomputed by the next solve
        for q in basis:
            if self.slot[q] < 0:
                continue
            rows = np.flatnonzero(~wanted[self.basis])
            col = self._col(q)
            r = int(rows[_near_max(np.abs(col[rows]), rows)])
            if not abs(col[r]) > PIVOT_TOL:
                return False
            self._pivot(r, q, col, 0.0, False, d)
            self.iterations += 1
        self.at_upper[:] = at_upper
        self._sync()
        self._refresh_xb()
        return True

    def copy(self) -> _Simplex:
        self._flush()
        other = copy.copy(self)
        names = ("l", "u", "at_upper", "tableau", "pend_c", "pend_r", "basis", "nb", "slot", "xb", "values")
        names += ("lbb", "ubb", "move", "movable", "row_weights")
        for name in names:
            setattr(other, name, getattr(self, name).copy())
        return other

    def set_bounds(self, lb: np.ndarray, ub: np.ndarray) -> None:
        """New structural bounds. ``xb`` is left as it is, which is right when
        only basic variables change bounds (a branch on the current basis) or
        the bounds tighten around the current point (every nonbasic variable
        keeps its value); ``rebase`` re-derives it otherwise."""
        n = lb.size
        self.l[:n] = lb
        self.u[:n] = ub
        self._sync()

    def _col(self, q: int) -> np.ndarray:
        """Column of the nonbasic variable ``q`` in the live tableau."""
        k, s = self.pend_k, self.slot[q]
        return self.tableau[:, s] - self.pend_c[:, :k] @ self.pend_r[:k, s]

    def _row(self, r: int) -> np.ndarray:
        """Row ``r`` of the live tableau, by slot."""
        k = self.pend_k
        return self.tableau[r] - self.pend_c[r, :k] @ self.pend_r[:k]

    def _flush(self) -> None:
        """Applies the held-back pivots to the tableau."""
        k = self.pend_k
        if k:
            for i in range(0, self.m, _CHUNK):
                self.tableau[i : i + _CHUNK] -= self.pend_c[i : i + _CHUNK, :k] @ self.pend_r[:k]
            self.pend_k = 0

    def _refresh_xb(self):
        """Re-derives ``xb`` and the point ``values`` from the tableau,
        adding up the nonbasic terms in variable-id order."""
        self._flush()
        z_n = np.where(self.at_upper, self.u, self.l)
        z_n = np.where(np.isfinite(z_n), z_n, 0.0)
        nz = np.flatnonzero((self.slot >= 0) & (z_n != 0.0))
        xb = self.tableau[:, -1].copy()
        if nz.size:
            xb -= self.tableau[:, self.slot[nz]] @ z_n[nz]
        self.xb = xb
        self.values = z_n
        self.values[self.basis] = xb

    def _reduced_costs(self) -> np.ndarray:
        """The reduced costs of the nonbasic variables, by slot."""
        self._flush()
        return self.c[self.nb] - self.c[self.basis] @ self.tableau[:, :-1]

    def solve(self) -> str:
        """Bounded dual simplex from a dual feasible basis: a primal
        infeasible basic variable leaves at the bound it violates until the
        point is primal feasible. Dual Devex pricing picks the leaving row
        (the largest infeasibility^2 / w_i, with every row weight 1 at the
        start of each call) and Harris's two-pass ratio test the entering
        column. Once primal feasible, it re-derives the reduced costs and
        the point from the tableau and returns ``STATUS_OPTIMAL``, however
        late. Ends with ``STATUS_ITERATION_LIMIT`` at the pivot budget or
        the deadline, and also when rounding has spoilt the tableau: the
        point is no longer finite, the entering column's entry in the pivot
        row, read through the pending block, is noise (at most
        ``PIVOT_TOL``), or a movable column's re-derived reduced cost is on
        the wrong side of its sign by more than ``OPT_TOL``, which the
        ratio test rules out but for rounding."""
        d = self._reduced_costs()
        since_refresh = 0
        # the kept state, bound once: pivots update these arrays in place,
        # and only _refresh_xb replaces one (xb)
        xb, lbb, ubb, weights = self.xb, self.lbb, self.ubb, self.row_weights
        move, movable, nb = self.move, self.movable, self.nb
        # work arrays, rewritten in place at every pivot
        below = np.empty(self.m)
        worst = np.empty(self.m)
        shift = np.empty(self.m)
        push = np.empty(nb.size)
        pushes = np.empty(nb.size, dtype=bool)
        price = np.empty(self.m)
        infeasible = np.empty(self.m, dtype=bool)
        # a fresh Devex reference framework at each call
        weights.fill(1.0)
        while True:
            np.subtract(lbb, xb, out=below)
            np.subtract(xb, ubb, out=worst)
            np.maximum(below, worst, out=worst)
            top = np.maximum.reduce(worst, initial=0.0)
            if not math.isfinite(top):
                return STATUS_ITERATION_LIMIT
            if top <= FEAS_TOL:
                d = self._reduced_costs()
                if not np.all(move[movable] * d[movable] >= -OPT_TOL):
                    return STATUS_ITERATION_LIMIT
                self._refresh_xb()
                return STATUS_OPTIMAL
            if self.iterations >= self.iter_limit or time.monotonic() >= self.deadline:
                return STATUS_ITERATION_LIMIT
            # dual Devex: the infeasible row with the largest
            # infeasibility^2 / weight leaves
            np.square(worst, out=price)
            price /= weights
            np.greater(worst, FEAS_TOL, out=infeasible)
            price *= infeasible
            r = _near_max(price)
            to_upper = bool(xb[r] - ubb[r] > below[r])
            full_row = self._row(r)
            # a nonbasic column moves up from its lower bound, down from its
            # upper one; moving x_j by t moves the leaving variable by
            # -row[j] * t, which must head back toward the violated bound
            np.multiply(full_row[:-1], move, out=push)
            if not to_upper:
                np.negative(push, out=push)
            np.greater(push, PIVOT_TOL, out=pushes)
            pushes &= movable
            cand = pushes.nonzero()[0]
            if cand.size == 0:
                return STATUS_INFEASIBLE
            # Harris's ratio test. Pass 1: the longest step that keeps every
            # reduced cost within OPT_TOL of its sign (move * d >= -OPT_TOL).
            # Pass 2: among the columns whose own ratio fits in that step,
            # the largest pivot, ties to the lowest variable id.
            slack = move[cand] * d[cand]
            pivots = push[cand]
            t_max = max(float(np.minimum.reduce((slack + OPT_TOL) / pivots)), 0.0)
            if not math.isfinite(t_max):
                return STATUS_ITERATION_LIMIT
            near = cand[np.maximum(slack, 0.0) / pivots <= t_max]
            q = int(nb[near[_near_max(push[near], nb[near])]])
            col = self._col(q)
            pivot = float(col[r])
            if not abs(pivot) > PIVOT_TOL:
                return STATUS_ITERATION_LIMIT
            self.iterations += 1
            since_refresh += 1
            step = (xb[r] - (ubb[r] if to_upper else lbb[r])) / pivot
            np.multiply(col, step, out=shift)
            xb -= shift
            entering_val = (self.u[q] if self.at_upper[q] else self.l[q]) + step
            self._pivot(r, q, col, entering_val, to_upper, d, full_row)
            # Devex update from the pivot column divided by the pivot:
            # w_i = max(w_i, (col_i / pivot)^2 w_r), and the entering
            # column's row gets max(w_r / pivot^2, 1)
            w_r = weights[r]
            np.divide(col, pivot, out=price)
            np.square(price, out=price)
            price *= w_r
            np.maximum(weights, price, out=weights)
            weights[r] = max(w_r / (pivot * pivot), 1.0)
            if since_refresh >= _REFRESH:
                since_refresh = 0
                self._refresh_xb()
                xb = self.xb
                d = self._reduced_costs()

    def _pivot(
        self,
        r: int,
        q: int,
        col: np.ndarray,
        entering_val: float,
        leaves_at_upper: bool,
        d: np.ndarray,
        row: np.ndarray | None = None,
    ) -> None:
        """Column ``q``, whose live tableau column is ``col``, enters the
        basis in row ``r``; updates the reduced costs ``d`` in place.
        ``row`` is the live row ``r`` when the caller has already read it.
        The leaving variable takes ``q``'s slot ``s``. The tableau update
        ``T -= (col - e_r) (T[r] / col[r])`` is held back in the pending
        block and applied when the block is full or at the next read of the
        whole tableau; for slot ``s`` it starts from the leaving variable's
        unit column ``e_r``, so the slot's stored column becomes ``e_r``,
        its earlier pending entries 0 and its new one ``1 / col[r]``."""
        leaving = int(self.basis[r])
        s = int(self.slot[q])
        self.at_upper[leaving] = leaves_at_upper
        self.move[s] = -1.0 if leaves_at_upper else 1.0
        self.movable[s] = self.l[leaving] != self.u[leaving]
        self.nb[s] = leaving
        self.slot[leaving] = s
        self.slot[q] = -1
        k = self.pend_k
        row = np.divide(self._row(r) if row is None else row, col[r], out=self.pend_r[k])
        row[s] = 1.0 / col[r]
        self.pend_r[:k, s] = 0.0
        self.tableau[:, s] = 0.0
        self.tableau[r, s] = 1.0
        self.pend_c[:, k] = col
        self.pend_c[r, k] -= 1.0
        self.pend_k = k + 1
        if self.pend_k == _REFRESH:
            self._flush()
        d_q = d[s]
        d[s] = 0.0
        d -= d_q * row[:-1]
        self.basis[r] = q
        self.lbb[r] = self.l[q]
        self.ubb[r] = self.u[q]
        self.xb[r] = entering_val


def solve_lp(model: MipModel) -> LpResult:
    """Optimal basic solution of the LP relaxation, with reduced costs. The
    result can seed ``solve_bnb(model, ..., root=)`` while the model's
    bounds stay as they are or tighten around its point."""
    return _solve_lp(model)


def _solve_lp(model: MipModel, deadline: float = math.inf) -> LpResult:
    """The body of ``solve_lp``; ``solve_bnb`` calls it for a root it solves
    itself, so that calls of the public name are the callers' own, and with
    its deadline."""
    lb = np.asarray(model.lb, dtype=float).copy()
    ub = np.asarray(model.ub, dtype=float).copy()
    limit = max(PIVOT_LIMIT_FLOOR, PIVOT_LIMIT_PER_DIM * (model.num_vars + 2 * len(model.rows)))
    sx = _Simplex(model, lb, ub, limit)
    sx.deadline = deadline
    status = sx.solve()
    d = np.zeros(sx.ncols)
    d[sx.nb] = sx._reduced_costs()
    primal = sx.values[: model.num_vars]
    return LpResult(
        status=status,
        objective=float(model.obj @ primal),
        values=primal.copy(),
        reduced_costs=d[: model.num_vars],
        iterations=sx.iterations,
        start=_Start(model, lb, ub, sx if status == STATUS_OPTIMAL else None),
    )


def _integral_objective(model: MipModel, binary: np.ndarray) -> bool:
    """True when every feasible point with integral marked vars has an
    integer objective, which licenses bound rounding during pruning."""
    for j in np.flatnonzero(model.obj != 0.0):
        cj = float(model.obj[j])
        if binary[j]:
            if not cj.is_integer():
                return False
        elif model.lb[j] == model.ub[j]:
            if not float(cj * model.lb[j]).is_integer():
                return False
        else:
            return False
    return True


def solve_bnb(
    model: MipModel,
    binary: np.ndarray,
    *,
    root: LpResult | None = None,
    cutoff: float | None = None,
    deadline: float | None = None,
) -> LpResult:
    """Branch-and-bound over the variables the boolean mask ``binary`` marks.

    Only opening (y) and flow (x) variables may be marked. Depth-first with
    the open list re-sorted by bound every 100 nodes; branches on the most
    fractional marked variable (ties to the lowest id). Nodes whose bound
    reaches the cutoff are pruned; with no cutoff and no integral point the
    result is infeasible. With nothing marked this is ``solve_lp``.

    ``root``, a ``solve_lp(model)`` result, stands in for the root
    relaxation, which is then not solved again. The model's bounds may have
    moved since, if only by tightening around the root's point: every bound
    that moved is no wider than before and still holds the root's value.
    The root's basis then stays primal and dual optimal, and the result
    has the status and objective of a solve without ``root``. Every other
    node starts from its parent's optimal basis and re-solves with the dual
    simplex.

    ``deadline``, a ``time.monotonic()`` value, stops the search between
    nodes and inside simplex runs, with ``STATUS_ITERATION_LIMIT``.
    """
    binary = np.asarray(binary, dtype=bool)
    bad = np.flatnonzero(binary & ~model.integer_ok)
    if bad.size:
        v = int(bad[0])
        raise ValueError(f"variable {v} ({model.kinds[v]}) cannot be made binary")
    if root is not None:
        rec = root.start
        if rec is None or rec.model is not model:
            raise ValueError("root is not a solve_lp result of this model")
        # only the bounds that moved are checked: a basic value may sit up
        # to FEAS_TOL outside bounds that did not
        moved = (model.lb != rec.lb) | (model.ub != rec.ub)
        lo, hi, v = model.lb[moved], model.ub[moved], root.values[moved]
        if np.any((lo < rec.lb[moved]) | (hi > rec.ub[moved]) | (v < lo) | (v > hi)):
            raise ValueError("root was solved under other bounds, not tightened around its point")
    if not binary.any():
        return root if root is not None else solve_lp(model)
    binary_ids = np.flatnonzero(binary)
    int_obj = _integral_objective(model, binary)
    deadline = math.inf if deadline is None else deadline

    incumbent: np.ndarray | None = None
    incumbent_obj = math.inf
    pruned_by_cutoff = False
    total_pivots = 0
    nodes_done = 0
    hit_limit = False

    # a pending node: its bounds, its parent's bound and id, and the
    # parent's optimal basis and nonbasic flags; the root has no parent
    stack: list[tuple[np.ndarray, np.ndarray, float, int, np.ndarray | None, np.ndarray | None]] = [
        (model.lb.copy(), model.ub.copy(), -math.inf, -1, None, None)
    ]
    sx: _Simplex | None = None
    live = -1  # id of the node whose tableau sx holds
    age = 0  # pivots sx has taken since it was copied from the root's
    while stack:
        if nodes_done >= NODE_LIMIT or time.monotonic() >= deadline:
            hit_limit = True
            break
        if nodes_done and nodes_done % 100 == 0:
            stack.sort(key=lambda nd: nd[2], reverse=True)
        lb, ub, parent_bound, parent, basis, at_upper = stack.pop()
        limit = _prune_limit(cutoff, incumbent_obj, int_obj)
        if parent_bound >= limit:
            if cutoff is not None and parent_bound >= cutoff - CUTOFF_SLACK:
                pruned_by_cutoff = True
            continue
        node = nodes_done
        nodes_done += 1
        if basis is None:  # the root
            if root is None:
                root = _solve_lp(model, deadline)
                total_pivots += root.iterations
            status, values = root.status, root.values
        else:
            if live != parent and age > _RESTART_AFTER:
                # rounding builds up over pivots: start over from the root's
                # tableau once this one has taken many
                sx, age = root.start.sx.copy(), 0
            sx.iterations = 0
            sx.set_bounds(lb, ub)
            if live != parent and not sx.rebase(basis, at_upper):
                # the exchange met only noise pivots: try again from the
                # root's tableau, and drop the node if that fails too
                spent = sx.iterations
                sx, age = root.start.sx.copy(), 0
                sx.iterations = spent
                sx.set_bounds(lb, ub)
                if not sx.rebase(basis, at_upper):
                    total_pivots += sx.iterations
                    live = -1
                    hit_limit = True
                    continue
            live = node
            sx.deadline = deadline
            status = sx.solve()
            total_pivots += sx.iterations
            age += sx.iterations
            values = sx.values[: model.num_vars]
        if status == STATUS_INFEASIBLE:
            continue
        if status == STATUS_ITERATION_LIMIT:
            hit_limit = True
            continue
        bound = float(model.obj @ values)
        if bound >= limit:
            if cutoff is not None and bound >= cutoff - CUTOFF_SLACK:
                pruned_by_cutoff = True
            continue
        vals = values[binary_ids]
        frac = np.abs(vals - np.round(vals))
        if frac.max(initial=0.0) <= INTEGRALITY_TOL:
            z = values.copy()
            z[binary_ids] = np.round(z[binary_ids])
            obj = float(model.obj @ z)
            if obj < incumbent_obj and (cutoff is None or obj < cutoff - CUTOFF_SLACK):
                incumbent = z
                incumbent_obj = obj
            continue
        j = int(binary_ids[int(np.argmax(frac))])
        v = values[j]
        if basis is None:
            # the root's children work on a copy of its final tableau, so
            # the solve_lp result can seed other calls
            sx, age, live = root.start.sx.copy(), 0, node
        basis, at_upper = sx.basis.copy(), sx.at_upper.copy()
        lo_ub = ub.copy()
        lo_ub[j] = 0.0
        hi_lb = lb.copy()
        hi_lb[j] = 1.0
        down = (lb, lo_ub, bound, node, basis, at_upper)
        up = (hi_lb, ub, bound, node, basis, at_upper)
        if v >= 0.5:
            stack.append(down)
            stack.append(up)
        else:
            stack.append(up)
            stack.append(down)

    if incumbent is not None:
        status = STATUS_ITERATION_LIMIT if hit_limit else STATUS_OPTIMAL
        return LpResult(status, incumbent_obj, incumbent, None, total_pivots, nodes_done)
    if hit_limit:
        return LpResult(STATUS_ITERATION_LIMIT, math.inf, model.lb.copy(), None, total_pivots, nodes_done)
    if pruned_by_cutoff:
        return LpResult(STATUS_CUTOFF, math.inf, model.lb.copy(), None, total_pivots, nodes_done)
    return LpResult(STATUS_INFEASIBLE, math.inf, model.lb.copy(), None, total_pivots, nodes_done)


def _prune_limit(cutoff: float | None, incumbent_obj: float, int_obj: bool) -> float:
    """Smallest bound a node may have and still be worth expanding."""
    limit = math.inf
    if cutoff is not None:
        limit = cutoff - CUTOFF_SLACK
    if incumbent_obj < math.inf:
        step = 1.0 - CUTOFF_SLACK if int_obj else CUTOFF_SLACK
        limit = min(limit, incumbent_obj - step)
    return limit
