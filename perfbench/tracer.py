"""In-process layer tracer: wraps the public functions of the solver
layers at the names their callers look up, records one span per call and
restores every patched name on exit.

A span is ``[name, start, end, parent, counters]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``counters`` holds the work counts
read from the call's return value. Spans stay in memory; the benchmark
aggregates them after the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType

from fcndp import driver, graph, heuristics, milp, model, solution

# Layer modules, in the order their names appear in the report. fcndp.oracle
# is the independent judge of kernel changes and fcndp.bench / fcndp.cli are
# glue, so none of them is patched: their calls stay untraced.
LAYERS: tuple[ModuleType, ...] = (driver, heuristics, model, milp, graph, solution)


def _local_branching(args, kwargs, out):
    sol = args[1] if len(args) > 1 else kwargs["sol"]
    return {"improved": int(out.cost < sol.cost)}


def _ejection_cycle(args, kwargs, out):
    sol = args[1] if len(args) > 1 else kwargs["sol"]
    return {"accepted": int(out is not sol)}


# Work counts come from values the program already returns.
COUNTERS = {
    "milp.solve_lp": lambda a, k, out: {"pivots": out.iterations},
    "milp.solve_bnb": lambda a, k, out: {
        "pivots": out.iterations,
        "nodes": out.nodes,
        "cutoff": int(out.status == milp.STATUS_CUTOFF),
    },
    "heuristics.lbound": lambda a, k, out: {"passes": out.iterations},
    "heuristics.vfh": lambda a, k, out: {"fixed_edges": len(out.fixed_edges)},
    "heuristics.local_branching": _local_branching,
    "heuristics.ejection_cycle": _ejection_cycle,
    "model.build_model": lambda a, k, out: {"rows": len(out.rows)},
    "driver.vfhlb": lambda a, k, out: {"ils_iterations": len(out[1].trajectory) - 2},
}


def traced_functions() -> dict[object, str]:
    """Public functions defined in each layer module, keyed to span names."""
    found = {}
    for mod in LAYERS:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                found[obj] = f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
    return found


class Tracer:
    """Context manager: patches on enter, restores and verifies on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        targets = traced_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in LAYERS:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        adj = graph.Adjacency
        from_instance = vars(adj)["from_instance"].__func__
        self._patch(adj, "from_instance", classmethod(self._wrap(from_instance, "graph.adjacency")))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched if vars(o)[a] is not orig]
        self._patched.clear()
        if stale:
            raise RuntimeError(f"tracer failed to restore {stale}")


def layer_report(spans: list[list]) -> dict[str, float]:
    """Per-name call counts, inclusive seconds and summed counters, plus
    self seconds per layer module.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice. Self time is a span's
    duration minus the time its direct children cover (children of one span
    never overlap: the program is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    solve_s = pivots = 0.0
    for i, (name, start, end, parent, counters) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name.split('.', 1)[0]}.self_s", end - start - child_time[i])
        if not _below(spans, parent, lambda above: above == name):
            add(f"{name}.s", end - start)
        for key, value in (counters or {}).items():
            add(f"{name}.{key}", value)
        # a solve_lp nested in a solve_bnb is already part of the B&B's totals
        if name.startswith("milp.solve_") and not _below(spans, parent, lambda above: above.startswith("milp.solve_")):
            solve_s += end - start
            pivots += (counters or {}).get("pivots", 0)
    out["milp.pivots"] = pivots
    out["milp.solve_s"] = solve_s
    return out


def _below(spans: list[list], parent: int, match) -> bool:
    """True when the span ``parent`` or one of its ancestors has a name
    satisfying ``match``."""
    while parent >= 0:
        if match(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False
