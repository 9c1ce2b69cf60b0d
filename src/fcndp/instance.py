"""Instance data model: validation, text IO, big-M constants and random generation.

An instance is an undirected graph whose edges carry a length ``c``, a fixed
opening cost ``f`` and a per-unit shipping cost ``beta``, plus a list of
commodities (origin, destination, quantity). The per-commodity variable cost
of sending commodity ``k`` across an edge is ``q_k * beta`` and is always
derived from these two fields, never stored separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InstanceError(ValueError):
    """Base class for instance validation and parse failures."""


class InstanceParseError(InstanceError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class InstanceValidationError(InstanceError):
    def __init__(self, message: str, invariant: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


@dataclass(frozen=True)
class Edge:
    """Undirected edge; both arc directions share the length ``c``."""

    u: int
    v: int
    c: float
    f: float
    beta: float


@dataclass(frozen=True)
class Commodity:
    origin: int
    destination: int
    quantity: float


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance; safe to share across concurrent runs."""

    nodes: int
    edges: tuple[Edge, ...]
    commodities: tuple[Commodity, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "commodities", tuple(self.commodities))
        _validate(self)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    def is_integer_data(self) -> bool:
        """True when every cost and quantity is integral (exact arithmetic)."""
        return all(
            float(x).is_integer()
            for e in self.edges
            for x in (e.c, e.f, e.beta)
        ) and all(float(k.quantity).is_integer() for k in self.commodities)

    def edge_array(self, attr: str) -> np.ndarray:
        """Per-edge float array of ``c``, ``f`` or ``beta``."""
        return np.array([getattr(e, attr) for e in self.edges], dtype=float)

    def quantity_array(self) -> np.ndarray:
        return np.array([k.quantity for k in self.commodities], dtype=float)


def _validate(inst: Instance) -> None:
    if inst.nodes <= 0:
        raise InstanceValidationError("node count must be positive", "nodes")
    seen: set[tuple[int, int]] = set()
    for idx, e in enumerate(inst.edges):
        if not (0 <= e.u < inst.nodes and 0 <= e.v < inst.nodes):
            raise InstanceValidationError(
                f"edge {idx} endpoints ({e.u},{e.v}) outside [0,{inst.nodes})",
                "edge-endpoints",
            )
        if e.u == e.v:
            raise InstanceValidationError(f"edge {idx} is a self-loop at {e.u}", "self-loop")
        key = (min(e.u, e.v), max(e.u, e.v))
        if key in seen:
            raise InstanceValidationError(f"duplicate undirected edge {key}", "duplicate-edge")
        seen.add(key)
        if not (math.isfinite(e.c) and e.c > 0):
            raise InstanceValidationError(f"edge {idx} has length {e.c}", "positive-length")
        if not (math.isfinite(e.f) and e.f >= 0):
            raise InstanceValidationError(f"edge {idx} has fixed cost {e.f}", "nonnegative-fixed-cost")
        if not (math.isfinite(e.beta) and e.beta >= 0):
            raise InstanceValidationError(f"edge {idx} has unit cost {e.beta}", "nonnegative-unit-cost")
    for idx, k in enumerate(inst.commodities):
        if not (0 <= k.origin < inst.nodes and 0 <= k.destination < inst.nodes):
            raise InstanceValidationError(
                f"commodity {idx} endpoints ({k.origin},{k.destination}) outside [0,{inst.nodes})",
                "commodity-endpoints",
            )
        if k.origin == k.destination:
            raise InstanceValidationError(
                f"commodity {idx} has equal origin and destination {k.origin}", "distinct-endpoints"
            )
        if not (math.isfinite(k.quantity) and k.quantity > 0):
            raise InstanceValidationError(
                f"commodity {idx} has quantity {k.quantity}", "positive-quantity"
            )


def _fmt(x: float) -> str:
    # integers print without a trailing ".0" so files stay byte-normalized
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def save_instance(inst: Instance, path) -> None:
    """Write the whitespace-separated text format; see load_instance."""
    lines = [
        f"# {inst.name}" if inst.name else "#",
        f"nodes {inst.nodes}",
        f"edges {inst.num_edges}",
        f"commodities {inst.num_commodities}",
    ]
    for e in inst.edges:
        lines.append(f"e {e.u} {e.v} {_fmt(e.c)} {_fmt(e.f)} {_fmt(e.beta)}")
    for k in inst.commodities:
        lines.append(f"k {k.origin} {k.destination} {_fmt(k.quantity)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> Instance:
    """Parse an instance file.

    Format: optional ``#`` comments, then ``nodes V`` / ``edges E`` /
    ``commodities K`` headers, E lines ``e u v c f beta`` and K lines
    ``k o d q``. Node ids are 0-based.
    """
    headers: dict[str, int] = {}
    edges: list[Edge] = []
    commodities: list[Commodity] = []
    name = ""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                if lineno == 1 and raw.strip().startswith("#"):
                    name = raw.strip().lstrip("#").strip()
                continue
            parts = text.split()
            tag = parts[0]
            try:
                if tag in ("nodes", "edges", "commodities"):
                    headers[tag] = int(parts[1])
                elif tag == "e":
                    u, v = int(parts[1]), int(parts[2])
                    c, f, b = float(parts[3]), float(parts[4]), float(parts[5])
                    edges.append(Edge(u, v, c, f, b))
                elif tag == "k":
                    commodities.append(
                        Commodity(int(parts[1]), int(parts[2]), float(parts[3]))
                    )
                else:
                    raise InstanceParseError(f"unknown record {tag!r}", lineno)
            except (IndexError, ValueError) as exc:
                if isinstance(exc, InstanceError):
                    raise
                raise InstanceParseError(f"malformed {tag!r} record: {text!r}", lineno) from exc
    for key in ("nodes", "edges", "commodities"):
        if key not in headers:
            raise InstanceParseError(f"missing {key!r} header")
    if headers["edges"] != len(edges):
        raise InstanceParseError(
            f"header declares {headers['edges']} edges, found {len(edges)}"
        )
    if headers["commodities"] != len(commodities):
        raise InstanceParseError(
            f"header declares {headers['commodities']} commodities, found {len(commodities)}"
        )
    return Instance(headers["nodes"], tuple(edges), tuple(commodities), name=name)


def generate_instance(
    n_nodes: int, density: float, n_commodities: int, seed: int
) -> Instance:
    """Random connected instance with ``floor(density * n(n-1)/2)`` edges.

    A uniform random spanning tree is laid down first so every commodity is
    routable; remaining edges are sampled uniformly from unused node pairs.
    Costs: c ~ U{1..20}, f ~ U{50..200}, beta ~ U{1..5}, q ~ U{1..10}.
    """
    if n_nodes < 2:
        raise InstanceValidationError("need at least 2 nodes", "nodes")
    max_edges = n_nodes * (n_nodes - 1) // 2
    n_edges = math.floor(density * max_edges)
    if n_edges < n_nodes - 1:
        raise InstanceValidationError(
            f"density {density} gives {n_edges} edges, fewer than the {n_nodes - 1} "
            "needed for connectivity",
            "density",
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_nodes)
    pairs: list[tuple[int, int]] = []
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        a, b = int(order[i]), int(order[j])
        pairs.append((min(a, b), max(a, b)))
    tree = set(pairs)
    rest = [
        (u, v)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
        if (u, v) not in tree
    ]
    extra = n_edges - len(pairs)
    if extra > 0:
        picks = rng.choice(len(rest), size=extra, replace=False)
        pairs.extend(rest[int(i)] for i in sorted(picks))
    pairs.sort()
    edges = tuple(
        Edge(
            u,
            v,
            float(rng.integers(1, 21)),
            float(rng.integers(50, 201)),
            float(rng.integers(1, 6)),
        )
        for u, v in pairs
    )
    commodities = []
    for _ in range(n_commodities):
        o = int(rng.integers(0, n_nodes))
        d = int(rng.integers(0, n_nodes - 1))
        if d >= o:
            d += 1
        commodities.append(Commodity(o, d, float(rng.integers(1, 11))))
    name = f"{n_nodes}-{density:g}-{n_commodities}-{seed}"
    return Instance(n_nodes, edges, tuple(commodities), name=name)


def compute_big_m(inst: Instance) -> np.ndarray:
    """Per-edge linearization constants of the shortest-path optimality rows,
    M_e = c_e + sum of all edge lengths, as a float array.

    Any difference of shortest-path potentials is bounded by the total edge
    length, so the optimality rows become vacuous on closed edges and reduce
    to the plain length bound on open ones.
    """
    total = sum(e.c for e in inst.edges)
    return np.array([e.c + total for e in inst.edges], dtype=float)
