import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import csgraph_from_dense
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from fcndp.graph import NO_ARC, Adjacency, PathResult, arc_endpoints, dijkstra, extract_path, shortest_path_dag
from fcndp.instance import Commodity, Edge, Instance, generate_instance


def bellman_ford(inst: Instance, source: int, weights):
    """Independent O(V*E) oracle for single-source distances."""
    dist = [math.inf] * inst.nodes
    dist[source] = 0.0
    for _ in range(inst.nodes - 1):
        for e, edge in enumerate(inst.edges):
            w = weights[e]
            if dist[edge.u] + w < dist[edge.v]:
                dist[edge.v] = dist[edge.u] + w
            if dist[edge.v] + w < dist[edge.u]:
                dist[edge.u] = dist[edge.v] + w
    return dist


def path_line() -> Instance:
    return Instance(3, (Edge(0, 1, 1, 0, 0), Edge(1, 2, 1, 0, 0)), ())


def test_dijkstra_path_graph():
    inst = path_line()
    adj = Adjacency.from_instance(inst)
    pr = dijkstra(adj, 0, inst.edge_array("c"))
    assert pr.dist[2] == 2.0
    assert pr.reached.all()


def test_dijkstra_unreached_flagged():
    inst = Instance(3, (Edge(0, 1, 1, 0, 0),), ())
    adj = Adjacency.from_instance(inst)
    pr = dijkstra(adj, 0, inst.edge_array("c"))
    assert not pr.reached[2]
    assert math.isinf(pr.dist[2])


def test_dijkstra_rejects_negative_weights():
    inst = path_line()
    adj = Adjacency.from_instance(inst)
    with pytest.raises(ValueError, match="negative"):
        dijkstra(adj, 0, [-1.0, 1.0])


def test_dijkstra_matches_bellman_ford():
    for seed in range(10):
        inst = generate_instance(8, 0.5, 2, seed=seed)
        adj = Adjacency.from_instance(inst)
        w = inst.edge_array("c")
        expected = bellman_ford(inst, 0, w)
        pr = dijkstra(adj, 0, w)
        assert np.allclose(pr.dist, expected)


def numpy_dijkstra(adj: Adjacency, source: int, weights) -> PathResult:
    """Reference: ``dijkstra`` as it was on numpy arrays, whose trees and
    tie-breaks the list-based one keeps."""
    w = np.asarray(weights, dtype=float)
    dist = np.full(adj.nodes, math.inf)
    pred_arc = np.full(adj.nodes, NO_ARC, dtype=int)
    pred_node = np.full(adj.nodes, -1, dtype=int)
    done = np.zeros(adj.nodes, dtype=bool)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for arc, head in adj.out[node]:
            nd = d + w[arc >> 1]
            if nd < dist[head]:
                dist[head] = nd
                pred_arc[head] = arc
                pred_node[head] = node
                heapq.heappush(heap, (nd, head))
    return PathResult(source, dist, pred_arc, pred_node, done)


@st.composite
def weighted_graphs(draw):
    """A generated instance with some edges closed, so that some nodes may
    be unreached, and nonnegative weights that are multiples of 1/8, so
    that every path length is exact and equal lengths tie exactly; small
    integers and zeros make ties common."""
    n = draw(st.integers(5, 12))
    inst = generate_instance(n, draw(st.sampled_from([0.4, 0.6, 1.0])), 1, seed=draw(st.integers(0, 10_000)))
    E = inst.num_edges
    open_mask = draw(st.lists(st.booleans(), min_size=E, max_size=E))
    eighths = st.one_of(st.integers(0, 3), st.integers(0, 800)).map(lambda k: k / 8)
    weights = np.array(draw(st.lists(eighths, min_size=E, max_size=E)))
    return inst, open_mask, weights, draw(st.integers(0, n - 1))


@settings(max_examples=60)
@given(case=weighted_graphs())
def test_dijkstra_matches_scipy_and_the_numpy_reference(case):
    """Distances equal scipy's; distances, predecessor arcs and nodes and
    the reached flags equal the numpy reference's, ties included."""
    inst, open_mask, w, source = case
    adj = Adjacency.from_instance(inst, open_mask)
    pr = dijkstra(adj, source, w)
    dense = np.full((inst.nodes, inst.nodes), np.inf)
    for e, edge in enumerate(inst.edges):
        if open_mask[e]:
            dense[edge.u, edge.v] = dense[edge.v, edge.u] = w[e]
    expected = scipy_dijkstra(csgraph_from_dense(dense, null_value=np.inf), indices=source)
    assert np.array_equal(pr.dist, expected)
    ref = numpy_dijkstra(adj, source, w)
    for name in ("dist", "pred_arc", "pred_node", "reached"):
        got, want = getattr(pr, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(pr.reached, np.isfinite(expected))


def test_dijkstra_bellman_optimality():
    inst = generate_instance(9, 0.6, 2, seed=4)
    adj = Adjacency.from_instance(inst)
    w = inst.edge_array("c")
    pr = dijkstra(adj, 3, w)
    for node in range(inst.nodes):
        for arc, head in adj.out[node]:
            assert pr.dist[head] <= pr.dist[node] + w[arc >> 1] + 1e-12


def test_extract_path_basics():
    inst = path_line()
    adj = Adjacency.from_instance(inst)
    pr = dijkstra(adj, 0, inst.edge_array("c"))
    arcs = extract_path(pr, 2)
    assert [arc_endpoints(inst, a) for a in arcs] == [(0, 1), (1, 2)]
    assert extract_path(pr, 0) == []
    with pytest.raises(ValueError, match="unreached"):
        bad = Instance(3, (Edge(0, 1, 1, 0, 0),), ())
        badj = Adjacency.from_instance(bad)
        extract_path(dijkstra(badj, 0, bad.edge_array("c")), 2)


def test_extract_path_weight_sum_matches_distance():
    for seed in range(6):
        inst = generate_instance(8, 0.6, 2, seed=seed)
        adj = Adjacency.from_instance(inst)
        w = inst.edge_array("c")
        pr = dijkstra(adj, 1, w)
        for target in range(inst.nodes):
            arcs = extract_path(pr, target)
            assert abs(sum(w[a >> 1] for a in arcs) - pr.dist[target]) < 1e-9


def all_simple_paths(inst: Instance, o: int, d: int):
    adj = Adjacency.from_instance(inst)

    def walk(node, seen, arcs):
        if node == d:
            yield list(arcs)
            return
        for arc, head in adj.out[node]:
            if head not in seen:
                seen.add(head)
                arcs.append(arc)
                yield from walk(head, seen, arcs)
                arcs.pop()
                seen.remove(head)

    yield from walk(o, {o}, [])


def test_dag_unique_path():
    inst = path_line()
    adj = Adjacency.from_instance(inst)
    dag = shortest_path_dag(adj, 0, 2, inst.edge_array("c"))
    assert dag == {0, 2}  # forward arcs of both edges


def test_dag_includes_tied_routes():
    inst = Instance(
        4,
        (Edge(0, 1, 1, 0, 0), Edge(1, 3, 1, 0, 0), Edge(0, 2, 1, 0, 0), Edge(2, 3, 1, 0, 0)),
        (),
    )
    adj = Adjacency.from_instance(inst)
    dag = shortest_path_dag(adj, 0, 3, inst.edge_array("c"))
    assert dag == {0, 2, 4, 6}  # both parallel routes, forward arcs only


def test_dag_paths_are_all_shortest():
    for seed in range(6):
        inst = generate_instance(7, 0.6, 2, seed=seed)
        adj = Adjacency.from_instance(inst)
        w = inst.edge_array("c")
        pr = dijkstra(adj, 0, w)
        target = inst.nodes - 1
        dag = shortest_path_dag(adj, 0, target, w)
        best = pr.dist[target]
        inside = [
            p
            for p in all_simple_paths(inst, 0, target)
            if all(a in dag for a in p)
        ]
        assert inside, "the DAG must contain at least one full path"
        for p in inside:
            assert abs(sum(w[a >> 1] for a in p) - best) < 1e-9
        # and no shorter path exists at all
        for p in all_simple_paths(inst, 0, target):
            assert sum(w[a >> 1] for a in p) >= best - 1e-9


def test_dag_acyclic_under_positive_weights():
    inst = generate_instance(7, 0.7, 2, seed=9)
    adj = Adjacency.from_instance(inst)
    dag = shortest_path_dag(adj, 0, 5, inst.edge_array("c"))
    heads = {}
    for arc in dag:
        tail, head = arc_endpoints(inst, arc)
        heads.setdefault(tail, []).append(head)
    seen, done = set(), set()

    def has_cycle(node):
        seen.add(node)
        for nxt in heads.get(node, []):
            if nxt in seen and nxt not in done:
                return True
            if nxt not in seen and has_cycle(nxt):
                return True
        done.add(node)
        return False

    assert not any(has_cycle(n) for n in list(heads) if n not in seen)


def test_dag_unreachable_target():
    inst = Instance(3, (Edge(0, 1, 1, 0, 0),), ())
    adj = Adjacency.from_instance(inst)
    with pytest.raises(ValueError, match="unreachable"):
        shortest_path_dag(adj, 0, 2, inst.edge_array("c"))
