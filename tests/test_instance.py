import math

import numpy as np
import pytest

from fcndp.instance import (
    Commodity,
    Edge,
    Instance,
    InstanceParseError,
    InstanceValidationError,
    compute_big_m,
    generate_instance,
    load_instance,
    save_instance,
)

WORKED_TEXT = """\
# worked
nodes 3
edges 3
commodities 1
e 0 1 1 5 1
e 1 2 1 5 1
e 0 2 3 8 1
k 0 2 2
"""


def test_load_worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED_TEXT)
    inst = load_instance(path)
    assert inst.nodes == 3
    assert inst.num_edges == 3
    assert inst.num_commodities == 1
    assert inst.edges[2] == Edge(0, 2, 3.0, 8.0, 1.0)
    assert inst.commodities[0] == Commodity(0, 2, 2.0)
    assert inst.name == "worked"


def test_self_loop_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\nedges 1\ncommodities 0\ne 0 0 1 1 1\n")
    with pytest.raises(InstanceValidationError, match="self-loop"):
        load_instance(path)


def test_negative_quantity_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\nedges 1\ncommodities 1\ne 0 1 1 1 1\nk 0 1 -1\n")
    with pytest.raises(InstanceValidationError, match="quantity"):
        load_instance(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\nedges 1\ncommodities 0\ne 0 zzz 1 1 1\n")
    with pytest.raises(InstanceParseError, match="line 4"):
        load_instance(path)


def test_header_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\nedges 2\ncommodities 0\ne 0 1 1 1 1\n")
    with pytest.raises(InstanceParseError, match="edges"):
        load_instance(path)


def test_round_trip(tmp_path):
    inst = generate_instance(8, 0.6, 4, seed=11)
    path = tmp_path / "gen.txt"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    save_instance(again, tmp_path / "gen2.txt")
    assert (tmp_path / "gen.txt").read_text() == (tmp_path / "gen2.txt").read_text()


def test_round_trip_no_commodities(tmp_path):
    inst = Instance(2, (Edge(0, 1, 1, 2, 3),), (), name="empty")
    path = tmp_path / "empty.txt"
    save_instance(inst, path)
    assert "commodities 0" in path.read_text()
    assert load_instance(path) == inst


def test_save_unwritable_path(tmp_path):
    inst = Instance(2, (Edge(0, 1, 1, 2, 3),), ())
    with pytest.raises(OSError):
        save_instance(inst, tmp_path / "no" / "such" / "dir.txt")


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "field, invariant",
    [("c", "positive-length"), ("f", "nonnegative-fixed-cost"),
     ("beta", "nonnegative-unit-cost"), ("q", "positive-quantity")],
)
def test_non_finite_costs_rejected(field, invariant, value):
    """A NaN or infinite cost or quantity fails its sign invariant: NaN
    compares False either way, and no finite design cost comes out of an
    infinite one."""
    edge = dict(c=1.0, f=1.0, beta=1.0)
    q = 1.0
    if field == "q":
        q = value
    else:
        edge[field] = value
    with pytest.raises(InstanceValidationError, match=invariant) as exc:
        Instance(2, (Edge(0, 1, **edge),), (Commodity(0, 1, q),))
    assert exc.value.invariant == invariant


def test_load_rejects_nan_fixed_cost(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nodes 2\nedges 1\ncommodities 1\ne 0 1 1 nan 1\nk 0 1 1\n")
    with pytest.raises(InstanceValidationError, match="nonnegative-fixed-cost"):
        load_instance(path)


def test_duplicate_edge_rejected():
    with pytest.raises(InstanceValidationError, match="duplicate"):
        Instance(3, (Edge(0, 1, 1, 1, 1), Edge(1, 0, 2, 2, 2)), ())


def test_generate_edge_counts():
    inst = generate_instance(10, 0.3, 5, seed=1)
    assert inst.num_edges == math.floor(0.3 * 45) == 13
    assert inst.name == "10-0.3-5-1"
    full = generate_instance(10, 1.0, 5, seed=1)
    assert full.num_edges == 45


def test_generate_deterministic():
    a = generate_instance(9, 0.5, 4, seed=7)
    b = generate_instance(9, 0.5, 4, seed=7)
    assert a == b
    c = generate_instance(9, 0.5, 4, seed=8)
    assert c != a


def test_generate_connected_and_in_range():
    for seed in range(8):
        inst = generate_instance(7, 0.4, 3, seed=seed)
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(inst.nodes)}
        for e in inst.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(range(inst.nodes))
        for e in inst.edges:
            assert 1 <= e.c <= 20 and 50 <= e.f <= 200 and 1 <= e.beta <= 5
        for k in inst.commodities:
            assert k.origin != k.destination and 1 <= k.quantity <= 10
        assert inst.is_integer_data()


def test_generate_infeasible_density():
    with pytest.raises(InstanceValidationError, match="density"):
        generate_instance(10, 0.05, 1, seed=0)


def test_big_m_values():
    inst = Instance(
        4,
        (Edge(0, 1, 2, 0, 0), Edge(1, 2, 3, 0, 0), Edge(2, 3, 5, 0, 0)),
        (),
    )
    bm = compute_big_m(inst)
    assert bm[1] == 3 + 10
    single = Instance(2, (Edge(0, 1, 7, 0, 0),), ())
    assert compute_big_m(single)[0] == 14


def test_big_m_makes_closed_edge_rows_vacuous(worked):
    # with y = 0 and x = 0 the optimality row reads pi_i - pi_j <= M_e,
    # which must hold for any potentials bounded by the total edge length
    bm = compute_big_m(worked)
    total = sum(e.c for e in worked.edges)
    rng = np.random.default_rng(0)
    for _ in range(200):
        pi = rng.uniform(0, total, size=worked.nodes)
        for e, edge in enumerate(worked.edges):
            assert pi[edge.u] - pi[edge.v] <= bm[e]
            assert pi[edge.v] - pi[edge.u] <= bm[e]


def test_variable_cost_single_source_of_truth():
    inst = generate_instance(6, 0.6, 3, seed=2)
    beta = inst.edge_array("beta")
    for k, com in enumerate(inst.commodities):
        g = com.quantity * beta
        assert np.all(g == com.quantity * np.array([e.beta for e in inst.edges]))
