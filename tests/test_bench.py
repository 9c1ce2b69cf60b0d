import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from fcndp import bench
from fcndp.bench import (
    batch,
    run_ttt,
    ttt_probabilities,
    wilcoxon_exact_pvalue,
    wilcoxon_rank_sum,
    write_compare_csv,
    write_records_ndjson,
    write_ttt_csv,
)
from fcndp.driver import SolverConfig
from fcndp.instance import Commodity, Edge, Instance, generate_instance
from fcndp.oracle import solve_exact


def test_ttt_probability_formula():
    p100 = ttt_probabilities(100)
    assert p100[0] == 0.005
    assert p100[-1] == 0.995
    assert np.array_equal(ttt_probabilities(4), [0.125, 0.375, 0.625, 0.875])
    assert np.all(np.diff(p100) > 0)
    assert np.all((p100 > 0) & (p100 < 1))


def test_run_ttt_on_worked(worked, tmp_path):
    series = run_ttt(worked, SolverConfig(seed=3), target=1.22 * 10.0, n_runs=4, optimum=10.0)
    assert np.array_equal(series.probs, [0.125, 0.375, 0.625, 0.875])
    assert np.all(np.diff(series.times) >= 0)
    assert all(r["hit"] for r in series.rows)
    assert [r["seed"] for r in series.rows] == [3, 4, 5, 6]
    path = tmp_path / "ttt.csv"
    write_ttt_csv(series, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["target", "run", "seed", "time_s", "hit"]
    assert len(rows) == 5


def test_run_ttt_rejects_unreachable_target(worked):
    with pytest.raises(ValueError, match="below the optimum"):
        run_ttt(worked, SolverConfig(), target=9.0, n_runs=2, optimum=10.0)


def test_wilcoxon_identical_samples():
    res = wilcoxon_rank_sum([3, 3, 3], [3, 3, 3])
    assert res.p_value == 1.0
    assert not res.reject


def test_wilcoxon_separated_samples_exact_point_one():
    a, b = [1, 2, 3], [101, 102, 103]
    exact = wilcoxon_exact_pvalue(a, b)
    assert exact == pytest.approx(2 / 20)
    res = wilcoxon_rank_sum(a, b)
    assert abs(res.p_value - exact) <= 0.05
    assert not res.reject  # theta = 0.01 needs larger samples


def test_wilcoxon_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 8, size=int(rng.integers(2, 6))).tolist()
        b = rng.integers(0, 8, size=int(rng.integers(2, 6))).tolist()
        ab = wilcoxon_rank_sum(a, b)
        ba = wilcoxon_rank_sum(b, a)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)


def test_wilcoxon_rejects_clear_difference():
    a = list(range(12))
    b = [x + 100 for x in range(12)]
    res = wilcoxon_rank_sum(a, b)
    assert res.reject


def test_wilcoxon_normal_close_to_exact_sampled():
    # untied draws; pairs with n+m >= 6 are within 0.05 of exact even in the
    # worst assignment (the tiniest pairs have a documented inherent limit
    # at the extreme assignments, covered by the acceptance suite)
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(max(2, 6 - n), 8 - n))
        a = rng.uniform(0, 1, size=n).tolist()
        b = rng.uniform(0, 1, size=m).tolist()
        exact = wilcoxon_exact_pvalue(a, b)
        approx = wilcoxon_rank_sum(a, b).p_value
        assert abs(approx - exact) <= 0.05, (a, b, exact, approx)


def test_wilcoxon_tied_samples_use_finer_correction():
    # midranks halve the lattice spacing; regression for a tied case where
    # the full 0.5 correction overshoots
    a, b = [5, 1, 0], [3, 4, 4, 3, 4]
    exact = wilcoxon_exact_pvalue(a, b)
    approx = wilcoxon_rank_sum(a, b).p_value
    assert abs(approx - exact) <= 0.05


def test_wilcoxon_against_scipy_untied():
    from scipy.stats import mannwhitneyu

    rng = np.random.default_rng(5)
    for _ in range(10):
        pool = rng.permutation(40)[:12].astype(float)
        a, b = pool[:6].tolist(), pool[6:].tolist()
        ref = mannwhitneyu(a, b, alternative="two-sided", method="exact")
        exact = wilcoxon_exact_pvalue(a, b)
        assert exact == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_guards():
    with pytest.raises(ValueError, match="two observations"):
        wilcoxon_rank_sum([1], [2, 3])
    with pytest.raises(ValueError, match="enumerate"):
        wilcoxon_exact_pvalue(list(range(20)), list(range(20)))


def test_batch_single_method(tmp_path):
    inst = generate_instance(6, 0.7, 2, seed=0)
    opt = solve_exact(inst).cost
    rows, records = batch(
        [inst], [("vfhlb", SolverConfig(seed=10))], repetitions=5,
        optima={inst.name: opt},
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.instance == inst.name
    assert len([r for r in records if r.get("ok")]) == 5
    assert [r["seed"] for r in records] == [10, 11, 12, 13, 14]
    assert row.best_sol <= row.avg_sol
    assert row.gap >= 0.0 and row.avg_gap >= 0.0
    write_compare_csv(rows, tmp_path / "compare.csv")
    with open(tmp_path / "compare.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "instance", "method", "avg_sol", "avg_time", "dev_time",
        "best_sol", "best_time", "avg_gap", "gap",
    ]
    write_records_ndjson(records, tmp_path / "records.ndjson")
    lines = (tmp_path / "records.ndjson").read_text().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0])["method"] == "vfhlb"


def test_batch_optimal_method_zero_gap():
    inst = generate_instance(6, 0.8, 2, seed=1)
    opt = solve_exact(inst).cost
    rows, _ = batch([inst], [("vfhlb", SolverConfig())], 2, optima={inst.name: opt})
    # the solver finds the optimum on this instance, so both gaps vanish
    assert rows[0].gap == 0.0
    assert rows[0].avg_gap == 0.0


def test_batch_identical_methods_identical_costs():
    inst = generate_instance(6, 0.6, 2, seed=2)
    rows, _ = batch(
        [inst], [("a", SolverConfig(seed=4)), ("b", SolverConfig(seed=4))], 3
    )
    a, b = rows
    assert a.avg_sol == b.avg_sol
    assert a.best_sol == b.best_sol
    assert math.isnan(a.gap) and math.isnan(b.gap)  # no optimum provided


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_records_failed_run(jobs):
    # two components: the commodity from 0 cannot reach 3, so the run raises
    split = Instance(
        4,
        (Edge(0, 1, 1, 5, 1), Edge(2, 3, 1, 5, 1)),
        (Commodity(0, 3, 1),),
        name="split",
    )
    good = generate_instance(5, 0.7, 2, 1)
    _, records = batch([split, good], [("vfhlb", SolverConfig())], 1, jobs=jobs)
    by_name = {r["instance"]: r for r in records}
    assert len(records) == 2
    assert by_name["split"]["ok"] is False
    assert "unreached" in by_name["split"]["error"]
    assert by_name[good.name]["ok"] is True


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patched run reaches the workers only when they fork",
)
def test_batch_survives_a_dead_worker(monkeypatch):
    """A worker process that dies breaks its pool and loses the run in the
    other worker with it; the dead run is recorded as failed, and every
    other run of the batch, the lost one included, comes back."""
    run = bench.vfhlb

    def doomed(inst, cfg):
        if inst.name == "doomed":
            os._exit(1)
        time.sleep(0.5)  # so that the first run is still in flight when its neighbour dies
        return run(inst, cfg)

    monkeypatch.setattr(bench, "vfhlb", doomed)
    good = [generate_instance(5, 0.7, 2, seed) for seed in range(3)]
    dead = replace(generate_instance(5, 0.7, 2, 9), name="doomed")
    _, records = batch([good[0], dead, *good[1:]], [("vfhlb", SolverConfig())], 1, jobs=2)
    assert [r["instance"] for r in records if not r["ok"]] == ["doomed"]
    assert records[[r["instance"] for r in records].index("doomed")] == {
        "instance": "doomed", "method": "vfhlb", "repetition": 0, "ok": False, "error": "worker process died"
    }
    assert sorted(r["instance"] for r in records if r["ok"]) == sorted(inst.name for inst in good)


def test_batch_validation():
    with pytest.raises(ValueError):
        batch([], [("m", SolverConfig())], 1)
