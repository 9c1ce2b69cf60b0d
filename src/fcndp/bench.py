"""Experiment harness: time-to-target series, rank-sum significance tests
and batch comparison tables over repeated solver runs."""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, dataclass, fields, replace
from itertools import combinations

import numpy as np

from .driver import RunRecord, SolverConfig, vfhlb
from .instance import Instance


@dataclass
class TttSeries:
    target: float
    times: np.ndarray  # sorted ascending
    probs: np.ndarray  # (i - 0.5) / N
    rows: list[dict]  # per run: run, seed, time_s, hit


def ttt_probabilities(n_runs: int) -> np.ndarray:
    return (np.arange(1, n_runs + 1) - 0.5) / n_runs


def run_ttt(
    inst: Instance,
    cfg_template: SolverConfig,
    target: float,
    n_runs: int = 100,
    *,
    optimum: float | None = None,
) -> TttSeries:
    """Independent seeded runs recording when each first reaches the target.

    Runs that never reach it are censored at the time limit and flagged in
    the rows, but still appear in the sorted series.
    """
    if optimum is not None and target < optimum:
        raise ValueError(f"target {target} is below the optimum {optimum}")
    rows: list[dict] = []
    for run in range(n_runs):
        cfg = replace(cfg_template, seed=cfg_template.seed + run)
        _, rec = vfhlb(inst, cfg)
        hit_time = None
        for cost, elapsed in rec.trajectory:
            if cost <= target + 1e-9:
                hit_time = elapsed
                break
        hit = hit_time is not None
        if not hit:
            hit_time = cfg.time_limit if cfg.time_limit is not None else rec.wall_time_s
        rows.append({"run": run, "seed": cfg.seed, "time_s": float(hit_time), "hit": hit})
    times = np.sort(np.array([r["time_s"] for r in rows]))
    return TttSeries(float(target), times, ttt_probabilities(n_runs), rows)


def write_ttt_csv(series: TttSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "run", "seed", "time_s", "hit"])
        for row in series.rows:
            writer.writerow(
                [series.target, row["run"], row["seed"], row["time_s"], int(row["hit"])]
            )


@dataclass
class WilcoxonResult:
    statistic: float  # rank sum of the first sample, midranks for ties
    p_value: float
    reject: bool


def _midranks(pooled: np.ndarray) -> np.ndarray:
    """1-based ranks; a tie group's is the mean of the ranks it spans, its
    last rank less (size - 1) / 2."""
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def wilcoxon_rank_sum(a, b, theta: float = 0.01) -> WilcoxonResult:
    """Two-sided rank-sum test, midrank ties, tie-corrected normal
    approximation with continuity correction; rejects when p < theta."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    if n < 2 or m < 2:
        raise ValueError("need at least two observations per sample")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    w = float(ranks[:n].sum())
    big_n = n + m
    mu = n * (big_n + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3) - counts).sum()) / (big_n * (big_n - 1))
    var = n * m / 12.0 * ((big_n + 1) - tie_term)
    if var <= 0:
        return WilcoxonResult(w, 1.0, False)
    # continuity correction at half the statistic's lattice spacing:
    # integer ranks step by 1, midranks by 0.5
    cc = 0.5 if len(counts) == big_n else 0.25
    z = max((abs(w - mu) - cc) / math.sqrt(var), 0.0)
    p = min(1.0, 2.0 * _norm_sf(z))
    return WilcoxonResult(w, p, p < theta)


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_exact_pvalue(a, b) -> float:
    """Exact two-sided permutation p-value of the rank-sum statistic,
    enumerating every assignment of pooled midranks to the first sample."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    total = math.comb(n + m, n)
    if total > 2_000_000:
        raise ValueError(f"{total} assignments is too many to enumerate")
    ranks = _midranks(np.concatenate([a, b]))
    w_obs = float(ranks[:n].sum())
    mu = n * (n + m + 1) / 2.0
    threshold = abs(w_obs - mu) - 1e-9
    count = 0
    for picks in combinations(range(n + m), n):
        w = float(ranks[list(picks)].sum())
        if abs(w - mu) >= threshold:
            count += 1
    return count / total


@dataclass
class ComparisonRow:
    instance: str
    method: str
    avg_sol: float
    avg_time: float
    dev_time: float
    best_sol: float
    best_time: float
    avg_gap: float
    gap: float


def _head(task) -> dict:
    """The fields that name a run in its record."""
    inst, name, _, rep = task
    return {"instance": inst.name or "unnamed", "method": name, "repetition": rep}


def _run_one(task) -> dict:
    """One seeded run as a record; a run that raises is recorded as failed."""
    inst, _, cfg, rep = task
    out = _head(task)
    try:
        _, rec = vfhlb(inst, replace(cfg, seed=cfg.seed + rep))
    except Exception as exc:  # per-run failures recorded, not fatal
        return {**out, "ok": False, "error": str(exc)}
    return {**rec.to_dict(), **out, "ok": True}


def _run_pool(tasks: list, jobs: int) -> list[dict]:
    """``_run_one`` over ``tasks`` in up to ``jobs`` worker processes, one
    record per task in task order. A worker that dies (an OOM kill, say)
    breaks its pool and loses every run in flight with it; each of those
    runs again alone in a fresh one-worker pool and is recorded as failed if
    its worker dies again, and the runs not yet started go on in a fresh
    pool."""
    records: list[dict | None] = [None] * len(tasks)
    waiting = deque(range(len(tasks)))
    lost: deque[int] = deque()
    while waiting or lost:
        alone = bool(lost)
        for i in _run_until_broken(tasks, lost if alone else waiting, 1 if alone else jobs, records):
            if alone:
                records[i] = {**_head(tasks[i]), "ok": False, "error": "worker process died"}
            else:
                lost.append(i)
    return records


def _run_until_broken(tasks: list, order: deque, workers: int, records: list) -> list[int]:
    """Runs the tasks whose indices ``order`` yields, at most ``workers`` at
    a time, into ``records``, until ``order`` is empty or the pool breaks.
    Returns the indices of the runs a broken pool lost; a task it never
    started stays in ``order``."""
    lost: list[int] = []
    broken = False
    with ProcessPoolExecutor(max_workers=workers) as pool:
        running: dict = {}
        while running or (order and not broken):
            while order and not broken and len(running) < workers:
                i = order.popleft()
                try:
                    running[pool.submit(_run_one, tasks[i])] = i
                except BrokenProcessPool:
                    order.appendleft(i)
                    broken = True
            if not running:
                break
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                try:
                    records[i] = future.result()
                except BrokenProcessPool:
                    lost.append(i)
                    broken = True
    return lost


def batch(
    instances: list[Instance],
    methods: list[tuple[str, SolverConfig]],
    repetitions: int,
    *,
    optima: dict[str, float] | None = None,
    jobs: int = 1,
) -> tuple[list[ComparisonRow], list[dict]]:
    """Per instance x method aggregates over seeded repetitions.

    Seeds follow base + repetition index. Gap columns need the optimum in
    ``optima`` (keyed by instance name) and are NaN otherwise. Failed runs,
    a run whose worker process died included, are recorded and skipped in
    the aggregates.
    """
    if not instances or not methods or repetitions < 1:
        raise ValueError("need instances, methods and at least one repetition")
    tasks = [
        (inst, name, cfg, rep)
        for inst in instances
        for name, cfg in methods
        for rep in range(repetitions)
    ]
    if jobs > 1:
        records = _run_pool(tasks, jobs)
    else:
        records = [_run_one(task) for task in tasks]
    records.sort(key=lambda r: (r["instance"], r["method"], r["repetition"]))
    rows: list[ComparisonRow] = []
    for inst in instances:
        iname = inst.name or "unnamed"
        opt = (optima or {}).get(iname)
        for name, _ in methods:
            runs = [
                r
                for r in records
                if r["instance"] == iname and r["method"] == name and r.get("ok")
            ]
            if not runs:
                continue
            costs = np.array([r["cost"] for r in runs])
            times = np.array([r["wall_time_s"] for r in runs])
            best_sol = float(costs.min())
            best_time = float(times[costs == costs.min()].min())
            avg_sol = float(costs.mean())
            gap = (best_sol - opt) / opt if opt else math.nan
            avg_gap = (avg_sol - opt) / opt if opt else math.nan
            rows.append(
                ComparisonRow(
                    instance=iname,
                    method=name,
                    avg_sol=avg_sol,
                    avg_time=float(times.mean()),
                    dev_time=float(times.std()),
                    best_sol=best_sol,
                    best_time=best_time,
                    avg_gap=avg_gap,
                    gap=gap,
                )
            )
    return rows, records


def write_compare_csv(rows: list[ComparisonRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(ComparisonRow)])
        writer.writerows(astuple(r) for r in rows)


def write_records_ndjson(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
