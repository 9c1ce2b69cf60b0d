"""Iterated local search driver: construction + fixing, local branching as
the local search, ejection-cycle perturbation, best-solution tracking."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .heuristics import ejection_cycle, local_branching, proves_optimal, vfh
from .instance import Instance
from .solution import Solution


@dataclass
class SolverConfig:
    """``time_limit`` (seconds, > 0) is a deadline for the whole ``vfhlb``
    run; only the construction and the model builds do not read it."""

    gamma: float = 0.85
    delta: int | None = None  # None resolves to ceil(E / 2)
    iterations: int = 10
    seed: int = 0
    time_limit: float | None = None

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if self.delta is not None and self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")

    def resolve_delta(self, inst: Instance) -> int:
        return self.delta if self.delta is not None else math.ceil(inst.num_edges / 2)


@dataclass
class RunRecord:
    seed: int
    cost: float
    lower_bound: float
    gap: float
    trajectory: list[tuple[float, float]] = field(default_factory=list)  # (cost, elapsed s)
    wall_time_s: float = 0.0
    status: str = "ok"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cost": self.cost,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "trajectory": [[c, t] for c, t in self.trajectory],
            "wall_time_s": self.wall_time_s,
            "status": self.status,
        }


def update_best(best: Solution | None, candidate: Solution) -> Solution:
    """Strictly cheaper candidate wins; ties keep the incumbent."""
    if best is None or candidate.cost < best.cost:
        return candidate
    return best


def vfhlb(inst: Instance, cfg: SolverConfig | None = None) -> tuple[Solution, RunRecord]:
    """Full solver run; deterministic given (instance, config).

    Runs ``vfh``, then, while the bound does not prove the best solution
    optimal (``proves_optimal``), local branching from the ``vfh``
    incumbent and up to the configured number of perturb + local-branch
    iterations, tracking the best solution seen. An iteration whose
    perturbation returns the solution local branching last started from
    skips that search. The trajectory holds one entry per stage that ran,
    so a run that ``vfh`` proves has one. ``cfg.time_limit`` sets one
    deadline that every stage reads, down to the simplex pivot loops, those
    of the root relaxations included; only the construction and the model
    builds do not read it. A run that ends past its deadline without a
    proof has status ``time-limit``.
    """
    cfg = cfg or SolverConfig()
    delta = cfg.resolve_delta(inst)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.monotonic()
    deadline = t0 + (cfg.time_limit or math.inf)
    res = vfh(inst, cfg.gamma, rng=rng, deadline=deadline)
    current = res.solution
    bound = res.lower_bound
    best = current
    trajectory = [(best.cost, time.monotonic() - t0)]
    if not proves_optimal(inst, best.cost, bound):
        searched = current  # the Solution the last local_branching call started from
        current = local_branching(inst, current, delta, deadline=deadline)
        best = update_best(best, current)
        trajectory.append((best.cost, time.monotonic() - t0))
        for _ in range(cfg.iterations):
            if proves_optimal(inst, best.cost, bound) or time.monotonic() >= deadline:
                break
            current = ejection_cycle(inst, current, cfg.gamma, rng=rng)
            # local branching reads only the design, the cost and the budget:
            # when the perturbation returned the design last searched from,
            # the same neighbourhood would be searched again for nothing
            if current is not searched:
                searched = current
                current = local_branching(inst, current, delta, deadline=deadline)
            best = update_best(best, current)
            trajectory.append((best.cost, time.monotonic() - t0))
    end = time.monotonic()
    # a stage the deadline cuts returns what it has, so only the clock tells
    # that an unproven run was cut
    cut = end >= deadline and not proves_optimal(inst, best.cost, bound)
    record = RunRecord(
        seed=cfg.seed,
        cost=best.cost,
        lower_bound=bound,
        gap=best.cost - bound,
        trajectory=trajectory,
        wall_time_s=end - t0,
        status="time-limit" if cut else "ok",
    )
    return best, record
