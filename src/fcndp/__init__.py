"""Solver suite for the fixed-charge uncapacitated network design problem
with user-optimal flows: construction, bounding, variable fixing, local
branching, ejection-cycle perturbation, an iterated-local-search driver, an
exact enumeration oracle and a benchmarking harness."""

from .instance import (
    Commodity,
    Edge,
    Instance,
    InstanceError,
    InstanceParseError,
    InstanceValidationError,
    compute_big_m,
    generate_instance,
    load_instance,
    save_instance,
)
from .graph import Adjacency, PathResult, dijkstra, extract_path, shortest_path_dag
from .solution import (
    FeasibilityReport,
    Solution,
    close_unused_edges,
    evaluate_cost,
    solution_from_dict,
    solution_to_dict,
    solution_to_json,
    verify_bilevel,
)
from .model import MipModel, add_local_branching_cut, build_model
from .milp import LpResult, solve_bnb, solve_lp
from .heuristics import (
    InefficiencyReport,
    LboundResult,
    VfhResult,
    candidate_list,
    ejection_cycle,
    inefficiency_metrics,
    lbound,
    local_branching,
    partial_decoupling,
    vfh,
)
from .driver import RunRecord, SolverConfig, update_best, vfhlb
from .oracle import OracleResult, oracle_solution, solve_exact
from .bench import (
    ComparisonRow,
    TttSeries,
    batch,
    run_ttt,
    wilcoxon_exact_pvalue,
    wilcoxon_rank_sum,
)

__version__ = "0.1.0"
