"""Exact-by-audit single-machine scheduling with release times.

Minimizes total waiting (equivalently total completion time) of jobs with
integer release and processing times on one machine, without preemption.
The solver is a structured local search over single-job relocations with
closed-form objective deltas; independent exact oracles, a benchmark
harness, and a counterexample miner keep it honest.
"""

from .instances import (
    Instance,
    InstanceFormatError,
    Sequence,
    derive_seed,
    generate_instance,
    initial_sequence,
    parse_instance,
    serialize_instance,
)
from .timeline import (
    FCFS_CONSISTENT,
    LCFS_SWAPPED,
    EngineInvariantError,
    WaitingProfile,
    classify_adjacent,
    compute_profile,
    segment_completion,
    segment_cost,
    segment_profile,
)
from .propagation import (
    DECREASE,
    INCREASE,
    FlowTrace,
    objective_delta,
    propagate_decrease,
    propagate_increase,
)
from .move_calculus import (
    BACKWARD,
    FORWARD,
    MoveEvaluation,
    apply_move,
    backward_move_delta,
    forward_move_delta,
    idle_adjustment,
)
from .solution_sets import backward_solution_set, forward_solution_set
from .rules import (
    adjacent_exchange,
    bottleneck_breakthrough,
    certify_global,
)
from .driver import SolveResult, backward_traversal, consumption_operator, optimal_sort
from .oracles import (
    OracleResult,
    auto_big_m,
    branch_and_bound_optimum,
    brute_force_optimum,
    export_milp,
    srpt_waiting_bound,
)
from .harness import (
    BenchReport,
    BenchRow,
    Counterexample,
    audit_instance,
    bench_instance,
    cli_main,
    mine_counterexamples,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "InstanceFormatError",
    "Sequence",
    "derive_seed",
    "generate_instance",
    "initial_sequence",
    "parse_instance",
    "serialize_instance",
    "EngineInvariantError",
    "WaitingProfile",
    "FCFS_CONSISTENT",
    "LCFS_SWAPPED",
    "classify_adjacent",
    "compute_profile",
    "segment_completion",
    "segment_cost",
    "segment_profile",
    "FlowTrace",
    "DECREASE",
    "INCREASE",
    "objective_delta",
    "propagate_decrease",
    "propagate_increase",
    "MoveEvaluation",
    "FORWARD",
    "BACKWARD",
    "apply_move",
    "backward_move_delta",
    "forward_move_delta",
    "idle_adjustment",
    "backward_solution_set",
    "forward_solution_set",
    "adjacent_exchange",
    "bottleneck_breakthrough",
    "certify_global",
    "SolveResult",
    "backward_traversal",
    "consumption_operator",
    "optimal_sort",
    "OracleResult",
    "auto_big_m",
    "branch_and_bound_optimum",
    "brute_force_optimum",
    "export_milp",
    "srpt_waiting_bound",
    "BenchReport",
    "BenchRow",
    "Counterexample",
    "audit_instance",
    "bench_instance",
    "cli_main",
    "mine_counterexamples",
    "run_benchmark",
]
