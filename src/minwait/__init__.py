"""Exact-by-audit single-machine scheduling with release times.

Minimizes total waiting (equivalently total completion time) of jobs with
integer release and processing times on one machine, without preemption.
The solver is a structured local search over single-job relocations with
closed-form objective deltas; independent exact oracles keep it honest.

The root exports the library: instances, the waiting profile of a queue,
flow propagation, the move calculus, the solution sets, the two block
rules, the solver and the oracles. The benchmark, the exactness audit, the
counterexample miner and the command line live in ``minwait.harness``.
"""

from .instances import (
    Instance,
    InstanceFormatError,
    Sequence,
    bench_instance,
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
    segment_cost,
    segment_profile,
)
from .propagation import objective_delta, propagate_decrease, propagate_increase
from .move_calculus import (
    BACKWARD,
    FORWARD,
    apply_move,
    backward_move_delta,
    forward_move_delta,
)
from .solution_sets import backward_solution_set, forward_solution_set
from .rules import adjacent_exchange, bottleneck_breakthrough, certify_global
from .driver import optimal_sort
from .oracles import branch_and_bound_optimum, brute_force_optimum, export_milp

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "InstanceFormatError",
    "Sequence",
    "bench_instance",
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
    "segment_cost",
    "segment_profile",
    "objective_delta",
    "propagate_decrease",
    "propagate_increase",
    "FORWARD",
    "BACKWARD",
    "apply_move",
    "forward_move_delta",
    "backward_move_delta",
    "forward_solution_set",
    "backward_solution_set",
    "adjacent_exchange",
    "bottleneck_breakthrough",
    "certify_global",
    "optimal_sort",
    "branch_and_bound_optimum",
    "brute_force_optimum",
    "export_milp",
]
