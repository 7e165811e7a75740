"""Output checks for the benchmark, independent of the library's own scoring.

Every operation the benchmark times is checked after the timed region:

  * the returned order must be a permutation of the job ids;
  * its objective must equal ``rescore``, a direct simulation written here
    rather than the library's ``compute_profile``;
  * a solve must match the optimum that branch and bound proves for the
    same instance, and branch and bound must actually prove it.

Each check yields a list of failure reasons; an empty list is a pass. The
module imports nothing from the library, so it can score what the library
returns without trusting any of its code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

# A solve whose objective exceeds the proven optimum.
OPTIMUM_MISSED = "optimum_missed"


def rescore(release: tuple[int, ...], processing: tuple[int, ...], order: tuple[int, ...]) -> int:
    """Total waiting of ``order``: each job starts at max(machine free, release)."""
    free_at = None
    total = 0
    for job in order:
        r = release[job - 1]
        start = r if free_at is None or free_at < r else free_at
        total += start - r
        free_at = start + processing[job - 1]
    return total


def is_permutation(order: object, n: int) -> bool:
    """True when ``order`` holds each job id 1..n exactly once."""
    try:
        jobs = list(order)
    except TypeError:
        return False
    return len(jobs) == n and all(type(j) is int for j in jobs) and sorted(jobs) == list(
        range(1, n + 1)
    )


def proof_failures(inst, proof) -> list[str]:
    """Reasons a branch-and-bound result is not a proven, correctly scored optimum."""
    if isinstance(proof, BaseException):
        return ["oracle_raised"]
    reasons = []
    if not proof.proved_optimal:
        reasons.append("not_proved")
    order = proof.sequence.order
    if not is_permutation(order, inst.n):
        reasons.append("oracle_not_permutation")
    elif rescore(inst.release, inst.processing, order) != proof.objective:
        reasons.append("oracle_objective_mismatch")
    return reasons


def solve_failures(inst, result, proof) -> list[str]:
    """Reasons an ``optimal_sort`` result fails, judged against a proof for ``inst``."""
    if isinstance(result, BaseException):
        reasons = ["raised"]
    else:
        reasons = []
        if result.safety_tripped:
            reasons.append("safety_tripped")
        order = result.best_sequence.order
        if not is_permutation(order, inst.n):
            reasons.append("not_permutation")
        elif rescore(inst.release, inst.processing, order) != result.best_objective:
            reasons.append("objective_mismatch")
    oracle = proof_failures(inst, proof)
    reasons.extend(oracle)
    if not reasons:
        if result.best_objective > proof.objective:
            reasons.append(OPTIMUM_MISSED)
        elif result.best_objective < proof.objective:
            reasons.append("beats_proven_optimum")
    return reasons


@dataclass
class Tally:
    """Operations attempted, operations failed, and failures by reason."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)

    @property
    def misses(self) -> int:
        return self.reasons[OPTIMUM_MISSED]
