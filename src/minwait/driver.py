"""The solver: sweep candidate relocations, rework the blocks they induce.

One outer pass recomputes the forward solution space of the incumbent and,
for every candidate relocation, builds a full candidate sequence: apply the
move, run bottleneck breakthrough on the wait-decreasing block, hand the
idle shift plus the move's own handoff to the wait-increasing block, run
adjacent exchange there, then let the consumption operator and the backward
traversal refine the result. A candidate is adopted only when its exactly
recomputed objective is strictly smaller, so the objective strictly
decreases across passes and termination is guaranteed; a safety valve still
caps passes at n^2 and reports instead of hanging.

Both amounts a pipeline hands on are completion differences: the handoff
is the new completion of the span the move reorders minus its old one, and
the idle shift is the reworked block's completion minus the moved block's,
both replayed from the same entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .instances import Instance, Sequence, initial_sequence
from .move_calculus import (
    BACKWARD,
    FORWARD,
    apply_move,
    insertion_seed,
    relocation_handoff,
)
from .rules import (
    ROLE_DECREASING,
    ROLE_INCREASING,
    SegmentContext,
    adjacent_exchange,
    bottleneck_breakthrough,
)
from .solution_sets import backward_solution_set, forward_solution_set
from .timeline import WaitingProfile, compute_profile, segment_completion

# Not called here; the benchmark tracer wraps each of these names in this module.
from .move_calculus import backward_move_delta, forward_move_delta, idle_adjustment  # noqa: F401
from .timeline import segment_profile  # noqa: F401


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve; move_log rows are (pass, kind, i, k, delta)."""

    best_sequence: Sequence
    best_objective: int
    iterations: int
    move_log: tuple[tuple[int, str, int, int, int], ...]
    elapsed: float
    safety_tripped: bool


class _Scorer:
    """Per-solve memo of exact objectives keyed by order."""

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self._memo: dict[tuple[int, ...], int] = {}

    def objective(self, seq: Sequence) -> int:
        cached = self._memo.get(seq.order)
        if cached is None:
            cached = compute_profile(self.inst, seq).objective
            self._memo[seq.order] = cached
        return cached


def _idle_shift(
    inst: Instance, before: Sequence, after: Sequence, start: int, stop: int, entry: int
) -> int:
    """Downstream entry shift from reworking positions start..stop, entered at ``entry``."""
    if after is before:
        return 0
    block = slice(start - 1, stop)
    return segment_completion(inst, after.order[block], entry) - segment_completion(
        inst, before.order[block], entry
    )


def _forward_pipeline(
    inst: Instance,
    seq: Sequence,
    profile: WaitingProfile,
    i: int,
    k: int,
    whole_exchange: bool = False,
) -> Sequence:
    """Candidate sequence for "move position i after position k" plus rule work.

    The rising block after position k receives the move's handoff (the
    completion shift at position k) plus the idle shift of the reworked
    falling block (its completion change from the freed entry).
    """
    moved = apply_move(seq, i, k, FORWARD)
    mover = seq.job_at(i)
    flow_drop = inst.p(mover) - min(0, profile.wait_at(i))
    block_entry = profile.completions[i - 1]
    ctx_drop = SegmentContext(
        start=i, stop=k - 1, role=ROLE_DECREASING, flow_in=flow_drop, entry_time=block_entry
    )
    reworked, _ = bottleneck_breakthrough(ctx_drop, inst, moved)
    if k < inst.n:
        shift = _idle_shift(inst, moved, reworked, i, k - 1, block_entry - flow_drop)
        handoff = relocation_handoff(profile, inst, moved, i, k)
        ctx_rise = SegmentContext(
            start=k + 1,
            stop=inst.n,
            role=ROLE_INCREASING,
            flow_in=max(0, handoff + shift),
            entry_time=profile.completions[k - 1],
        )
        reworked, _ = adjacent_exchange(ctx_rise, inst, reworked)
    if whole_exchange:
        ctx_all = SegmentContext(
            start=1,
            stop=inst.n,
            role=ROLE_INCREASING,
            flow_in=0,
            entry_time=inst.r(reworked.order[0]),
        )
        reworked, _ = adjacent_exchange(ctx_all, inst, reworked)
    return reworked


def _backward_pipeline(
    inst: Instance, seq: Sequence, profile: WaitingProfile, i: int, k: int
) -> Sequence:
    """Candidate sequence for "move position i before position k" plus rule work.

    The falling block after position i receives the move's handoff (the
    completion shift at position i) minus the idle shift of the reworked
    rising block (its completion change from the delayed entry).
    """
    moved = apply_move(seq, i, k, BACKWARD)
    seed = insertion_seed(profile, inst, i, k)
    block_entry = profile.completions[k - 2] if k >= 2 else profile.entry_time
    ctx_rise = SegmentContext(
        start=k + 1, stop=i, role=ROLE_INCREASING, flow_in=seed, entry_time=block_entry
    )
    reworked, _ = adjacent_exchange(ctx_rise, inst, moved)
    if i < inst.n:
        shift = _idle_shift(inst, moved, reworked, k + 1, i, block_entry + seed)
        handoff = relocation_handoff(profile, inst, moved, i, k)
        ctx_drop = SegmentContext(
            start=i + 1,
            stop=inst.n,
            role=ROLE_DECREASING,
            flow_in=handoff - shift,
            entry_time=profile.completions[i - 1],
        )
        reworked, _ = bottleneck_breakthrough(ctx_drop, inst, reworked)
    return reworked


def consumption_operator(seq: Sequence, inst: Instance, _scorer: _Scorer | None = None) -> Sequence:
    """Exhaust the forward solution space of a sequence.

    Best-improvement rounds: each round recomputes the forward sets and
    keeps the strictly best candidate pipeline result, until none improves.
    """
    scorer = _scorer or _Scorer(inst)
    best = seq
    best_objective = scorer.objective(seq)
    improving = True
    while improving:
        improving = False
        profile = compute_profile(inst, best)
        round_best: Sequence | None = None
        round_objective = best_objective
        for i in range(1, inst.n + 1):
            for k in sorted(forward_solution_set(profile, inst, best, i)):
                candidate = _forward_pipeline(inst, best, profile, i, k)
                objective = scorer.objective(candidate)
                if objective < round_objective:
                    round_objective = objective
                    round_best = candidate
        if round_best is not None:
            best, best_objective = round_best, round_objective
            improving = True
    return best


def backward_traversal(seq: Sequence, inst: Instance, _scorer: _Scorer | None = None) -> Sequence:
    """Exhaust the backward solution space of a sequence, end to start."""
    scorer = _scorer or _Scorer(inst)
    best = seq
    best_objective = scorer.objective(seq)
    improving = True
    while improving:
        improving = False
        profile = compute_profile(inst, best)
        round_best: Sequence | None = None
        round_objective = best_objective
        for i in range(inst.n, 0, -1):
            for k in sorted(backward_solution_set(profile, inst, best, i), reverse=True):
                candidate = _backward_pipeline(inst, best, profile, i, k)
                objective = scorer.objective(candidate)
                if objective < round_objective:
                    round_objective = objective
                    round_best = candidate
        if round_best is not None:
            best, best_objective = round_best, round_objective
            improving = True
    return best


def optimal_sort(inst: Instance) -> SolveResult:
    """Minimize total waiting over all processing orders of an instance.

    Starts from the release-sorted order and repeats full sweeps until a
    pass yields no strict improvement. Every adoption is re-scored from
    scratch, so the run is monotone; the n^2 pass cap turns a hypothetical
    runaway into a reported anomaly instead of a hang.
    """
    started = time.perf_counter()
    scorer = _Scorer(inst)
    current = initial_sequence(inst)
    current_objective = scorer.objective(current)
    move_log: list[tuple[int, str, int, int, int]] = []
    safety_tripped = False
    passes = 0
    improving = True
    while improving:
        improving = False
        if passes >= inst.n * inst.n:
            safety_tripped = True
            break
        profile = compute_profile(inst, current)
        best_candidate: Sequence | None = None
        best_objective = current_objective
        best_move = (0, 0)
        for i in range(1, inst.n + 1):
            for k in sorted(forward_solution_set(profile, inst, current, i)):
                staged = _forward_pipeline(
                    inst, current, profile, i, k, whole_exchange=(k == inst.n and passes == 0)
                )
                staged = consumption_operator(staged, inst, scorer)
                staged = backward_traversal(staged, inst, scorer)
                staged = consumption_operator(staged, inst, scorer)
                objective = scorer.objective(staged)
                if objective < best_objective:
                    best_objective = objective
                    best_candidate = staged
                    best_move = (i, k)
        passes += 1
        if best_candidate is not None:
            move_log.append(
                (passes, FORWARD, best_move[0], best_move[1], best_objective - current_objective)
            )
            current = Sequence(order=best_candidate.order, iteration=passes)
            current_objective = best_objective
            improving = True
    return SolveResult(
        best_sequence=current,
        best_objective=current_objective,
        iterations=passes,
        move_log=tuple(move_log),
        elapsed=time.perf_counter() - started,
        safety_tripped=safety_tripped,
    )
