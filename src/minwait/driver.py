"""The solver: sweep candidate relocations, rework the blocks they induce.

One outer pass recomputes the forward solution space of the incumbent and,
for every candidate relocation, builds a full candidate sequence: apply the
move, run bottleneck breakthrough on the wait-decreasing block (P_D), hand
the idle shift plus the move's own handoff to the wait-increasing block
(P_I), run adjacent exchange there, then let the consumption operator and
the backward traversal refine the result. A candidate is adopted only when
its exactly recomputed objective is strictly smaller, so the objective
strictly decreases across passes and termination is guaranteed; a safety
valve still caps passes at n^2 and reports instead of hanging.

The rules see only a block: its jobs, its entry time and the flow it
receives. In the paper's symbols a block's waits are
w_j = r_0^o + p_0^o - r_j, where r_0^o + p_0^o starts at the block's entry
time, the incumbent's completion just before the block, and a flow is a
shift of that r_0^o + p_0^o at the block's entry: down by f_D into P_D, up
by f_I into P_I. For a forward move of position i after position k, P_D is
the displaced block (entry C_i, f_D = p_i - min(0, w_i), so it is realized
from C_{i-1}) and P_I the tail after k (entry C_k). For a backward move of
position i before position k, P_I is the displaced block (entry C_{k-1},
f_I the mover's insertion delay) and P_D the tail after i (entry C_i).
The driver slices each block out of the moved order and splices
the reworked jobs back in. Both amounts a pipeline hands on are completion
differences: the handoff is the new completion of the span the move
reorders minus its old one, and the idle shift is the reworked block's
completion minus the moved block's, both replayed from the rule's realized
entry (the entry time minus the flow for bottleneck breakthrough, plus the
flow for adjacent exchange). The idle shift is computed once per distinct
rule call, next to the rule's result, and handed back with every repeat.

The consumption operator (forward) and the backward traversal share one
best-improvement loop; only the pipeline and the visit order differ.
Candidates are plain tuples inside a solve. ``apply_move`` builds the one
validated ``Sequence`` of each pipeline; otherwise a ``Sequence`` is built
only for an adopted incumbent and for each outer candidate handed to the
consumption operator.

One private cache lives for the duration of a solve and serves three kinds
of pure results, each keyed by exact integers so that a hit returns what a
recomputation would:
  * the objective of an order, scored by an allocation-free replay;
  * the solution space of an incumbent in one direction: its one full
    profile and its sorted solution sets;
  * the result of a rule call, keyed by the rule, the block's jobs, its
    entry time and the flow it receives, which is everything a rule reads.
    The entry holds the reworked block and its idle shift, or a marker
    when the rule left the block as it was. A reworked block is checked to
    be a reordering of its jobs when it is computed, so a hit replays a
    checked block.
Inside one solve most rule calls and solution-set computations repeat
exactly, because the nested searches revisit the same incumbents and the
same blocks. The cache stops there on purpose: every pipeline still applies
its move, computes its handoff and is scored, in the same order as without
the cache, so the solve visits the same candidates, logs the same moves and
runs the same number of pipelines. Memoizing whole pipeline inputs would
skip pipelines and change those counts. The cache is dropped when the
solve returns.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from .instances import Instance, Sequence, initial_sequence
from .move_calculus import (
    BACKWARD,
    FORWARD,
    apply_move,
    insertion_seed,
    relocation_handoff,
)
from .rules import adjacent_exchange, bottleneck_breakthrough
from .solution_sets import backward_solution_set, forward_solution_set
from .timeline import (
    EngineInvariantError,
    WaitingProfile,
    compute_profile,
    segment_completion,
    segment_cost,
)

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


# Block-rule cache entry of a rule call that left its block as it was.
_UNCHANGED = object()


class _SolveCache:
    """Per-solve memo of objectives, solution spaces and block-rule results."""

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self._objectives: dict[tuple[int, ...], int] = {}
        self._profiles: dict[tuple[int, ...], WaitingProfile] = {}
        # (direction, order) -> the solution set of each position, in visit order
        self._spaces: dict[tuple[str, tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
        # (rule, block jobs, entry_time, flow_in) -> (reworked block, idle shift), or _UNCHANGED
        self._blocks: dict[tuple[Callable, tuple[int, ...], int, int], object] = {}

    def objective(self, order: tuple[int, ...]) -> int:
        cached = self._objectives.get(order)
        if cached is None:
            if len(order) != self.inst.n:
                raise ValueError("sequence length does not match instance")
            cached = segment_cost(self.inst, order, self.inst.r(order[0]))
            self._objectives[order] = cached
        return cached

    def space(
        self, seq: Sequence, direction: str
    ) -> tuple[WaitingProfile, tuple[tuple[int, ...], ...]]:
        """Profile of ``seq`` and the solution set of each position (row i-1).

        Forward sets are ascending and backward sets descending, the order
        in which the searches visit them.
        """
        profile = self._profiles.get(seq.order)
        if profile is None:
            profile = compute_profile(self.inst, seq)
            self._profiles[seq.order] = profile
        key = (direction, seq.order)
        rows = self._spaces.get(key)
        if rows is None:
            solution_set = forward_solution_set if direction == FORWARD else backward_solution_set
            descending = direction == BACKWARD
            rows = tuple(
                tuple(sorted(solution_set(profile, self.inst, i), reverse=descending))
                for i in range(1, self.inst.n + 1)
            )
            self._spaces[key] = rows
        return profile, rows

    def rework(
        self,
        order: tuple[int, ...],
        start: int,
        stop: int,
        rule: Callable,
        flow_in: int,
        entry_time: int,
    ) -> tuple[tuple[int, ...], int]:
        """``order`` with positions start..stop reworked by ``rule``, and the idle shift.

        The idle shift is the reworked block's completion minus the original
        block's, both replayed from the rule's realized entry: ``entry_time``
        minus the flow for bottleneck breakthrough, plus it for adjacent
        exchange. An unchanged block returns ``order`` itself and 0.
        """
        jobs = order[start - 1 : stop]
        key = (rule, jobs, entry_time, flow_in)
        entry = self._blocks.get(key)
        if entry is None:
            block, _ = rule(self.inst, jobs, entry_time, flow_in)
            if block == jobs:
                entry = _UNCHANGED
            elif sorted(block) != sorted(jobs):
                raise EngineInvariantError(f"rule returned {block}, not a reordering of {jobs}")
            else:
                realized = (
                    entry_time - flow_in
                    if rule is bottleneck_breakthrough
                    else entry_time + flow_in
                )
                shift = segment_completion(self.inst, block, realized) - segment_completion(
                    self.inst, jobs, realized
                )
                entry = (block, shift)
            self._blocks[key] = entry
        if entry is _UNCHANGED:
            return order, 0
        block, shift = entry
        return order[: start - 1] + block + order[stop:], shift


def _forward_pipeline(
    cache: _SolveCache, seq: Sequence, profile: WaitingProfile, i: int, k: int
) -> tuple[int, ...]:
    """Candidate order for "move position i after position k" plus rule work.

    The rising block after position k receives the move's handoff (the
    completion shift at position k) plus the idle shift of the reworked
    falling block (its completion change from the freed entry).
    """
    inst = cache.inst
    moved = apply_move(seq, i, k, FORWARD)
    flow_drop = inst.p(seq.job_at(i)) - min(0, profile.wait_at(i))
    reworked, shift = cache.rework(
        moved.order, i, k - 1, bottleneck_breakthrough, flow_drop, profile.completions[i - 1]
    )
    if k < inst.n:
        handoff = relocation_handoff(profile, inst, moved, i, k)
        reworked, _ = cache.rework(
            reworked,
            k + 1,
            inst.n,
            adjacent_exchange,
            max(0, handoff + shift),
            profile.completions[k - 1],
        )
    return reworked


def _backward_pipeline(
    cache: _SolveCache, seq: Sequence, profile: WaitingProfile, i: int, k: int
) -> tuple[int, ...]:
    """Candidate order for "move position i before position k" plus rule work.

    The falling block after position i receives the move's handoff (the
    completion shift at position i) minus the idle shift of the reworked
    rising block (its completion change from the delayed entry).
    """
    inst = cache.inst
    moved = apply_move(seq, i, k, BACKWARD)
    seed = insertion_seed(profile, inst, i, k)
    block_entry = profile.completions[k - 2] if k >= 2 else profile.entry_time
    reworked, shift = cache.rework(moved.order, k + 1, i, adjacent_exchange, seed, block_entry)
    if i < inst.n:
        handoff = relocation_handoff(profile, inst, moved, i, k)
        reworked, _ = cache.rework(
            reworked,
            i + 1,
            inst.n,
            bottleneck_breakthrough,
            handoff - shift,
            profile.completions[i - 1],
        )
    return reworked


def _exhaust(cache: _SolveCache, seq: Sequence, direction: str) -> Sequence:
    """Best-improvement rounds over the solution space of one direction.

    Each round takes the solution space of the incumbent, runs one pipeline
    per member (forward: positions ascending; backward: end to start) and
    keeps the first strictly best result, until no round improves.
    """
    if direction == FORWARD:
        pipeline, positions = _forward_pipeline, range(1, cache.inst.n + 1)
    else:
        pipeline, positions = _backward_pipeline, range(cache.inst.n, 0, -1)
    best = seq
    best_objective = cache.objective(seq.order)
    while True:
        profile, rows = cache.space(best, direction)
        round_best: tuple[int, ...] | None = None
        round_objective = best_objective
        for i in positions:
            for k in rows[i - 1]:
                candidate = pipeline(cache, best, profile, i, k)
                objective = cache.objective(candidate)
                if objective < round_objective:
                    round_objective = objective
                    round_best = candidate
        if round_best is None:
            return best
        best, best_objective = Sequence(order=round_best), round_objective


def consumption_operator(
    seq: Sequence, inst: Instance, _cache: _SolveCache | None = None
) -> Sequence:
    """Exhaust the forward solution space of a sequence."""
    return _exhaust(_cache or _SolveCache(inst), seq, FORWARD)


def backward_traversal(
    seq: Sequence, inst: Instance, _cache: _SolveCache | None = None
) -> Sequence:
    """Exhaust the backward solution space of a sequence, end to start."""
    return _exhaust(_cache or _SolveCache(inst), seq, BACKWARD)


def optimal_sort(inst: Instance) -> SolveResult:
    """Minimize total waiting over all processing orders of an instance.

    Starts from the release-sorted order and repeats full sweeps until a
    pass yields no strict improvement. Every adoption is re-scored from
    scratch, so the run is monotone; the n^2 pass cap turns a hypothetical
    runaway into a reported anomaly instead of a hang.
    """
    started = time.perf_counter()
    cache = _SolveCache(inst)
    current = initial_sequence(inst)
    current_objective = cache.objective(current.order)
    move_log: list[tuple[int, str, int, int, int]] = []
    safety_tripped = False
    passes = 0
    improving = True
    while improving:
        improving = False
        if passes >= inst.n * inst.n:
            safety_tripped = True
            break
        profile, anchors = cache.space(current, FORWARD)
        best_candidate: Sequence | None = None
        best_objective = current_objective
        best_move = (0, 0)
        for i, row in enumerate(anchors, start=1):
            for k in row:
                candidate = _forward_pipeline(cache, current, profile, i, k)
                if k == inst.n and passes == 0:
                    # the first pass also exchanges the whole queue of a move to the end
                    candidate, _ = cache.rework(
                        candidate, 1, inst.n, adjacent_exchange, 0, inst.r(candidate[0])
                    )
                staged = consumption_operator(Sequence(order=candidate), inst, cache)
                staged = backward_traversal(staged, inst, cache)
                staged = consumption_operator(staged, inst, cache)
                objective = cache.objective(staged.order)
                if objective < best_objective:
                    best_objective = objective
                    best_candidate = staged
                    best_move = (i, k)
        passes += 1
        if best_candidate is not None:
            move_log.append(
                (passes, FORWARD, best_move[0], best_move[1], best_objective - current_objective)
            )
            current = best_candidate
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
