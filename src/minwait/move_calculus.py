"""Closed-form objective deltas for single-job relocations.

Moving the job at position i to sit right after position k (forward) or
right before position k (backward) changes the objective by an exactly
computable amount: the mover's own truncated-wait change, the cascaded
change over the displaced block, and the cascade of the completion-time
shift handed to the first untouched follower. No from-scratch rescoring is
needed, although tests do exactly that to pin every value.

Everything reduces to one fact: a job's signed wait equals its
predecessor's completion minus its own release, so wait changes are
completion-time shifts and cascade by the flow recursions. The seeds are
the block-entry shifts; when the move touches the queue head the shift is
measured against the new head's own release (the head of a queue always
starts there), which is the only place the naive block formulas need care.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance, Sequence
from .propagation import FlowTrace, objective_delta, propagate_decrease, propagate_increase
from .timeline import WaitingProfile, segment_completion

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class MoveEvaluation:
    """Predicted effect of one relocation.

    delta_total = part_local + part_flow + flow_tail holds exactly, and
    delta_total equals the from-scratch objective difference after applying
    the move (the gold invariant the test suite enforces). part_flow is the
    signed completion shift handed to the first untouched follower;
    flow_tail is that shift's cascaded objective effect.
    """

    direction: str
    i: int
    k: int
    delta_total: int
    part_local: int
    part_flow: int
    flow_tail: int
    new_wait: int


def _tail_flow(profile: WaitingProfile, position: int, amount: int) -> int:
    """Cascaded objective effect of a signed wait change at ``position``."""
    if amount == 0 or position > profile.n:
        return 0
    if amount > 0:
        return objective_delta(propagate_increase(profile, position, amount))
    return objective_delta(propagate_decrease(profile, position, -amount))


def removal_trace(profile: WaitingProfile, inst: Instance, i: int) -> FlowTrace:
    """Wait drops over positions i+1..n caused by removing the job at i.

    For i >= 2 the followers' entry advances by p_i - min(0, w_i); when the
    head is removed the next job re-bases at its own release, so the first
    drop is its full positive wait.
    """
    if i >= 2:
        seed = inst.p(profile.job_at(i)) - min(0, profile.wait_at(i))
    else:
        seed = max(0, profile.wait_at(2)) if profile.n >= 2 else 0
    return propagate_decrease(profile, i + 1, seed)


def forward_move_delta(
    profile: WaitingProfile, inst: Instance, seq: Sequence, i: int, k: int
) -> MoveEvaluation:
    """Evaluate moving the job at position i to immediately after position k."""
    n = inst.n
    if not 1 <= i < k <= n:
        raise ValueError(f"need 1 <= i < k <= {n}, got i={i}, k={k}")
    if profile.order != seq.order:
        raise ValueError("profile does not belong to this sequence")
    mover = seq.job_at(i)
    w_mover = profile.wait_at(i)
    trace = removal_trace(profile, inst, i)

    # Truncated-wait drop of each displaced job is the value transmitted
    # one slot further (the block covers old positions i+1..k).
    block_drop = sum(trace.value_at(j + 1) for j in range(i + 1, k + 1))

    old_completion = profile.completions[k - 1]
    block_completion = old_completion - trace.value_at(k + 1)
    new_wait = block_completion - inst.r(mover)
    handoff = max(inst.r(mover), block_completion) + inst.p(mover) - old_completion
    tail = _tail_flow(profile, k + 1, handoff)
    mover_change = max(0, new_wait) - max(0, w_mover)
    return MoveEvaluation(
        direction=FORWARD,
        i=i,
        k=k,
        delta_total=mover_change - block_drop + tail,
        part_local=mover_change - block_drop - handoff,
        part_flow=handoff,
        flow_tail=tail,
        new_wait=new_wait,
    )


def insertion_seed(profile: WaitingProfile, inst: Instance, i: int, k: int) -> int:
    """Wait rise of the job at position k when the job at i lands before it.

    For k >= 2 this is the block-entry delay the displaced jobs feel; when
    the mover becomes the new queue head, the old head's rise is measured
    from the mover's own completion (it starts at its own release).
    """
    mover = profile.job_at(i)
    if k >= 2:
        block_processing = sum(inst.p(profile.job_at(j)) for j in range(k, i))
        block_idle = sum(min(0, profile.wait_at(j)) for j in range(k, i))
        return max(
            inst.p(mover),
            block_processing + inst.p(mover) - block_idle - profile.wait_at(i),
        )
    return max(0, inst.r(mover) + inst.p(mover) - profile.entry_time)


def backward_move_delta(
    profile: WaitingProfile, inst: Instance, seq: Sequence, i: int, k: int
) -> MoveEvaluation:
    """Evaluate moving the job at position i to immediately before position k."""
    n = inst.n
    if not 1 <= k < i <= n:
        raise ValueError(f"need 1 <= k < i <= {n}, got i={i}, k={k}")
    if profile.order != seq.order:
        raise ValueError("profile does not belong to this sequence")
    mover = seq.job_at(i)
    w_mover = profile.wait_at(i)

    seed = insertion_seed(profile, inst, i, k)
    trace = propagate_increase(profile, k, seed)

    # Truncated-wait rise of each displaced job (old positions k..i-1).
    block_rise = sum(trace.value_at(j + 1) for j in range(k, i))

    shifted_completion = profile.completions[i - 2] + trace.value_at(i)
    handoff = shifted_completion - profile.completions[i - 1]
    tail = _tail_flow(profile, i + 1, handoff)
    new_wait = profile.completions[k - 2] - inst.r(mover) if k >= 2 else 0
    mover_change = max(0, new_wait) - max(0, w_mover)
    return MoveEvaluation(
        direction=BACKWARD,
        i=i,
        k=k,
        delta_total=mover_change + block_rise + tail,
        part_local=mover_change + block_rise - handoff,
        part_flow=handoff,
        flow_tail=tail,
        new_wait=new_wait,
    )


def relocation_handoff(
    profile: WaitingProfile, inst: Instance, moved: Sequence, i: int, k: int
) -> int:
    """Completion shift a relocation hands to the first untouched follower.

    ``moved`` is the sequence after moving position i next to position k, in
    either direction. Only positions min(i, k)..max(i, k) change, so the
    shift is their new completion, replayed from the unchanged prefix, minus
    the old completion of position max(i, k). A block that starts the queue
    is replayed from 0: its new head then starts at its own release. Equals
    ``part_flow`` of forward_move_delta and backward_move_delta.
    """
    lo, hi = (i, k) if i < k else (k, i)
    entry = profile.completions[lo - 2] if lo >= 2 else 0
    return segment_completion(inst, moved.order[lo - 1 : hi], entry) - profile.completions[hi - 1]


def apply_move(seq: Sequence, i: int, k: int, direction: str) -> Sequence:
    """Relocate one job, keeping all other relative orders.

    Forward: the job at position i ends up immediately after the job that
    held position k. Backward: immediately before the job that held
    position k. Either way the mover lands on position k of the new order.
    """
    n = seq.n
    if direction == FORWARD:
        if not 1 <= i < k <= n:
            raise ValueError(f"forward move needs 1 <= i < k <= {n}, got i={i}, k={k}")
    elif direction == BACKWARD:
        if not 1 <= k < i <= n:
            raise ValueError(f"backward move needs 1 <= k < i <= {n}, got i={i}, k={k}")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    order = list(seq.order)
    job = order.pop(i - 1)
    order.insert(k - 1, job)
    return Sequence(order=tuple(order))


def idle_adjustment(before: WaitingProfile, after: WaitingProfile) -> int:
    """Shift of the downstream entry caused by re-sorting a block.

    Positive means the re-sorted block finishes later (downstream jobs are
    delayed by that much); negative means idle was removed and downstream
    starts earlier. Both profiles must cover the same jobs from the same
    entry time.
    """
    if sorted(before.order) != sorted(after.order):
        raise ValueError("profiles cover different job sets")
    if before.entry_time != after.entry_time:
        raise ValueError("profiles use different entry times")
    return sum(min(0, w) for w in before.waits) - sum(min(0, w) for w in after.waits)
