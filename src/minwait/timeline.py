"""The waiting-time engine.

A job's signed waiting time is (completion time of its predecessor) minus
(its own release). Positive means the job sits in a contiguous queue behind
its predecessor; w <= 0 means the machine went idle and the job leads a new
contiguous queue, starting at its own release. Machine idle inserted right
before position k is exactly -min(0, w_k), and the objective only counts
the positive part: sum of max(0, w).

Whole-queue profiles pin the first position's wait to 0 (equivalent to an
entry time equal to the first job's release). Segment profiles take the
real entry time, the completion of whatever precedes the segment, so the
head of a segment can genuinely wait (w > 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance, Sequence


class EngineInvariantError(RuntimeError):
    """An identity the engine guarantees was violated; signals a bug."""


@dataclass(frozen=True)
class WaitingProfile:
    """Per-position schedule facts for one ordering.

    Tuples are position-indexed: index k-1 holds position k. ``order`` is
    carried so formulas can map positions back to job ids, and ``entry_time``
    is the time the first job could start (its own release for whole-queue
    profiles).
    """

    order: tuple[int, ...]
    entry_time: int
    waits: tuple[int, ...]
    leader: tuple[bool, ...]
    starts: tuple[int, ...]
    completions: tuple[int, ...]
    objective: int

    @property
    def n(self) -> int:
        return len(self.order)

    def wait_at(self, position: int) -> int:
        return self.waits[position - 1]

    def job_at(self, position: int) -> int:
        return self.order[position - 1]


def compute_profile(inst: Instance, seq: Sequence) -> WaitingProfile:
    """Waiting profile of a whole queue; position 1 is a leader with wait 0."""
    if len(seq.order) != inst.n:
        raise ValueError("sequence length does not match instance")
    return segment_profile(inst, seq.order, inst.r(seq.order[0]))


def segment_profile(inst: Instance, order: tuple[int, ...], entry_time: int) -> WaitingProfile:
    """Profile of a contiguous block whose machine becomes free at ``entry_time``."""
    release = inst.release
    processing = inst.processing
    waits: list[int] = []
    leader: list[bool] = []
    starts: list[int] = []
    completions: list[int] = []
    objective = 0
    prev_completion = entry_time
    for job in order:
        r = release[job - 1]
        w = prev_completion - r
        if w > 0:
            objective += w
            start = r + w
            leader.append(False)
        else:
            start = r
            leader.append(True)
        waits.append(w)
        starts.append(start)
        prev_completion = start + processing[job - 1]
        completions.append(prev_completion)
    return WaitingProfile(
        order=tuple(order),
        entry_time=entry_time,
        waits=tuple(waits),
        leader=tuple(leader),
        starts=tuple(starts),
        completions=tuple(completions),
        objective=objective,
    )


def segment_cost(inst: Instance, order: tuple[int, ...], entry_time: int) -> int:
    """Truncated-wait total of a block at a given entry time (no allocation)."""
    release = inst.release
    processing = inst.processing
    prev_completion = entry_time
    objective = 0
    for job in order:
        r = release[job - 1]
        w = prev_completion - r
        if w > 0:
            objective += w
            prev_completion = r + w + processing[job - 1]
        else:
            prev_completion = r + processing[job - 1]
    return objective


def segment_completion(inst: Instance, order: tuple[int, ...], entry_time: int) -> int:
    """Completion time of the last job of a block started at ``entry_time``."""
    release = inst.release
    processing = inst.processing
    prev_completion = entry_time
    for job in order:
        r = release[job - 1]
        start = prev_completion if prev_completion > r else r
        prev_completion = start + processing[job - 1]
    return prev_completion


FCFS_CONSISTENT = "fcfs-consistent"
LCFS_SWAPPED = "lcfs-swapped"


def classify_adjacent(profile: WaitingProfile, inst: Instance, k: int) -> str:
    """Tag the adjacent pair (k, k+1) by release order and assert its inequality.

    Release order r_k <= r_{k+1} forces max(0,w_k) + p_k >= max(0,w_{k+1});
    the swapped order forces the strict opposite. A mismatch means the
    profile was not produced by this engine for its own order.
    """
    if not 1 <= k <= profile.n - 1:
        raise ValueError(f"pair index {k} out of range 1..{profile.n - 1}")
    a = profile.job_at(k)
    b = profile.job_at(k + 1)
    lhs = max(0, profile.wait_at(k)) + inst.p(a)
    rhs = max(0, profile.wait_at(k + 1))
    if inst.r(a) <= inst.r(b):
        if lhs < rhs:
            raise EngineInvariantError(
                f"pair ({a},{b}) at position {k}: releases ordered but {lhs} < {rhs}"
            )
        return FCFS_CONSISTENT
    if lhs >= rhs:
        raise EngineInvariantError(
            f"pair ({a},{b}) at position {k}: releases swapped but {lhs} >= {rhs}"
        )
    return LCFS_SWAPPED
