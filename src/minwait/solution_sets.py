"""Where single relocations can possibly pay off.

Forward: job i can only gain by moving past a block whose processing, net
of idle, undercuts what i's removal frees up; membership is a running-sum
test per anchor. Backward: a job that is not waiting (w <= 0) never gains
by moving earlier; candidate insertion points reach back far enough that
the cumulative freed-up time first covers the job's wait. That crossing is
a prior, not a bound: insertions past it can still pay when the deeper
idle they consume outweighs the displaced block's extra waiting, so those
positions are admitted exactly when the closed-form evaluator certifies a
strict improvement. The union of both families is the whole search space
the solver sweeps, and the suite checks it against exhaustive enumeration.
"""

from __future__ import annotations

from .instances import Instance
from .move_calculus import backward_move_delta
from .timeline import WaitingProfile


def forward_solution_set(profile: WaitingProfile, inst: Instance, i: int) -> frozenset[int]:
    """Anchors k > i where the block sum p_j - (p_i - min(0, w_i)) stays <= 0."""
    if not 1 <= i <= inst.n:
        raise ValueError(f"position {i} out of range 1..{inst.n}")
    freed = inst.p(profile.job_at(i)) - min(0, profile.wait_at(i))
    members: list[int] = []
    running = 0
    for k in range(i + 1, inst.n + 1):
        running += inst.p(profile.job_at(k)) - freed
        if running <= 0:
            members.append(k)
    return frozenset(members)


def backward_solution_set(profile: WaitingProfile, inst: Instance, i: int) -> frozenset[int]:
    """Insertion positions worth trying for the job at position i.

    Empty when the job is not waiting. Otherwise the set holds every
    position within j* backward steps, where j* is the smallest step count
    whose cumulative freed-up time (p - min(0, w), walking backward) first
    reaches w_i (defaulting to i-1 when no step does), plus any deeper
    position whose predicted relocation delta is strictly negative. The
    second clause is what makes the family complete: improving insertions
    past the crossing exist, rarely, when consuming deeper idle pays for
    the displaced block's extra waiting.

    The freed-up time of s steps telescopes to C_{i-1} - C_{i-1-s}, and
    w_i = C_{i-1} - r_i, so j* is the smallest s with C_{i-1-s} <= r_i
    (C_0 is the entry time): walking back from i, the first completion no
    later than i's release.
    """
    if not 1 <= i <= inst.n:
        raise ValueError(f"position {i} out of range 1..{inst.n}")
    w_i = profile.wait_at(i)
    if w_i <= 0:
        return frozenset()
    release = inst.r(profile.job_at(i))
    completions = (profile.entry_time,) + profile.completions
    crossing = i - 1
    for steps in range(1, i):
        if completions[i - 1 - steps] <= release:
            crossing = steps
            break
    members = set(range(i - crossing, i))
    for k in range(1, i - crossing):
        if backward_move_delta(profile, inst, i, k).delta_total < 0:
            members.add(k)
    return frozenset(members)
