"""The two segment rules behind the solver.

A relocation splits the queue into an untouched prefix, a block whose waits
drop, and a block whose waits rise. Each block is reworked under the flow
it receives from the rest of the queue:

  * adjacent exchange, for a block under an increasing flow: bubble longer
    jobs backward whenever the swap strictly lowers the block's realized
    cost;
  * bottleneck breakthrough, for a block under a decreasing flow: when a
    low-wait position caps how far the flow carries, pull a later waiting
    job in front of it if doing so strictly pays.

Flows are entry-time shifts, so "realized cost" of a block is just its
truncated-wait total computed from the shifted entry; the rules' cost
tests reduce to exact integer comparisons of those totals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Instance, Sequence
from .timeline import WaitingProfile, segment_cost, segment_profile

ROLE_UNCHANGED = "P_O"
ROLE_DECREASING = "P_D"
ROLE_INCREASING = "P_I"


@dataclass(frozen=True)
class SegmentContext:
    """A contiguous position range of a sequence plus what flows into it.

    ``start``/``stop`` are 1-based inclusive positions; ``flow_in`` is the
    signed wait change the segment's head receives from upstream, and
    ``entry_time`` is the nominal entry (completion of the preceding part)
    at which the segment's baseline waits are measured.
    """

    start: int
    stop: int
    role: str
    flow_in: int
    entry_time: int

    def jobs(self, seq: Sequence) -> tuple[int, ...]:
        return seq.order[self.start - 1 : self.stop]

    def __len__(self) -> int:
        return max(0, self.stop - self.start + 1)


def _splice(seq: Sequence, ctx: SegmentContext, segment: list[int]) -> Sequence:
    order = list(seq.order)
    order[ctx.start - 1 : ctx.stop] = segment
    return Sequence(order=tuple(order), iteration=seq.iteration)


def adjacent_exchange(ctx: SegmentContext, inst: Instance, seq: Sequence) -> tuple[Sequence, int]:
    """Sort a rising-flow block by repeated profitable adjacent swaps.

    A pair is swapped only when the left job's processing time is strictly
    larger and the block's cost at the flow-shifted entry strictly drops.
    Returns the updated sequence and the net realized cost change.
    """
    if ctx.role != ROLE_INCREASING:
        raise ValueError(f"adjacent exchange needs role {ROLE_INCREASING}, got {ctx.role}")
    if ctx.flow_in < 0:
        raise ValueError(f"increasing flow must be nonnegative, got {ctx.flow_in}")
    jobs = ctx.jobs(seq)
    segment = list(jobs)
    if len(segment) <= 1:
        return seq, 0
    realized_entry = ctx.entry_time + ctx.flow_in
    cost = segment_cost(inst, tuple(segment), realized_entry)
    initial_cost = cost
    swapped = True
    while swapped:
        swapped = False
        for j in range(len(segment) - 1):
            if inst.p(segment[j]) <= inst.p(segment[j + 1]):
                continue
            candidate = segment.copy()
            candidate[j], candidate[j + 1] = candidate[j + 1], candidate[j]
            candidate_cost = segment_cost(inst, tuple(candidate), realized_entry)
            if candidate_cost < cost:
                assert inst.p(segment[j]) > inst.p(segment[j + 1])
                segment = candidate
                cost = candidate_cost
                swapped = True
    if tuple(segment) == jobs:
        return seq, 0
    return _splice(seq, ctx, segment), cost - initial_cost


def certify_global(ctx: SegmentContext, sorted_profile: WaitingProfile) -> bool:
    """Global-optimality certificate for an exchanged block.

    True when the incoming flow covers all idle of the block re-sorted by
    non-decreasing processing time; the exchanged order is then globally
    optimal for the block (it coincides with shortest-processing-first).
    """
    return ctx.flow_in + sum(min(0, w) for w in sorted_profile.waits) >= 0


def bottleneck_breakthrough(
    ctx: SegmentContext, inst: Instance, seq: Sequence
) -> tuple[Sequence, int]:
    """Unblock a falling flow by pulling waiting jobs in front of bottlenecks.

    The flow f_D enters the block head; a position whose baseline wait is
    below the remaining flow caps the cascade. For each such bottleneck,
    the candidate pull-backs are later jobs with positive wait whose
    post-move wait stays above the bottleneck's; the cheapest strictly
    paying one (cost at the flow-shifted entry, ties by processing time
    then position) is applied. When none pays, the flow shrinks to the
    bottleneck's truncated wait and the scan moves on. Returns ``seq``
    itself, with change 0, when the block's order did not change.
    """
    if ctx.role != ROLE_DECREASING:
        raise ValueError(f"bottleneck breakthrough needs role {ROLE_DECREASING}, got {ctx.role}")
    jobs = ctx.jobs(seq)
    segment = list(jobs)
    m = len(segment)
    flow = ctx.flow_in
    if m <= 1 or flow <= 0:
        return seq, 0
    entry = ctx.entry_time
    waits = segment_profile(inst, tuple(segment), entry).waits
    if all(w >= flow for w in waits):
        return seq, 0
    realized_entry = entry - ctx.flow_in
    initial_cost = segment_cost(inst, tuple(segment), realized_entry)

    scan_from = 0
    while flow > 0:
        bottleneck = None
        for l in range(scan_from, m - 1):
            if waits[l] < flow:
                bottleneck = l
                break
        if bottleneck is None:
            break
        best = None
        shifted_entry = entry - flow
        current_cost = segment_cost(inst, tuple(segment), shifted_entry)
        # idle minus processing over positions bottleneck..g-1, advanced with g
        passed = 0
        for g in range(bottleneck + 1, m):
            passed += min(0, waits[g - 1]) - inst.p(segment[g - 1])
            if waits[g] <= 0:
                continue
            pulled_wait = waits[g] + passed
            if pulled_wait <= waits[bottleneck]:
                continue
            candidate = segment.copy()
            job = candidate.pop(g)
            candidate.insert(bottleneck, job)
            value = segment_cost(inst, tuple(candidate), shifted_entry) - current_cost
            if value >= 0:
                continue
            key = (value, inst.p(job), g)
            if best is None or key < best[0]:
                best = (key, candidate)
        if best is not None:
            segment = best[1]
            waits = segment_profile(inst, tuple(segment), entry).waits
            scan_from = 0
        else:
            flow = max(0, waits[bottleneck])
            scan_from = bottleneck + 1
    if tuple(segment) == jobs:
        return seq, 0
    final_cost = segment_cost(inst, tuple(segment), realized_entry)
    return _splice(seq, ctx, segment), final_cost - initial_cost
