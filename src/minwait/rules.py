"""The two block rules behind the solver.

A relocation splits the queue into an untouched prefix, a block whose waits
drop (P_D) and a block whose waits rise (P_I). Each rule reworks one such
block from three inputs: its jobs, its entry time (the completion of
whatever precedes it) and the flow it receives from the rest of the queue:

  * adjacent exchange, for P_I under an increasing flow: bubble longer
    jobs backward whenever the swap strictly lowers the block's realized
    cost;
  * bottleneck breakthrough, for P_D under a decreasing flow: when a
    low-wait position caps how far the flow carries, pull a later waiting
    job in front of it if doing so strictly pays.

Both return the reworked jobs and the change of the block's realized cost,
and return the input block object itself when its order did not change.
Placing the block back into a queue is the caller's job.

Flows are entry-time shifts, so "realized cost" of a block is just its
truncated-wait total computed from the shifted entry; the rules' cost
tests reduce to exact integer comparisons of those totals.
"""

from __future__ import annotations

from .instances import Instance
from .timeline import WaitingProfile, segment_cost, segment_profile

# Not called here; the benchmark tracer wraps this name in this module.
from .instances import Sequence  # noqa: F401


def adjacent_exchange(
    inst: Instance, block: tuple[int, ...], entry_time: int, flow_in: int
) -> tuple[tuple[int, ...], int]:
    """Sort a rising-flow block by repeated profitable adjacent swaps.

    A pair is swapped only when the left job's processing time is strictly
    larger and the block's cost at the flow-shifted entry strictly drops.
    Returns the reworked jobs and the net realized cost change.
    """
    if flow_in < 0:
        raise ValueError(f"increasing flow must be nonnegative, got {flow_in}")
    segment = list(block)
    if len(segment) <= 1:
        return block, 0
    realized_entry = entry_time + flow_in
    cost = segment_cost(inst, block, realized_entry)
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
    if tuple(segment) == block:
        return block, 0
    return tuple(segment), cost - initial_cost


def certify_global(flow_in: int, sorted_profile: WaitingProfile) -> bool:
    """Global-optimality certificate for an exchanged block.

    True when the incoming flow covers all idle of the block re-sorted by
    non-decreasing processing time; the exchanged order is then globally
    optimal for the block (it coincides with shortest-processing-first).
    """
    return flow_in + sum(min(0, w) for w in sorted_profile.waits) >= 0


def bottleneck_breakthrough(
    inst: Instance, block: tuple[int, ...], entry_time: int, flow_in: int
) -> tuple[tuple[int, ...], int]:
    """Unblock a falling flow by pulling waiting jobs in front of bottlenecks.

    The flow f_D enters the block head; a position whose baseline wait is
    below the remaining flow caps the cascade. For each such bottleneck,
    the candidate pull-backs are later jobs with positive wait whose
    post-move wait stays above the bottleneck's; the cheapest strictly
    paying one (cost at the flow-shifted entry, ties by processing time
    then position) is applied. When none pays, the flow shrinks to the
    bottleneck's truncated wait and the scan moves on. Returns the reworked
    jobs and the net realized cost change.
    """
    segment = list(block)
    m = len(segment)
    flow = flow_in
    if m <= 1 or flow <= 0:
        return block, 0
    waits = segment_profile(inst, block, entry_time).waits
    if all(w >= flow for w in waits):
        return block, 0
    realized_entry = entry_time - flow_in
    initial_cost = segment_cost(inst, block, realized_entry)

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
        shifted_entry = entry_time - flow
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
            waits = segment_profile(inst, tuple(segment), entry_time).waits
            scan_from = 0
        else:
            flow = max(0, waits[bottleneck])
            scan_from = bottleneck + 1
    if tuple(segment) == block:
        return block, 0
    final_cost = segment_cost(inst, tuple(segment), realized_entry)
    return tuple(segment), final_cost - initial_cost
