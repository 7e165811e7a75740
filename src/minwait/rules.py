"""The two block rules behind the solver.

A relocation splits the queue sigma_t into an untouched prefix, a block whose
waits drop (P_D) and a block whose waits rise (P_I). Each rule reworks one
such block from three inputs: its jobs, its entry time (the completion of
whatever precedes it) and the flow it receives from the rest of the queue.

In the paper's symbols, job i of a block waits w_i = r_0^o + p_0^o - r_i.
At the block's head r_0^o + p_0^o is the entry time; further in it is
C_{i-1}, and it restarts from r_i wherever w_i <= 0 makes job i a leader
(``_block_waits``). A flow is a shift of r_0^o + p_0^o at the block's
entry: a decreasing flow f_D lowers it by f_D, an increasing flow f_I
raises it by f_I. Job i passes on min(f_D, max(0, w_i)) of a decreasing
flow and max(0, f_I + min(0, w_i)) of an increasing one, so a flow carries
unchanged through queued jobs and is cut or damped at leaders.

  * adjacent exchange, for P_I under f_I: bubble longer jobs backward
    whenever the swap strictly lowers the block's realized cost;
  * bottleneck breakthrough, for P_D under f_D: a position whose wait is
    below the remaining flow caps how far f_D carries (a bottleneck); pull
    a later waiting job in front of it if doing so strictly pays.

A block's realized cost is the sum of max(0, w_i) over its jobs, computed
from the shifted entry (entry - f_D, or entry + f_I), so the rules' cost
tests are exact integer comparisons of those totals. Both rules return the
reworked jobs and the change of the block's realized cost, and return the
input block object itself when its order did not change. Placing the
block back into a queue is the caller's job.
"""

from __future__ import annotations

from .instances import Instance
from .timeline import WaitingProfile, segment_cost

# Not called here; the benchmark tracer wraps these names in this module.
from .instances import Sequence  # noqa: F401
from .timeline import segment_profile  # noqa: F401


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
    processing = inst.processing
    realized_entry = entry_time + flow_in
    cost = segment_cost(inst, block, realized_entry)
    initial_cost = cost
    swapped = True
    while swapped:
        swapped = False
        for j in range(len(segment) - 1):
            if processing[segment[j] - 1] <= processing[segment[j + 1] - 1]:
                continue
            candidate = segment.copy()
            candidate[j], candidate[j + 1] = candidate[j + 1], candidate[j]
            candidate_cost = segment_cost(inst, tuple(candidate), realized_entry)
            if candidate_cost < cost:
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


def _block_waits(inst: Instance, block: list[int], entry_time: int) -> list[int]:
    """Signed waits of a block whose machine becomes free at ``entry_time``."""
    release = inst.release
    processing = inst.processing
    waits = []
    prev_completion = entry_time
    for job in block:
        r = release[job - 1]
        w = prev_completion - r
        waits.append(w)
        prev_completion = (prev_completion if w > 0 else r) + processing[job - 1]
    return waits


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
    processing = inst.processing
    waits = _block_waits(inst, segment, entry_time)
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
            passed += min(0, waits[g - 1]) - processing[segment[g - 1] - 1]
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
            key = (value, processing[job - 1], g)
            if best is None or key < best[0]:
                best = (key, candidate)
        if best is not None:
            segment = best[1]
            waits = _block_waits(inst, segment, entry_time)
            scan_from = 0
        else:
            flow = max(0, waits[bottleneck])
            scan_from = bottleneck + 1
    if tuple(segment) == block:
        return block, 0
    final_cost = segment_cost(inst, tuple(segment), realized_entry)
    return tuple(segment), final_cost - initial_cost
