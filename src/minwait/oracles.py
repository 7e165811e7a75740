"""Independent exact baselines to hold the solver to account.

Two oracles compute the true optimum without sharing any code path with
the solver: an exhaustive permutation search (small n, prefix-objective
pruning only) and a depth-first branch and bound whose lower bound is the
preemptive shortest-remaining-processing-time relaxation, a classical
valid bound for the non-preemptive problem. A text exporter emits the
disjunctive big-M formulation for any external LP/MILP solver.

Branch and bound keeps each node's unscheduled jobs in (release, id)
order from the root; dropping one job keeps that order, so no node sorts
for the bound. One private kernel, ``_srpt_bound``, computes the bound in
a single pass over those jobs with a heap of remaining times, and once no
release is pending it finishes the queue shortest-first with one sort.
``srpt_waiting_bound`` is the public form: it accepts jobs in any order,
sorts them and calls the kernel.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

from .instances import Instance, Sequence, initial_sequence

BRUTE_FORCE_LIMIT = 11


@dataclass(frozen=True)
class OracleResult:
    objective: int
    sequence: Sequence
    proved_optimal: bool
    nodes_explored: int
    elapsed: float


def _sequence_objective(inst: Instance, order: tuple[int, ...]) -> int:
    free_at = 0
    total = 0
    for job in order:
        r = inst.release[job - 1]
        start = free_at if free_at > r else r
        total += start - r
        free_at = start + inst.processing[job - 1]
    return total


def brute_force_optimum(inst: Instance) -> OracleResult:
    """Exact minimum by exhaustive search over all n! orders.

    Children are visited earliest-start-first so a good incumbent appears
    early; a prefix is abandoned as soon as its accrued waiting already
    matches the incumbent. Guarded to n <= 11.
    """
    if inst.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for brute force: n={inst.n} > {BRUTE_FORCE_LIMIT}")
    started = time.perf_counter()
    release = inst.release
    processing = inst.processing
    n = inst.n

    incumbent_order = initial_sequence(inst).order
    incumbent = _sequence_objective(inst, incumbent_order)
    nodes = 0
    prefix: list[int] = []
    remaining = set(range(1, n + 1))

    def descend(free_at: int, accrued: int) -> None:
        nonlocal incumbent, incumbent_order, nodes
        if not remaining:
            if accrued < incumbent:
                incumbent = accrued
                incumbent_order = tuple(prefix)
            return
        children = sorted(
            remaining,
            key=lambda j: (
                max(free_at, release[j - 1]),
                processing[j - 1],
                j,
            ),
        )
        for job in children:
            r = release[job - 1]
            start = free_at if free_at > r else r
            added = accrued + start - r
            nodes += 1
            if added >= incumbent:
                continue
            prefix.append(job)
            remaining.discard(job)
            descend(start + processing[job - 1], added)
            remaining.add(job)
            prefix.pop()

    descend(0, 0)
    return OracleResult(
        objective=incumbent,
        sequence=Sequence(order=incumbent_order),
        proved_optimal=True,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - started,
    )


def _srpt_bound(
    release: tuple[int, ...], processing: tuple[int, ...], jobs: list[int], t: int
) -> int:
    """Preemptive shortest-remaining-time total waiting of ``jobs`` from time ``t``.

    ``jobs`` must be in release order, as branch and bound keeps its
    unscheduled set, so no call sorts. ``release`` and ``processing`` are
    indexed by job id (entry 0 unused). The heap holds
    remaining times only: which of two equal remaining times runs first
    changes no completion time, so the total is that of any SRPT schedule.
    Waiting is total completion minus each job's release plus processing.
    Once no release is pending, the queue finishes shortest-first.
    """
    heap: list[int] = []
    total = 0
    for job in jobs:
        r = release[job]
        if r > t:
            while heap:
                end = t + heap[0]
                if end > r:
                    heapreplace(heap, end - r)
                    break
                heappop(heap)
                t = end
                total += end
            t = r
        p = processing[job]
        heappush(heap, p)
        total -= r + p
    for remaining in sorted(heap):
        t += remaining
        total += t
    return total


def srpt_waiting_bound(inst: Instance, jobs: tuple[int, ...], start_time: int) -> int:
    """Preemptive shortest-remaining-time total waiting of ``jobs`` from ``start_time``.

    Preemption can only lower total completion, so this is an admissible
    lower bound on the waiting any non-preemptive completion of the same
    jobs accrues from the same machine-free time. ``jobs`` may come in any
    order.
    """
    release = (0, *inst.release)
    by_release = sorted(jobs, key=release.__getitem__)
    return _srpt_bound(release, (0, *inst.processing), by_release, start_time)


def branch_and_bound_optimum(
    inst: Instance,
    node_limit: int | None = None,
    time_limit_ms: int | None = None,
    dominance: bool = True,
) -> OracleResult:
    """Exact optimum by depth-first search with the preemptive bound.

    States are pruned on (a) bound >= incumbent, (b) an already-seen
    unscheduled set reachable no later and no more expensively, and, when
    ``dominance`` is on, (c) branching on a job some other unscheduled job
    could finish before it even starts (delaying nothing, a strict win for
    the inserted job). Limits turn the result into a best-effort incumbent
    with proved_optimal False.

    Children are visited earliest-start-first (ties: shorter, then lower
    id). The search keeps an explicit stack of the nodes whose children are
    being visited, so its depth is not bounded by Python's recursion limit.
    Each node's unscheduled jobs stay in (release, id) order: the bound
    reads them in that order, and the jobs released by the node's start
    time are a prefix of them.
    """
    started = time.perf_counter()
    deadline = None if time_limit_ms is None else started + time_limit_ms / 1000.0
    n = inst.n
    # indexed by job id, entry 0 unused
    release = (0, *inst.release)
    processing = (0, *inst.processing)
    start_key = release.__getitem__
    # the initial order is by (release, processing, id)
    incumbent_order = initial_sequence(inst).order
    incumbent = _sequence_objective(inst, incumbent_order)
    # child order as ranks: released jobs by (processing, id), later ones by
    # (release, processing, id)
    by_processing = [0] * (n + 1)
    for rank, job in enumerate(sorted(range(1, n + 1), key=lambda j: (processing[j], j))):
        by_processing[job] = rank
    by_arrival = [0] * (n + 1)
    for rank, job in enumerate(incumbent_order):
        by_arrival[job] = rank
    released_key = by_processing.__getitem__
    later_key = by_arrival.__getitem__

    nodes = 0
    completed = True
    prefix: list[int] = []
    # mask -> pareto list of (free_at, accrued) already explored
    seen: dict[int, list[tuple[int, int]]] = {}

    def out_of_budget() -> bool:
        if node_limit is not None and nodes >= node_limit:
            return True
        if deadline is not None and time.perf_counter() > deadline:
            return True
        return False

    def dominated_state(mask: int, free_at: int, accrued: int) -> bool:
        entries = seen.get(mask)
        if entries is None:
            seen[mask] = [(free_at, accrued)]
            return False
        for t, a in entries:
            if t <= free_at and a <= accrued:
                return True
        entries[:] = [(t, a) for t, a in entries if not (free_at <= t and accrued <= a)]
        entries.append((free_at, accrued))
        return False

    def enter(mask: int, free_at: int, accrued: int, remaining: list[int]) -> list[int] | None:
        """Count one node; return the children to visit, or None if it is closed."""
        nonlocal incumbent, incumbent_order, nodes, completed
        nodes += 1
        if out_of_budget():
            completed = False
            return None
        if not remaining:
            if accrued < incumbent:
                incumbent = accrued
                incumbent_order = tuple(prefix)
            return None
        if dominated_state(mask, free_at, accrued):
            return None
        if accrued + _srpt_bound(release, processing, remaining, free_at) >= incumbent:
            return None
        ready = bisect_right(remaining, free_at, key=start_key)
        released = remaining[:ready]
        if not dominance:
            later = remaining[ready:]
        else:
            # keep only jobs that start before the earliest finish of any
            # job; past the first release at or after it, no job can start
            # before it or finish sooner, so the scan stops there
            if released:
                earliest_finish = free_at + min(map(processing.__getitem__, released))
            else:
                first = remaining[0]
                earliest_finish = release[first] + processing[first]
            stop = ready
            for job in remaining[ready:]:
                r = release[job]
                if r >= earliest_finish:
                    break
                if r + processing[job] < earliest_finish:
                    earliest_finish = r + processing[job]
                stop += 1
            later = remaining[ready:stop]
        released.sort(key=released_key)
        later.sort(key=later_key)
        return released + later

    # One frame per open node: (mask, free_at, accrued, remaining, children
    # not yet visited); the prefix holds one job per frame below the root.
    root = sorted(range(1, n + 1), key=start_key)
    children = enter(0, 0, 0, root)
    stack = [] if children is None else [(0, 0, 0, root, iter(children))]
    while stack:
        mask, free_at, accrued, remaining, pending = stack[-1]
        for job in pending:
            r = release[job]
            start = free_at if free_at > r else r
            added = accrued + start - r
            if added >= incumbent:
                continue
            prefix.append(job)
            rest = remaining.copy()
            rest.remove(job)
            child = (mask | (1 << job), start + processing[job], added, rest)
            children = enter(*child)
            if children is not None:
                stack.append((*child, iter(children)))
                break
            prefix.pop()
            if not completed:
                stack.clear()
                break
        else:
            stack.pop()
            if stack:
                prefix.pop()

    return OracleResult(
        objective=incumbent,
        sequence=Sequence(order=incumbent_order),
        proved_optimal=completed,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - started,
    )


def auto_big_m(inst: Instance) -> int:
    """Default big-M: max release plus total processing (a horizon bound)."""
    return max(inst.release) + sum(inst.processing)


def export_milp(inst: Instance, big_m: int | None = None) -> str:
    """Disjunctive big-M formulation as LP-format text.

    Variables: continuous S_i (start, bounded below by r_i) and w_i
    (waiting, w_i >= S_i - r_i); binary x_i_j for i < j, 1 when i precedes
    j. Each unordered pair gets the two disjunctive constraints. Output is
    deterministic, LF-terminated.
    """
    m = auto_big_m(inst) if big_m is None else big_m
    lines = ["Minimize"]
    lines.append(" obj: " + " + ".join(f"w_{i}" for i in range(1, inst.n + 1)))
    lines.append("Subject To")
    for i in range(1, inst.n + 1):
        for j in range(i + 1, inst.n + 1):
            # S_i + p_i <= S_j + (1 - x_ij) M
            lines.append(
                f" prec_{i}_{j}_a: S_{i} - S_{j} + {m} x_{i}_{j} <= {m - inst.p(i)}"
            )
            # S_j + p_j <= S_i + x_ij M
            lines.append(
                f" prec_{i}_{j}_b: S_{j} - S_{i} - {m} x_{i}_{j} <= {-inst.p(j)}"
            )
    for i in range(1, inst.n + 1):
        lines.append(f" wait_{i}: w_{i} - S_{i} >= {-inst.r(i)}")
    lines.append("Bounds")
    for i in range(1, inst.n + 1):
        lines.append(f" S_{i} >= {inst.r(i)}")
    lines.append("Binaries")
    for i in range(1, inst.n + 1):
        for j in range(i + 1, inst.n + 1):
            lines.append(f" x_{i}_{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"
