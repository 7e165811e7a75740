"""The driver's per-solve cache returns exactly what a recomputation would.

A solve records, in one private cache, objectives by order, the solution
space of each incumbent in each direction, the result of each rule call
keyed by (rule, block jobs, entry time, flow in): the reworked block with
its idle shift, or a marker for a block the rule left as it was, and the
candidate order of each pipeline keyed by (direction, i, k, moved order).
These tests audit every entry a few solves leave behind against a fresh
computation, check that the cache splices a reworked block into its own
positions only and rejects a rule output that is not a reordering of its
block, and pin how many rule calls still reach ``minwait.rules`` and how
many pipelines are computed rather than replayed on one golden instance.
"""

from __future__ import annotations

import random

import pytest

import minwait.driver
from minwait import (
    BACKWARD,
    FORWARD,
    EngineInvariantError,
    Instance,
    Sequence,
    adjacent_exchange,
    apply_move,
    backward_solution_set,
    bottleneck_breakthrough,
    compute_profile,
    forward_solution_set,
    optimal_sort,
)
from minwait.timeline import segment_completion

from test_golden import golden_instance

SolveCache = minwait.driver._SolveCache
UNCHANGED = minwait.driver._UNCHANGED

# Rule calls that reach minwait.rules during one solve of the golden
# instance ("generated", 8, 0); the rest are answered by the cache.
RULE_CALLS = {"bottleneck_breakthrough": 291, "adjacent_exchange": 223}
# Pipelines computed during that solve, one memo entry each; the other
# 1,593 forward and 337 backward pipelines it evaluates are replayed.
PIPELINE_ENTRIES = {FORWARD: 349, BACKWARD: 25}


def regime_instance(rng: random.Random, n: int, crowded: bool) -> Instance:
    processing = tuple(rng.randint(1, 30) for _ in range(n))
    # crowded: arrivals within a third of the total work; idle-rich: over twice it
    horizon = sum(processing) // 3 if crowded else 2 * sum(processing)
    release = tuple(rng.randint(0, horizon) for _ in range(n))
    return Instance(n=n, release=release, processing=processing)


def solve_keeping_caches(monkeypatch, inst: Instance) -> list:
    caches = []

    class Recording(SolveCache):
        def __init__(self, inst: Instance) -> None:
            super().__init__(inst)
            caches.append(self)

    monkeypatch.setattr(minwait.driver, "_SolveCache", Recording)
    optimal_sort(inst)
    return caches


def audit(cache) -> None:
    inst = cache.inst
    for order, objective in cache._objectives.items():
        assert objective == compute_profile(inst, Sequence(order=order)).objective
    for order, profile in cache._profiles.items():
        assert profile == compute_profile(inst, Sequence(order=order))
    for (direction, order), rows in cache._spaces.items():
        profile = compute_profile(inst, Sequence(order=order))
        solution_set = forward_solution_set if direction == FORWARD else backward_solution_set
        assert rows == tuple(
            tuple(sorted(solution_set(profile, inst, i), reverse=direction == BACKWARD))
            for i in range(1, inst.n + 1)
        )
    for (rule, jobs, entry_time, flow_in), entry in cache._blocks.items():
        assert rule in (adjacent_exchange, bottleneck_breakthrough)
        block = rule(inst, jobs, entry_time, flow_in)[0]
        if entry is UNCHANGED:
            assert block == jobs
            continue
        assert entry[0] == block != jobs
        # the idle shift is measured from the rule's realized entry
        realized = entry_time - flow_in if rule is bottleneck_breakthrough else entry_time + flow_in
        assert entry[1] == segment_completion(inst, block, realized) - segment_completion(
            inst, jobs, realized
        )
    for (direction, i, k, moved), reworked in cache._pipelines.items():
        # the inverse move recovers the incumbent the pipeline started from
        inverse = BACKWARD if direction == FORWARD else FORWARD
        incumbent = apply_move(Sequence(order=moved), k, i, inverse)
        assert apply_move(incumbent, i, k, direction).order == moved
        pipeline = (
            minwait.driver._forward_pipeline
            if direction == FORWARD
            else minwait.driver._backward_pipeline
        )
        fresh = SolveCache(inst)
        profile = compute_profile(inst, incumbent)
        assert pipeline(fresh, incumbent, profile, i, k) == reworked


@pytest.mark.parametrize("crowded", [True, False], ids=["crowded", "idle-rich"])
def test_every_cache_entry_matches_a_fresh_computation(monkeypatch, crowded):
    rng = random.Random(71 if crowded else 72)
    entries = 0
    directions = set()
    shifts = {adjacent_exchange: set(), bottleneck_breakthrough: set()}
    for n in (6, 7, 7, 8):
        (cache,) = solve_keeping_caches(monkeypatch, regime_instance(rng, n, crowded))
        audit(cache)
        assert {direction for direction, _ in cache._spaces} == {FORWARD, BACKWARD}
        assert cache._blocks
        entries += len(cache._blocks)
        directions.update(direction for direction, *_ in cache._pipelines)
        for (rule, *_), entry in cache._blocks.items():
            if entry is not UNCHANGED:
                shifts[rule].add(entry[1])
    assert entries >= 100
    assert directions == {FORWARD, BACKWARD}
    # the audit saw nonzero shifts from both rules, not only zeros
    assert all(values - {0} for values in shifts.values())


def test_rework_touches_only_its_block():
    # a miss, then a hit: both splice the reworked block into positions start..stop
    inst = Instance(n=5, release=(0, 20, 104, 60, 150), processing=(4, 5, 30, 3, 2))
    cache = SolveCache(inst)
    for _ in range(2):
        order, _ = cache.rework((1, 2, 3, 4, 5), 2, 4, bottleneck_breakthrough, 50, 100)
        assert order == (1, 2, 4, 3, 5)

    inst = Instance(n=4, release=(0, 1, 2, 300), processing=(9, 5, 3, 1))
    cache = SolveCache(inst)
    for _ in range(2):
        out, _ = cache.rework((1, 2, 3, 4), 1, 3, adjacent_exchange, 0, 0)
        assert out == adjacent_exchange(inst, (1, 2, 3), 0, 0)[0] + (4,) == (2, 3, 1, 4)

    # the longer job leads, but swapping strands it behind a late release
    inst = Instance(n=3, release=(0, 100, 0), processing=(5, 1, 2))
    order = (3, 1, 2)
    cache = SolveCache(inst)
    for _ in range(2):
        out, shift = cache.rework(order, 2, 3, adjacent_exchange, 0, 2)
        assert out is order and shift == 0


def test_rework_rejects_a_block_that_is_not_a_reordering():
    inst = Instance(n=3, release=(0, 0, 0), processing=(3, 2, 1))

    def duplicating(inst, block, entry_time, flow_in):
        return (block[0],) * len(block), 0

    with pytest.raises(EngineInvariantError):
        SolveCache(inst).rework((1, 2, 3), 1, 3, duplicating, 0, 0)


def test_cache_lives_for_one_solve(monkeypatch, reference):
    first = solve_keeping_caches(monkeypatch, reference)
    second = solve_keeping_caches(monkeypatch, reference)
    assert len(first) == len(second) == 1 and first[0] is not second[0]


def test_rule_calls_reaching_rules(monkeypatch):
    calls = dict.fromkeys(RULE_CALLS, 0)
    for name in RULE_CALLS:
        rule = getattr(minwait.driver, name)

        def counting(*args, _rule=rule, _name=name):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setattr(minwait.driver, name, counting)
    optimal_sort(golden_instance("generated", 8, 0))
    assert calls == RULE_CALLS


def test_pipelines_computed_once(monkeypatch):
    (cache,) = solve_keeping_caches(monkeypatch, golden_instance("generated", 8, 0))
    entries = dict.fromkeys(PIPELINE_ENTRIES, 0)
    for direction, *_ in cache._pipelines:
        entries[direction] += 1
    assert entries == PIPELINE_ENTRIES
