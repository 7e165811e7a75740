"""The driver's per-solve cache returns exactly what a recomputation would.

A solve records, in one private cache, objectives by order, the solution
space of each incumbent, and the reworked block of each rule call keyed by
(role, block jobs, entry time, flow in). These tests audit every entry a few
solves leave behind against a fresh computation, and pin how many rule calls
still reach ``minwait.rules`` on one golden instance.
"""

from __future__ import annotations

import random

import pytest

import minwait.driver
from minwait import (
    ROLE_DECREASING,
    Instance,
    SegmentContext,
    Sequence,
    adjacent_exchange,
    backward_solution_set,
    bottleneck_breakthrough,
    compute_profile,
    forward_solution_set,
    optimal_sort,
)

from test_golden import golden_instance

SolveCache = minwait.driver._SolveCache

# Rule calls that reach minwait.rules during one solve of the golden
# instance ("generated", 8, 0); the rest are answered by the cache.
RULE_CALLS = {"bottleneck_breakthrough": 291, "adjacent_exchange": 223}


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
    for order, anchors in cache._forward.items():
        seq = Sequence(order=order)
        profile = compute_profile(inst, seq)
        assert anchors == tuple(
            tuple(sorted(forward_solution_set(profile, inst, seq, i)))
            for i in range(1, inst.n + 1)
        )
    for order, targets in cache._backward.items():
        seq = Sequence(order=order)
        profile = compute_profile(inst, seq)
        assert targets == tuple(
            tuple(sorted(backward_solution_set(profile, inst, seq, i), reverse=True))
            for i in range(1, inst.n + 1)
        )
    for (role, jobs, entry_time, flow_in), block in cache._blocks.items():
        rest = tuple(job for job in range(1, inst.n + 1) if job not in jobs)
        seq = Sequence(order=jobs + rest)
        ctx = SegmentContext(
            start=1, stop=len(jobs), role=role, flow_in=flow_in, entry_time=entry_time
        )
        rule = bottleneck_breakthrough if role == ROLE_DECREASING else adjacent_exchange
        reworked, _ = rule(ctx, inst, seq)
        assert block == (None if reworked is seq else reworked.order[: len(jobs)])
        assert reworked.order[len(jobs) :] == rest


@pytest.mark.parametrize("crowded", [True, False], ids=["crowded", "idle-rich"])
def test_every_cache_entry_matches_a_fresh_computation(monkeypatch, crowded):
    rng = random.Random(71 if crowded else 72)
    entries = 0
    for n in (6, 7, 7, 8):
        (cache,) = solve_keeping_caches(monkeypatch, regime_instance(rng, n, crowded))
        audit(cache)
        assert cache._forward and cache._blocks
        entries += len(cache._blocks)
    assert entries >= 100


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
