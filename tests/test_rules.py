from __future__ import annotations

import itertools
import random

import pytest

from minwait import (
    Instance,
    Sequence,
    adjacent_exchange,
    bottleneck_breakthrough,
    certify_global,
    compute_profile,
    segment_profile,
)
from minwait.driver import _SolveCache

from conftest import random_instance


def best_permutation_cost(inst, jobs, entry):
    from minwait import segment_cost

    return min(
        segment_cost(inst, perm, entry) for perm in itertools.permutations(jobs)
    )


def test_exchange_sorts_small_queue():
    inst = Instance(n=3, release=(0, 1, 2), processing=(2, 5, 3))
    out, change = adjacent_exchange(inst, (1, 2, 3), 0, 0)
    assert out == (1, 3, 2)
    assert change == 4 - 6
    # 4 is the true minimum over all six orders
    assert best_permutation_cost(inst, (1, 2, 3), 0) == 4


def test_exchange_identity_on_sorted_segment():
    inst = Instance(n=4, release=(0, 0, 0, 0), processing=(1, 2, 3, 4))
    block = (1, 2, 3, 4)
    out, change = adjacent_exchange(inst, block, 0, 7)
    assert out is block
    assert change == 0


def test_exchange_identity_on_single_job():
    inst = Instance(n=2, release=(0, 1), processing=(5, 1))
    block = (2,)
    out, change = adjacent_exchange(inst, block, 5, 3)
    assert out is block and change == 0


def test_exchange_rejects_negative_flow():
    inst = Instance(n=2, release=(0, 0), processing=(2, 1))
    with pytest.raises(ValueError):
        adjacent_exchange(inst, (1, 2), 0, -1)


def test_exchange_never_swaps_nondecreasing_pairs():
    rng = random.Random(51)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(2, 9))
        order = list(range(1, inst.n + 1))
        rng.shuffle(order)
        block = tuple(order)
        flow = rng.randint(0, 80)
        entry = rng.randint(0, 250)
        out, change = adjacent_exchange(inst, block, entry, flow)
        assert change <= 0
        # p-inversions can only shrink: accepted swaps always put the
        # shorter job first
        def inversions(order):
            return sum(
                1
                for a in range(len(order))
                for b in range(a + 1, len(order))
                if inst.p(order[a]) > inst.p(order[b])
            )

        assert inversions(out) <= inversions(block)


def test_certificate_simple_cases():
    inst = Instance(n=3, release=(0, 0, 0), processing=(3, 2, 1))
    sorted_block = segment_profile(inst, (3, 2, 1), entry_time=0)
    assert all(w >= 0 for w in sorted_block.waits)
    assert certify_global(0, sorted_block)

    gappy = Instance(n=2, release=(0, 10), processing=(3, 2))
    block = segment_profile(gappy, (1, 2), entry_time=0)
    assert sum(min(0, w) for w in block.waits) == -7
    assert not certify_global(5, block)
    assert certify_global(7, block)


def test_certified_exchange_is_globally_optimal():
    from minwait import segment_cost

    rng = random.Random(52)
    certified = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        entry = rng.randint(0, 250)
        flow = rng.randint(0, 120)
        jobs = tuple(range(1, n + 1))
        spt = tuple(sorted(jobs, key=lambda j: (inst.p(j), j)))
        if not certify_global(flow, segment_profile(inst, spt, entry)):
            continue
        certified += 1
        order = list(jobs)
        rng.shuffle(order)
        out, _ = adjacent_exchange(inst, tuple(order), entry, flow)
        realized = segment_cost(inst, out, entry + flow)
        assert realized == best_permutation_cost(inst, jobs, entry + flow)
        # certified exchange agrees with shortest-processing-first cost
        assert realized == segment_cost(inst, spt, entry + flow)
    assert certified >= 40


def test_bottleneck_identity_cases():
    inst = Instance(n=3, release=(0, 5, 9), processing=(4, 3, 2))
    block = (1, 2, 3)
    for flow in (0, -4):
        out, change = bottleneck_breakthrough(inst, block, 20, flow)
        assert out is block and change == 0
    # every wait at entry 20 is at least the flow: nothing to break through
    waits = segment_profile(inst, block, 20).waits
    assert min(waits) >= 5
    out, change = bottleneck_breakthrough(inst, block, 20, 5)
    assert out is block and change == 0


def test_bottleneck_pulls_back_blocking_job():
    from minwait import segment_cost

    # position 2 caps a flow of 50; pulling the waiting job at position 3
    # in front of it restores transmission
    inst = Instance(n=3, release=(20, 104, 60), processing=(5, 30, 3))
    block = (1, 2, 3)
    entry, flow = 100, 50
    assert segment_profile(inst, block, entry).waits == (80, 1, 75)
    out, change = bottleneck_breakthrough(inst, block, entry, flow)
    assert out == (1, 3, 2)
    realized_before = segment_cost(inst, block, entry - flow)
    realized_after = segment_cost(inst, out, entry - flow)
    assert change == realized_after - realized_before < 0
    # one move happened here, and it is the best single pull-back
    candidates = [
        segment_cost(inst, pulled, entry - flow)
        for pulled in [(1, 3, 2), (3, 1, 2)]
    ]
    assert realized_after == min(candidates + [realized_before])


def test_bottleneck_beats_every_single_pullback():
    from minwait import segment_cost

    inst = Instance(
        n=4, release=(20, 104, 0, 60), processing=(5, 30, 20, 3)
    )
    block = (1, 2, 3, 4)
    entry, flow = 100, 50
    out, change = bottleneck_breakthrough(inst, block, entry, flow)
    assert change < 0
    realized = segment_cost(inst, out, entry - flow)
    # exhaustive single pull-backs (any job to any earlier slot)
    singles = []
    for g in range(4):
        for target in range(g):
            order = list(block)
            job = order.pop(g)
            order.insert(target, job)
            singles.append(segment_cost(inst, tuple(order), entry - flow))
    assert realized <= min(singles)


def test_bottleneck_respects_range_inside_sequence():
    # reworking positions 2..4 must only rearrange that block and leave the rest alone
    inst = Instance(n=5, release=(0, 20, 104, 60, 150), processing=(4, 5, 30, 3, 2))
    seq = Sequence(order=(1, 2, 3, 4, 5))
    out = _SolveCache(inst).rework(seq, 2, 4, bottleneck_breakthrough, 50, 100)
    assert out.order[0] == 1 and out.order[4] == 5
    assert sorted(out.order[1:4]) == [2, 3, 4]


def test_exchange_respects_range_inside_sequence():
    inst = Instance(n=4, release=(0, 1, 2, 300), processing=(9, 5, 3, 1))
    seq = Sequence(order=(1, 2, 3, 4))
    out = _SolveCache(inst).rework(seq, 1, 3, adjacent_exchange, 0, 0)
    assert out.order[3] == 4
    assert sorted(out.order[:3]) == [1, 2, 3]


def test_rules_return_their_input_when_the_block_is_unchanged():
    from minwait import segment_cost

    # the longer job leads, but swapping strands it behind a late release
    inst = Instance(n=3, release=(0, 100, 0), processing=(5, 1, 2))
    block = (1, 2)
    assert segment_cost(inst, (2, 1), 2) > segment_cost(inst, block, 2)
    out, change = adjacent_exchange(inst, block, 2, 0)
    assert out is block and change == 0

    # position 2 is a bottleneck for a flow of 50, but the only later job idles
    inst = Instance(n=3, release=(20, 104, 200), processing=(5, 30, 3))
    block = (1, 2, 3)
    assert segment_profile(inst, block, 100).waits == (80, 1, -65)
    out, change = bottleneck_breakthrough(inst, block, 100, 50)
    assert out is block and change == 0
