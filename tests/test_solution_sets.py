from __future__ import annotations

import itertools
import random

import pytest

from minwait import (
    BACKWARD,
    FORWARD,
    Instance,
    Sequence,
    apply_move,
    backward_move_delta,
    backward_solution_set,
    compute_profile,
    forward_move_delta,
    forward_solution_set,
    segment_profile,
)

from conftest import random_instance
from test_golden import golden_instance


def test_forward_sets_reference(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(reference, seq)
    assert forward_solution_set(profile, reference, 4) == {5}
    assert forward_solution_set(profile, reference, 1) == {2, 3, 4, 5}
    assert forward_solution_set(profile, reference, 5) == set()


def test_backward_sets_reference(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(reference, seq)
    # position 5 waits 1; one step back already frees 5 - (-8) = 13 >= 1
    assert backward_solution_set(profile, reference, 5) == {4}
    # non-waiting positions never move backward profitably
    for pos in (1, 4):
        assert profile.wait_at(pos) <= 0
        assert backward_solution_set(profile, reference, pos) == set()


def test_backward_set_defaults_to_full_range():
    # w at the last position exceeds every cumulative: all insertion points
    inst = Instance(n=4, release=(0, 0, 0, 0), processing=(50, 50, 50, 1))
    seq = Sequence(order=(1, 2, 3, 4))
    profile = compute_profile(inst, seq)
    assert profile.wait_at(4) == 150
    assert backward_solution_set(profile, inst, 4) == {1, 2, 3}


def test_full_space_reference(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(reference, seq)
    forward = [forward_solution_set(profile, reference, i) for i in range(1, 6)]
    backward = [backward_solution_set(profile, reference, i) for i in range(1, 6)]
    assert forward == [{2, 3, 4, 5}, set(), set(), {5}, set()]
    assert backward == [set(), {1}, {2}, set(), {4}]


def test_full_space_single_job():
    inst = Instance(n=1, release=(0,), processing=(3,))
    profile = compute_profile(inst, Sequence(order=(1,)))
    assert forward_solution_set(profile, inst, 1) == frozenset()
    assert backward_solution_set(profile, inst, 1) == frozenset()


def test_membership_satisfies_defining_inequalities():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 20))
        seq = Sequence(order=tuple(range(1, inst.n + 1)))
        profile = compute_profile(inst, seq)
        for i in range(1, inst.n + 1):
            freed = inst.p(seq.job_at(i)) - min(0, profile.wait_at(i))
            for k in forward_solution_set(profile, inst, i):
                total = sum(
                    inst.p(seq.job_at(j)) - freed for j in range(i + 1, k + 1)
                )
                assert total <= 0
            back = backward_solution_set(profile, inst, i)
            if profile.wait_at(i) <= 0:
                assert back == set()
            elif back:
                # within the crossing the range is contiguous up to i-1;
                # deeper members must carry a strictly improving prediction
                assert max(back) == i - 1
                run_start = max(back)
                while run_start - 1 in back:
                    run_start -= 1
                for k in back:
                    if k < run_start:
                        ev = backward_move_delta(profile, inst, i, k)
                        assert ev.delta_total < 0


def test_completeness_on_exhaustive_enumeration():
    # every strictly improving relocation of the release-sorted order lies
    # inside the union of the two solution set families
    rng = random.Random(32)
    for _ in range(40):
        inst = random_instance(rng, 8)
        order = sorted(range(1, 9), key=lambda j: (inst.r(j), inst.p(j), j))
        seq = Sequence(order=tuple(order))
        profile = compute_profile(inst, seq)
        for i in range(1, 9):
            forward = forward_solution_set(profile, inst, i)
            for k in range(i + 1, 9):
                after = compute_profile(inst, apply_move(seq, i, k, FORWARD))
                if after.objective < profile.objective:
                    assert k in forward, (inst, i, k)
            backward = backward_solution_set(profile, inst, i)
            for k in range(1, i):
                after = compute_profile(inst, apply_move(seq, i, k, BACKWARD))
                if after.objective < profile.objective:
                    assert k in backward, (inst, i, k)


@pytest.mark.parametrize("regime", ["generated", "dense", "sparse"])
def test_backward_completeness_on_shuffled_orders(regime):
    # the backward family holds every strictly improving insertion at any
    # order, not only at the release-sorted one
    rng = random.Random(7)
    improving = 0
    for index in range(150):
        inst = golden_instance(regime, 9, index, seed=777)
        order = list(range(1, 10))
        rng.shuffle(order)
        seq = Sequence(order=tuple(order))
        profile = compute_profile(inst, seq)
        for i in range(2, 10):
            backward = backward_solution_set(profile, inst, i)
            for k in range(1, i):
                after = compute_profile(inst, apply_move(seq, i, k, BACKWARD))
                if after.objective < profile.objective:
                    improving += 1
                    assert k in backward, (inst, seq, i, k)
    assert improving > 1000


def running_sum_backward_set(profile, inst, i):
    """backward_solution_set with j* found by walking the freed-up time back from i."""
    w_i = profile.wait_at(i)
    if w_i <= 0:
        return frozenset()
    crossing = i - 1
    cumulative = 0
    for steps in range(1, i):
        j = i - steps
        cumulative += inst.p(profile.job_at(j)) - min(0, profile.wait_at(j))
        if w_i <= cumulative:
            crossing = steps
            break
    members = set(range(i - crossing, i))
    for k in range(1, i - crossing):
        if backward_move_delta(profile, inst, i, k).delta_total < 0:
            members.add(k)
    return frozenset(members)


def test_backward_crossing_by_completions_equals_the_running_sum_walk():
    # the walk's running sum after s steps is C_{i-1} - C_{i-1-s}, so both
    # ways of finding j* give the same set, on whole-queue and segment profiles
    rng = random.Random(33)
    waiting = 0
    # crowded (spread 3 per job) and idle-rich (60) releases, small and around 1e12
    scales = ((0, 1), (10**12, 1), (10**12, 10**10))
    for (offset, unit), spread in itertools.product(scales, (3, 60)):
        for _ in range(40):
            n = rng.randint(2, 10)
            inst = Instance(
                n=n,
                release=tuple(offset + rng.randint(0, spread * n) * unit for _ in range(n)),
                processing=tuple(rng.randint(1, 50) * unit for _ in range(n)),
            )
            order = list(range(1, n + 1))
            rng.shuffle(order)
            entry = offset + rng.randint(0, 2 * spread * n) * unit
            for profile in (
                compute_profile(inst, Sequence(order=tuple(order))),
                segment_profile(inst, tuple(order), entry),
            ):
                for i in range(1, n + 1):
                    waiting += profile.wait_at(i) > 0
                    expected = running_sum_backward_set(profile, inst, i)
                    assert backward_solution_set(profile, inst, i) == expected, (inst, order, i)
    assert waiting > 1000


@pytest.mark.xfail(strict=True, reason="forward sets miss improving moves of queue leaders")
def test_forward_set_admits_improving_leader_move():
    # input 643 of the benchmark's solve_dense workload at seed 12, at the
    # order the solver stops at (240; the proven optimum is 233)
    inst = Instance(
        n=8,
        release=(86, 101, 73, 70, 54, 128, 36, 34),
        processing=(1, 25, 44, 42, 9, 5, 45, 15),
    )
    profile = compute_profile(inst, Sequence(order=(8, 5, 7, 1, 2, 6, 4, 3)))
    assert profile.objective == 240
    # job 5 leads a queue at position 2: w = -5
    assert (profile.job_at(2), profile.wait_at(2), profile.leader[1]) == (5, -5, True)
    assert forward_move_delta(profile, inst, 2, 4).delta_total == -7
    assert 4 in forward_solution_set(profile, inst, 2)
