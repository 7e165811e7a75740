from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minwait import (
    FCFS_CONSISTENT,
    LCFS_SWAPPED,
    EngineInvariantError,
    Instance,
    Sequence,
    classify_adjacent,
    compute_profile,
    generate_instance,
    segment_profile,
)

from _sim import simulate
from conftest import random_instance, random_sequence


def test_reference_profile(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(reference, seq)
    assert profile.waits == (0, 2, 1, -8, 1)
    assert profile.leader == (True, False, False, True, False)
    assert profile.objective == 4
    assert profile.starts == (0, 5, 8, 20, 25)
    assert profile.completions == (5, 8, 12, 25, 31)


def test_single_job_profile():
    inst = Instance(n=1, release=(0,), processing=(7,))
    profile = compute_profile(inst, Sequence(order=(1,)))
    assert profile.waits == (0,)
    assert profile.objective == 0
    assert profile.completions[-1] == 7


def test_swapped_tail_profile(reference):
    # values frozen from the independent simulation of order (1,2,3,5,4)
    sim = simulate(reference.release, reference.processing, (1, 2, 3, 5, 4))
    assert sim.signed_waits == (0, 2, 1, -12, 10)
    assert sim.objective == 13
    profile = compute_profile(reference, Sequence(order=(1, 2, 3, 5, 4)))
    assert profile.waits == (0, 2, 1, -12, 10)
    assert profile.objective == 13


def test_total_waiting(reference):
    assert compute_profile(reference, Sequence(order=(1, 2, 3, 4, 5))).objective == 4
    assert compute_profile(reference, Sequence(order=(1, 2, 3, 5, 4))).objective == 13
    spread = Instance(n=3, release=(0, 100, 200), processing=(5, 5, 5))
    assert compute_profile(spread, Sequence(order=(1, 2, 3))).objective == 0


def test_makespan(reference):
    profile = compute_profile(reference, Sequence(order=(1, 2, 3, 4, 5)))
    # first start + total processing + total idle, checked by simulation
    assert profile.completions[-1] == 0 + 23 + 8 == 31
    sim = simulate(reference.release, reference.processing, (1, 2, 3, 4, 5))
    assert profile.completions[-1] == sim.completions[-1]
    packed = Instance(n=3, release=(5, 0, 0), processing=(4, 3, 2))
    prof = compute_profile(packed, Sequence(order=(1, 2, 3)))
    assert prof.completions[-1] == 5 + 9


def test_classify_adjacent_reference(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(reference, seq)
    # max(0,0)+5 = 5 >= max(0,2) = 2
    assert classify_adjacent(profile, reference, seq, 1) == FCFS_CONSISTENT


def test_classify_adjacent_swapped_pair():
    inst = Instance(n=3, release=(0, 1, 2), processing=(2, 5, 3))
    seq = Sequence(order=(1, 3, 2))
    profile = compute_profile(inst, seq)
    assert profile.waits == (0, 0, 4)
    # jobs (3,2) at positions (2,3): r3 > r2 and 0+3 < 4
    assert classify_adjacent(profile, inst, seq, 2) == LCFS_SWAPPED


def test_classify_adjacent_equal_releases():
    inst = Instance(n=3, release=(4, 4, 4), processing=(9, 1, 3))
    for order in [(1, 2, 3), (3, 2, 1), (2, 1, 3)]:
        seq = Sequence(order=order)
        profile = compute_profile(inst, seq)
        for k in (1, 2):
            assert classify_adjacent(profile, inst, seq, k) == FCFS_CONSISTENT


def test_classify_adjacent_rejects_foreign_profile(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    other = Sequence(order=(5, 4, 3, 2, 1))
    profile = compute_profile(reference, seq)
    with pytest.raises(EngineInvariantError):
        for k in range(1, 5):
            classify_adjacent(profile, reference, other, k)


def test_recursion_matches_simulation_corpus():
    rng = random.Random(99)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 50))
        seq = random_sequence(rng, inst.n)
        profile = compute_profile(inst, seq)
        sim = simulate(inst.release, inst.processing, seq.order)
        assert profile.starts == sim.starts
        assert profile.completions == sim.completions
        assert profile.waits == sim.signed_waits
        assert profile.objective == sim.objective
        assert tuple(-min(0, w) for w in profile.waits) == sim.idle_before
        assert profile.objective == sum(
            s - inst.r(j) for s, j in zip(sim.starts, seq.order)
        )


def test_pair_inequalities_hold_on_corpus():
    rng = random.Random(123)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(2, 40))
        seq = random_sequence(rng, inst.n)
        profile = compute_profile(inst, seq)
        for k in range(1, inst.n):
            tag = classify_adjacent(profile, inst, seq, k)
            assert tag in (FCFS_CONSISTENT, LCFS_SWAPPED)


def test_segment_profile_head_can_wait():
    inst = Instance(n=2, release=(0, 3), processing=(4, 4))
    block = segment_profile(inst, (2, 1), entry_time=10)
    assert block.waits == (7, 14)
    assert block.starts == (10, 14)
    empty = segment_profile(inst, (), entry_time=5)
    assert empty.objective == 0 and empty.waits == ()


@given(
    st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 10**9)), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=120, deadline=None)
def test_recursion_matches_simulation_property(jobs, shuffler):
    inst = Instance(
        n=len(jobs),
        release=tuple(r for r, _ in jobs),
        processing=tuple(p for _, p in jobs),
    )
    order = list(range(1, inst.n + 1))
    shuffler.shuffle(order)
    seq = Sequence(order=tuple(order))
    profile = compute_profile(inst, seq)
    sim = simulate(inst.release, inst.processing, seq.order)
    assert profile.starts == sim.starts
    assert profile.waits == sim.signed_waits
    assert profile.objective == sim.objective


def test_generated_instances_profile_cleanly():
    rng = random.Random(3)
    for _ in range(20):
        inst = generate_instance(rng.randint(1, 25), rng.getrandbits(64))
        seq = random_sequence(rng, inst.n)
        profile = compute_profile(inst, seq)
        for pos in range(2, inst.n + 1):
            assert profile.starts[pos - 1] == max(
                inst.r(seq.job_at(pos)), profile.completions[pos - 2]
            )
        assert profile.waits[0] == 0 and profile.leader[0]
