from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minwait import (
    BACKWARD,
    FORWARD,
    Instance,
    Sequence,
    apply_move,
    backward_move_delta,
    compute_profile,
    forward_move_delta,
    idle_adjustment,
    segment_profile,
)
from minwait.move_calculus import insertion_seed, relocation_handoff

from conftest import random_instance, random_sequence


@pytest.fixture
def reference_state(reference):
    seq = Sequence(order=(1, 2, 3, 4, 5))
    return reference, seq, compute_profile(reference, seq)


def test_forward_reference_values(reference_state):
    inst, seq, profile = reference_state
    ev = forward_move_delta(profile, inst, 4, 5)
    assert (ev.part_local, ev.part_flow, ev.flow_tail) == (5, 4, 0)
    assert ev.delta_total == 9
    assert ev.new_wait == 10
    # resulting order scores 13 against 4
    after = compute_profile(inst, apply_move(seq, 4, 5, FORWARD))
    assert after.objective - profile.objective == 9


def test_backward_reference_values(reference_state):
    inst, seq, profile = reference_state
    ev = backward_move_delta(profile, inst, 5, 4)
    assert (ev.part_local, ev.part_flow, ev.flow_tail) == (5, 4, 0)
    assert ev.delta_total == 9
    assert ev.new_wait == -12


def test_adjacent_swap_of_identical_jobs_is_free():
    inst = Instance(n=3, release=(0, 0, 0), processing=(5, 5, 5))
    seq = Sequence(order=(1, 2, 3))
    profile = compute_profile(inst, seq)
    ev = forward_move_delta(profile, inst, 2, 3)
    assert ev.delta_total == 0


def test_forward_backward_same_permutation_agree(reference_state):
    inst, seq, profile = reference_state
    fwd = forward_move_delta(profile, inst, 4, 5)
    bwd = backward_move_delta(profile, inst, 5, 4)
    assert apply_move(seq, 4, 5, FORWARD) == apply_move(seq, 5, 4, BACKWARD)
    assert fwd.delta_total == bwd.delta_total == 9


def _check_every_move(inst, seq):
    n = inst.n
    profile = compute_profile(inst, seq)
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            ev = forward_move_delta(profile, inst, i, k)
            moved = apply_move(seq, i, k, FORWARD)
            after = compute_profile(inst, moved)
            assert ev.delta_total == after.objective - profile.objective
            assert ev.new_wait == after.waits[k - 1]
            assert ev.delta_total == ev.part_local + ev.part_flow + ev.flow_tail
            assert relocation_handoff(profile, inst, moved, i, k) == ev.part_flow
            assert ev.part_flow == after.completions[k - 1] - profile.completions[k - 1]
        for k in range(1, i):
            ev = backward_move_delta(profile, inst, i, k)
            moved = apply_move(seq, i, k, BACKWARD)
            after = compute_profile(inst, moved)
            assert ev.delta_total == after.objective - profile.objective
            assert ev.new_wait == after.waits[k - 1]
            assert ev.delta_total == ev.part_local + ev.part_flow + ev.flow_tail
            assert relocation_handoff(profile, inst, moved, i, k) == ev.part_flow
            assert ev.part_flow == after.completions[i - 1] - profile.completions[i - 1]


def test_gold_invariant_exhaustive_random():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 8)
        _check_every_move(random_instance(rng, n), random_sequence(rng, n))
    # crowded queues (releases packed near 0, the machine rarely idles) and
    # idle-rich ones (releases spread far beyond the total processing time)
    for spread, count in ((5, 20), (150, 20)):
        for _ in range(count):
            n = rng.randint(2, 8)
            inst = Instance(
                n=n,
                release=tuple(rng.randint(0, spread * n) for _ in range(n)),
                processing=tuple(rng.randint(1, 50) for _ in range(n)),
            )
            _check_every_move(inst, random_sequence(rng, n))


def test_adjacent_moves_mirror():
    rng = random.Random(405)
    for _ in range(40):
        n = rng.randint(2, 10)
        inst = random_instance(rng, n)
        seq = random_sequence(rng, n)
        profile = compute_profile(inst, seq)
        i = rng.randint(1, n - 1)
        fwd = forward_move_delta(profile, inst, i, i + 1)
        bwd = backward_move_delta(profile, inst, i + 1, i)
        assert fwd.delta_total == bwd.delta_total


def test_apply_move_examples():
    seq = Sequence(order=(1, 2, 3, 4, 5))
    assert apply_move(seq, 4, 5, FORWARD).order == (1, 2, 3, 5, 4)
    assert apply_move(seq, 5, 4, BACKWARD).order == (1, 2, 3, 5, 4)
    assert apply_move(seq, 1, 3, FORWARD).order == (2, 3, 1, 4, 5)
    assert apply_move(seq, 4, 2, BACKWARD).order == (1, 4, 2, 3, 5)
    with pytest.raises(ValueError):
        apply_move(seq, 3, 3, FORWARD)
    with pytest.raises(ValueError):
        apply_move(seq, 2, 4, BACKWARD)
    with pytest.raises(ValueError):
        apply_move(seq, 1, 2, "sideways")


@given(st.integers(2, 10), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_move_inverse(n, data):
    seq = Sequence(order=tuple(range(1, n + 1)))
    i = data.draw(st.integers(1, n - 1))
    k = data.draw(st.integers(i + 1, n))
    there = apply_move(seq, i, k, FORWARD)
    # the mover landed on position k; pulling it back before old position i
    # (now holding the job that followed it) restores the original order
    back = apply_move(there, k, i, BACKWARD)
    assert back.order == seq.order


def two_sum_seed(profile, inst, i, k):
    """insertion_seed for k >= 2 in its block-sum form: processing and idle over k..i-1."""
    mover = profile.job_at(i)
    block_processing = sum(inst.p(profile.job_at(j)) for j in range(k, i))
    block_idle = sum(min(0, profile.wait_at(j)) for j in range(k, i))
    return max(
        inst.p(mover), block_processing + inst.p(mover) - block_idle - profile.wait_at(i)
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_insertion_seed_is_the_displaced_jobs_wait_rise(data):
    n = data.draw(st.integers(3, 9), label="n")
    offset, unit = data.draw(st.sampled_from([(0, 1), (10**12, 1), (10**12, 10**10)]))
    release = data.draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    processing = data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    inst = Instance(
        n=n,
        release=tuple(offset + r * unit for r in release),
        processing=tuple(p * unit for p in processing),
    )
    seq = Sequence(order=tuple(data.draw(st.permutations(range(1, n + 1)), label="order")))
    if data.draw(st.booleans(), label="segment"):
        entry = offset + data.draw(st.integers(0, 400)) * unit
        profile = segment_profile(inst, seq.order, entry)
    else:
        entry = None
        profile = compute_profile(inst, seq)
    i = data.draw(st.integers(3, n), label="i")
    k = data.draw(st.integers(2, i - 1), label="k")
    moved = apply_move(seq, i, k, BACKWARD)
    after = (
        compute_profile(inst, moved) if entry is None else segment_profile(inst, moved.order, entry)
    )
    seed = insertion_seed(profile, inst, i, k)
    # the job that held position k now sits at k+1, behind the mover
    assert seed == after.wait_at(k + 1) - profile.wait_at(k)
    assert seed == two_sum_seed(profile, inst, i, k)


def test_idle_adjustment_identity(reference):
    block = segment_profile(reference, (4, 5), entry_time=12)
    assert idle_adjustment(block, block) == 0


def test_idle_adjustment_tracks_makespan():
    # re-sorting (2,1) -> (1,2) from entry 0 removes idle: job 2 waits for
    # release 6 when first, while job 1 (release 0) fills the front
    inst = Instance(n=2, release=(0, 6), processing=(3, 4))
    before = segment_profile(inst, (2, 1), entry_time=0)
    after = segment_profile(inst, (1, 2), entry_time=0)
    shift = idle_adjustment(before, after)
    assert shift == after.completions[-1] - before.completions[-1]
    assert shift == -3
    # and the reverse re-sort adds exactly that idle back
    assert idle_adjustment(after, before) == 3


def test_idle_adjustment_random_equals_makespan_change():
    rng = random.Random(406)
    for _ in range(60):
        n = rng.randint(1, 8)
        inst = random_instance(rng, n)
        entry = rng.randint(0, 300)
        first = random_sequence(rng, n).order
        second = random_sequence(rng, n).order
        before = segment_profile(inst, first, entry)
        after = segment_profile(inst, second, entry)
        assert idle_adjustment(before, after) == (
            after.completions[-1] - before.completions[-1]
        )


def test_idle_adjustment_rejects_mismatched_blocks(reference):
    a = segment_profile(reference, (1, 2), entry_time=0)
    b = segment_profile(reference, (1, 3), entry_time=0)
    with pytest.raises(ValueError):
        idle_adjustment(a, b)
    c = segment_profile(reference, (1, 2), entry_time=5)
    with pytest.raises(ValueError):
        idle_adjustment(a, c)


def test_position_validation(reference_state):
    inst, _, profile = reference_state
    with pytest.raises(ValueError):
        forward_move_delta(profile, inst, 3, 3)
    with pytest.raises(ValueError):
        backward_move_delta(profile, inst, 3, 3)
