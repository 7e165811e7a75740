from __future__ import annotations

import random

import pytest

from minwait import (
    Sequence,
    compute_profile,
    objective_delta,
    propagate_decrease,
    propagate_increase,
)
from minwait.propagation import DECREASE, INCREASE

from _sim import perturbed_starts, simulate
from conftest import random_instance, random_sequence


@pytest.fixture
def reference_profile(reference):
    return compute_profile(reference, Sequence(order=(1, 2, 3, 4, 5)))


def test_decrease_reference(reference_profile):
    trace = propagate_decrease(reference_profile, 2, 3)
    assert trace.kind == DECREASE
    assert trace.values == (3, 2, 1, 0, 0)
    assert [trace.value_at(pos) for pos in range(2, 7)] == [3, 2, 1, 0, 0]


def test_decrease_zero_injection(reference_profile):
    for j in range(1, 6):
        assert propagate_decrease(reference_profile, j, 0).values == tuple(
            0 for _ in range(7 - j)
        )


def test_decrease_absorbed_by_leader(reference_profile):
    # position 4 is a leader (w=-8): anything injected at position 3 dies there
    trace = propagate_decrease(reference_profile, 3, 100)
    assert trace.value_at(4) == 1  # capped by w_3 = 1
    assert trace.value_at(5) == 0
    assert trace.value_at(6) == 0


def test_increase_reference(reference_profile):
    assert propagate_increase(reference_profile, 4, 5).values == (5, 0, 0)
    assert propagate_increase(reference_profile, 4, 10).values == (10, 2, 2)


def test_increase_zero_injection(reference_profile):
    assert propagate_increase(reference_profile, 1, 0).values == (0,) * 6


def test_objective_delta_reference(reference_profile):
    rise = propagate_increase(reference_profile, 4, 10)
    assert objective_delta(rise) == 4
    drop = propagate_decrease(reference_profile, 2, 3)
    assert objective_delta(drop) == -3
    assert objective_delta(propagate_increase(reference_profile, 1, 0)) == 0


def test_decrease_matches_perturbed_simulation():
    rng = random.Random(77)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(1, 30))
        seq = random_sequence(rng, inst.n)
        profile = compute_profile(inst, seq)
        j = rng.randint(1, inst.n)
        delta = rng.randint(0, 60)
        trace = propagate_decrease(profile, j, delta)
        new_start = inst.r(seq.job_at(j)) + max(0, profile.wait_at(j) - delta)
        sim = perturbed_starts(inst.release, inst.processing, seq.order, j, new_start)
        for pos in range(j, inst.n + 1):
            old_trunc = max(0, profile.wait_at(pos))
            new_trunc = sim.starts[pos - 1] - inst.r(seq.job_at(pos))
            assert old_trunc - new_trunc == trace.value_at(pos + 1)
        assert sim.objective - profile.objective == objective_delta(trace)


def test_increase_matches_perturbed_simulation():
    rng = random.Random(78)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(1, 30))
        seq = random_sequence(rng, inst.n)
        profile = compute_profile(inst, seq)
        j = rng.randint(1, inst.n)
        delta = rng.randint(0, 60)
        trace = propagate_increase(profile, j, delta)
        new_start = inst.r(seq.job_at(j)) + max(0, profile.wait_at(j) + delta)
        sim = perturbed_starts(inst.release, inst.processing, seq.order, j, new_start)
        for pos in range(j, inst.n + 1):
            old_trunc = max(0, profile.wait_at(pos))
            new_trunc = sim.starts[pos - 1] - inst.r(seq.job_at(pos))
            assert new_trunc - old_trunc == trace.value_at(pos + 1)
        assert sim.objective - profile.objective == objective_delta(trace)


def test_monotonicity_properties():
    rng = random.Random(79)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 25))
        seq = random_sequence(rng, inst.n)
        profile = compute_profile(inst, seq)
        j = rng.randint(1, inst.n)
        delta = rng.randint(0, 40)
        drop = propagate_decrease(profile, j, delta).values
        assert all(a >= b for a, b in zip(drop, drop[1:]))
        rise = propagate_increase(profile, j, delta)
        for pos in range(j, inst.n + 1):
            if profile.wait_at(pos) > 0:
                assert rise.value_at(pos + 1) == rise.value_at(pos)
            assert rise.value_at(pos + 1) <= delta


def test_injection_validation(reference_profile):
    with pytest.raises(ValueError):
        propagate_decrease(reference_profile, 0, 1)
    with pytest.raises(ValueError):
        propagate_increase(reference_profile, 6, 1)
    with pytest.raises(ValueError):
        propagate_decrease(reference_profile, 1, -1)
    with pytest.raises(ValueError):
        reference_profile and propagate_increase(reference_profile, 1, 1).value_at(8)
