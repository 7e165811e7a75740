from __future__ import annotations

import itertools
import random

import pytest

from minwait import (
    Instance,
    Sequence,
    brute_force_optimum,
    compute_profile,
    generate_instance,
    initial_sequence,
    optimal_sort,
)
from minwait.driver import backward_traversal, consumption_operator

from conftest import random_instance


def brute_objective(inst):
    return min(
        compute_profile(inst, Sequence(order=perm)).objective
        for perm in itertools.permutations(range(1, inst.n + 1))
    )


def test_solve_reference(reference):
    result = optimal_sort(reference)
    assert result.best_objective == 4
    assert result.best_sequence.order == (1, 2, 3, 4, 5)
    assert not result.safety_tripped
    # exhaustive confirmation over all 120 orders
    assert brute_objective(reference) == 4


def test_solve_single_job():
    inst = Instance(n=1, release=(5,), processing=(9,))
    result = optimal_sort(inst)
    assert result.best_objective == 0
    assert result.iterations == 1
    assert result.move_log == ()


def test_solve_equal_releases_yields_spt():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 9)
        inst = Instance(
            n=n,
            release=(0,) * n,
            processing=tuple(rng.randint(1, 50) for _ in range(n)),
        )
        result = optimal_sort(inst)
        lengths = [inst.p(j) for j in result.best_sequence.order]
        assert lengths == sorted(lengths)
        sorted_p = sorted(inst.processing)
        closed_form = sum((n - pos) * p for pos, p in enumerate(sorted_p, start=1))
        assert result.best_objective == closed_form


def test_consumption_identity_on_optimal(reference):
    seq = initial_sequence(reference)
    assert consumption_operator(seq, reference).order == seq.order


def test_consumption_finds_small_optimum():
    inst = Instance(n=3, release=(0, 1, 2), processing=(2, 5, 3))
    out = consumption_operator(Sequence(order=(1, 2, 3)), inst)
    assert out.order == (1, 3, 2)
    assert compute_profile(inst, out).objective == 4 == brute_objective(inst)


def test_consumption_single_job():
    inst = Instance(n=1, release=(0,), processing=(1,))
    seq = Sequence(order=(1,))
    assert consumption_operator(seq, inst) == seq


def test_backward_traversal_identity_on_optimal(reference):
    seq = initial_sequence(reference)
    assert backward_traversal(seq, reference).order == seq.order


def test_backward_traversal_recovers_parked_long_job():
    # a long job parked at the back; pulling it forward again is the only
    # path to the optimum, which exhaustive search pins at 58
    inst = Instance(
        n=8,
        release=(40, 195, 18, 35, 158, 158, 113, 32),
        processing=(9, 1, 1, 14, 50, 14, 11, 11),
    )
    parked = Sequence(order=(3, 8, 4, 1, 7, 6, 2, 5))
    assert compute_profile(inst, parked).objective == 63
    out = backward_traversal(parked, inst)
    assert compute_profile(inst, out).objective == 58
    assert brute_force_optimum(inst).objective == 58


def test_backward_traversal_two_jobs_matches_enumeration():
    rng = random.Random(18)
    for _ in range(20):
        inst = random_instance(rng, 2)
        for order in [(1, 2), (2, 1)]:
            seq = Sequence(order=order)
            out = backward_traversal(seq, inst)
            best = brute_objective(inst)
            start = compute_profile(inst, seq).objective
            got = compute_profile(inst, out).objective
            assert got <= start
            # a single backward step is the whole neighborhood at n=2
            if start > best:
                assert got == best


def test_solver_matches_brute_force_small():
    rng = random.Random(19)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 7))
        result = optimal_sort(inst)
        assert result.best_objective == brute_objective(inst)
        assert not result.safety_tripped


# A sweep of 120,000 dense and sparse n=8 inputs of the benchmark
# (seeds 1-20, indices 0-2999) found two solver misses, both dense; each is
# pinned below.


@pytest.mark.xfail(strict=True, reason="known miss: the search stops at 240, the optimum is 233")
def test_solver_known_miss_dense_n8():
    # input 643 of the benchmark's solve_dense workload at seed 12
    inst = Instance(
        n=8,
        release=(86, 101, 73, 70, 54, 128, 36, 34),
        processing=(1, 25, 44, 42, 9, 5, 45, 15),
    )
    assert brute_force_optimum(inst).objective == 233
    assert optimal_sort(inst).best_objective == 233


@pytest.mark.xfail(strict=True, reason="known miss: the search stops at 230, the optimum is 223")
def test_solver_known_miss_dense_n8_second():
    # input 1779 of the benchmark's solve_dense workload at seed 13; no
    # single relocation of the solver's final order improves it
    inst = Instance(
        n=8,
        release=(20, 32, 108, 7, 106, 82, 96, 55),
        processing=(18, 4, 5, 50, 32, 15, 49, 33),
    )
    assert brute_force_optimum(inst).objective == 223
    assert optimal_sort(inst).best_objective == 223


def test_move_log_is_strictly_improving():
    rng = random.Random(20)
    seen_logs = 0
    for _ in range(15):
        inst = generate_instance(rng.randint(5, 10), rng.getrandbits(64))
        result = optimal_sort(inst)
        start = compute_profile(inst, initial_sequence(inst)).objective
        assert all(delta < 0 for _, _, _, _, delta in result.move_log)
        assert start + sum(delta for *_, delta in result.move_log) == result.best_objective
        passes = [entry[0] for entry in result.move_log]
        assert passes == sorted(passes)
        seen_logs += bool(result.move_log)
    assert seen_logs >= 3


def test_result_objective_consistent():
    rng = random.Random(21)
    for _ in range(10):
        inst = generate_instance(rng.randint(2, 12), rng.getrandbits(64))
        result = optimal_sort(inst)
        assert result.best_objective == compute_profile(inst, result.best_sequence).objective
        assert result.iterations >= 1
        assert result.elapsed >= 0.0


def test_solver_output_is_a_fixed_point():
    rng = random.Random(22)
    for _ in range(8):
        inst = generate_instance(rng.randint(4, 10), rng.getrandbits(64))
        result = optimal_sort(inst)
        settled = result.best_sequence
        assert consumption_operator(settled, inst).order == settled.order
        assert backward_traversal(settled, inst).order == settled.order
        again = optimal_sort(inst)
        assert again.best_objective == result.best_objective
        assert again.best_sequence.order == result.best_sequence.order
