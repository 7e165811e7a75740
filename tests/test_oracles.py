from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minwait import (
    Instance,
    Sequence,
    bench_instance,
    branch_and_bound_optimum,
    brute_force_optimum,
    compute_profile,
    export_milp,
    generate_instance,
)
from minwait.oracles import _srpt_bound, srpt_waiting_bound

from conftest import random_instance


def test_brute_force_reference(reference):
    result = brute_force_optimum(reference)
    assert result.objective == 4
    assert result.proved_optimal
    assert compute_profile(reference, result.sequence).objective == 4


def test_brute_force_spt_closed_form():
    inst = Instance(n=3, release=(0, 0, 0), processing=(3, 1, 2))
    result = brute_force_optimum(inst)
    assert result.objective == 4
    assert result.sequence.order == (2, 3, 1)


def test_brute_force_single_job():
    inst = Instance(n=1, release=(4,), processing=(2,))
    assert brute_force_optimum(inst).objective == 0


def test_brute_force_size_guard():
    inst = generate_instance(12, 1)
    with pytest.raises(ValueError):
        brute_force_optimum(inst)


def test_branch_and_bound_matches_brute_force():
    rng = random.Random(61)
    for index in range(100):
        inst = generate_instance(9, rng.getrandbits(64))
        brute = brute_force_optimum(inst)
        bnb = branch_and_bound_optimum(inst)
        assert bnb.proved_optimal
        assert bnb.objective == brute.objective, (inst, index)


def test_branch_and_bound_proves_sixteen_jobs():
    rng = random.Random(62)
    for _ in range(5):
        inst = generate_instance(16, rng.getrandbits(64))
        result = branch_and_bound_optimum(inst)
        assert result.proved_optimal
        assert result.objective == compute_profile(inst, result.sequence).objective


def test_branch_and_bound_single_job():
    inst = Instance(n=1, release=(0,), processing=(3,))
    result = branch_and_bound_optimum(inst)
    assert result.objective == 0
    assert result.nodes_explored == 1


def test_branch_and_bound_respects_limits():
    inst = generate_instance(12, 99)
    limited = branch_and_bound_optimum(inst, node_limit=3)
    assert not limited.proved_optimal
    # the incumbent is still a real schedule
    assert limited.objective == compute_profile(inst, limited.sequence).objective
    timed = branch_and_bound_optimum(inst, time_limit_ms=0)
    assert not timed.proved_optimal


def test_bound_is_admissible_on_sampled_nodes():
    # 1000 random prefixes: the bound never exceeds the best exhaustive
    # completion of the remaining jobs
    rng = random.Random(63)
    for _ in range(1000):
        n = rng.randint(2, 9)
        inst = random_instance(rng, n)
        depth = rng.randint(0, n - 1)
        prefix = rng.sample(range(1, n + 1), depth)
        free_at = 0
        for job in prefix:
            free_at = max(free_at, inst.r(job)) + inst.p(job)
        remaining = tuple(j for j in range(1, n + 1) if j not in prefix)
        suffix = remaining[: min(len(remaining), 6)]
        # evaluate the bound on a sub-problem small enough to enumerate
        bound = srpt_waiting_bound(inst, suffix, free_at)
        best = min(
            _suffix_waiting(inst, perm, free_at)
            for perm in itertools.permutations(suffix)
        )
        assert bound <= best


def _suffix_waiting(inst, order, free_at):
    total = 0
    for job in order:
        start = max(free_at, inst.r(job))
        total += start - inst.r(job)
        free_at = start + inst.p(job)
    return total


def test_branch_and_bound_deep_search_has_no_recursion_limit():
    # the first dive of this search runs about 1,200 jobs deep, past
    # Python's default recursion limit of 1,000
    inst = generate_instance(1200, 5)
    limited = branch_and_bound_optimum(inst, node_limit=1500)
    assert limited.nodes_explored == 1500
    timed = branch_and_bound_optimum(inst, time_limit_ms=500)
    for result in (limited, timed):
        assert not result.proved_optimal
        assert sorted(result.sequence.order) == list(range(1, 1201))
        assert result.objective == compute_profile(inst, result.sequence).objective


# bench_instance(20250816, 30, index) proofs: (index, objective, order,
# nodes explored). The node counts pin the search's visit order and pruning,
# dominance filter included, not only its result.
PINNED_PROOFS = [
    (0, 5580, (28, 23, 17, 19, 15, 5, 26, 14, 27, 11, 7, 1, 9, 29, 4, 22, 21, 6, 24, 12, 3, 16, 13, 10, 2, 25, 30, 8, 18, 20), 1316),
    (1, 5696, (29, 28, 18, 6, 19, 2, 23, 22, 5, 26, 11, 14, 27, 15, 3, 21, 30, 10, 20, 24, 13, 1, 12, 8, 17, 9, 7, 25, 16, 4), 1419),
    (2, 5478, (15, 26, 1, 25, 20, 19, 23, 9, 7, 30, 18, 8, 24, 4, 28, 14, 17, 13, 16, 12, 22, 21, 27, 10, 29, 2, 3, 5, 6, 11), 323),
    (3, 5312, (19, 22, 10, 25, 16, 23, 27, 14, 30, 21, 24, 18, 17, 3, 26, 7, 2, 11, 29, 1, 13, 28, 8, 15, 20, 6, 9, 4, 5, 12), 574),
    (4, 6132, (1, 11, 3, 18, 20, 13, 4, 16, 26, 15, 28, 6, 29, 30, 2, 17, 10, 23, 24, 21, 25, 5, 27, 7, 12, 14, 22, 8, 9, 19), 836),
    (5, 5494, (25, 19, 7, 27, 21, 6, 3, 11, 28, 20, 22, 2, 12, 30, 10, 17, 9, 14, 8, 15, 5, 23, 4, 18, 13, 24, 16, 26, 1, 29), 1980),
    (6, 6453, (14, 9, 20, 2, 23, 18, 22, 10, 29, 12, 21, 19, 5, 13, 25, 6, 7, 24, 30, 1, 28, 17, 15, 11, 4, 16, 26, 3, 8, 27), 1241),
    (7, 4833, (9, 4, 20, 2, 10, 24, 21, 12, 16, 29, 30, 28, 7, 18, 5, 15, 22, 23, 26, 8, 27, 19, 1, 17, 3, 13, 6, 25, 14, 11), 1002),
    (8, 3977, (2, 30, 14, 21, 12, 19, 15, 28, 9, 8, 7, 10, 13, 26, 17, 4, 18, 5, 16, 24, 29, 3, 11, 22, 23, 1, 25, 27, 6, 20), 3118),
    (9, 4011, (7, 2, 25, 17, 9, 20, 1, 5, 16, 12, 10, 30, 6, 24, 21, 27, 4, 23, 22, 26, 19, 28, 13, 29, 3, 18, 8, 15, 14, 11), 368),
]

# node-limited runs of the same search: (index, node_limit, objective, order)
PINNED_LIMITED = [
    (0, 40, 5594, (28, 13, 19, 23, 5, 26, 14, 27, 17, 7, 11, 4, 9, 22, 29, 21, 15, 1, 6, 24, 12, 3, 16, 10, 2, 25, 30, 8, 18, 20)),
    (1, 40, 5810, (16, 28, 18, 19, 6, 5, 2, 22, 23, 26, 11, 14, 27, 15, 3, 21, 30, 10, 20, 24, 13, 1, 12, 29, 8, 17, 9, 7, 25, 4)),
    (0, 400, 5593, (28, 13, 19, 23, 5, 26, 14, 27, 15, 7, 11, 9, 4, 29, 17, 22, 21, 1, 6, 24, 12, 3, 16, 10, 2, 25, 30, 8, 18, 20)),
    (1, 400, 5805, (16, 28, 18, 19, 6, 5, 2, 22, 23, 26, 14, 27, 11, 15, 3, 21, 30, 10, 20, 24, 13, 1, 12, 29, 8, 17, 9, 7, 25, 4)),
]


# Each case id ends with the nodes the same search explored without the
# dominance filter, measured while the filter could still be switched off:
# the ids show what the filter saves and keep each case's name.
PINNED_PROOF_IDS = [
    f"{index}-{objective}-order{index}-{nodes}-{plain_nodes}"
    for (index, objective, _, nodes), plain_nodes in zip(
        PINNED_PROOFS, (1979, 2140, 542, 893, 1284, 2972, 1632, 2121, 6374, 674)
    )
]


@pytest.mark.parametrize("index, objective, order, nodes", PINNED_PROOFS, ids=PINNED_PROOF_IDS)
def test_branch_and_bound_pinned_proofs(index, objective, order, nodes):
    result = branch_and_bound_optimum(bench_instance(20250816, 30, index))
    assert result.proved_optimal
    assert (result.objective, result.sequence.order, result.nodes_explored) == (
        objective,
        order,
        nodes,
    )


@pytest.mark.parametrize("index, limit, objective, order", PINNED_LIMITED)
def test_branch_and_bound_pinned_limited_runs(index, limit, objective, order):
    result = branch_and_bound_optimum(bench_instance(20250816, 30, index), node_limit=limit)
    assert not result.proved_optimal
    assert (result.objective, result.sequence.order, result.nodes_explored) == (
        objective,
        order,
        limit,
    )


def _srpt_reference(inst, jobs, start_time):
    """SRPT by direct simulation: run the released job with the least remaining
    time (then the lowest id) until it ends or the next job is released."""
    left = {job: inst.p(job) for job in jobs}
    t = start_time
    total = 0
    while left:
        ready = [job for job in left if inst.r(job) <= t]
        arrivals = [inst.r(job) for job in left if inst.r(job) > t]
        if not ready:
            t = min(arrivals)
            continue
        job = min(ready, key=lambda j: (left[j], j))
        run = left[job] if not arrivals else min(left[job], min(arrivals) - t)
        t += run
        left[job] -= run
        if not left[job]:
            del left[job]
            total += t - inst.r(job) - inst.p(job)
    return total


def _kernel(inst, jobs, start_time):
    by_release = sorted(jobs, key=lambda j: (inst.r(j), j))
    return _srpt_bound((0, *inst.release), (0, *inst.processing), by_release, start_time)


@st.composite
def job_sets(draw):
    """(instance, jobs in any order, start time): equal releases or equal
    processing times in some draws, integers around 1e12 in others."""
    n = draw(st.integers(1, 9))
    base = draw(st.sampled_from([0, 10**12]))
    spread = draw(st.sampled_from([0, 5, 60, 3 * 10**12]))
    longest = draw(st.sampled_from([1, 3, 30, 10**12]))
    release = tuple(base + draw(st.integers(0, spread)) for _ in range(n))
    processing = tuple(draw(st.integers(1, longest)) for _ in range(n))
    jobs = draw(st.lists(st.integers(1, n), unique=True))
    start_time = draw(st.sampled_from([0, min(release), max(release)])) + draw(
        st.integers(0, longest)
    )
    return Instance(n=n, release=release, processing=processing), jobs, start_time


@given(job_sets())
@settings(max_examples=300, deadline=None)
def test_bound_kernel_matches_simulation(case):
    inst, jobs, start_time = case
    expected = _srpt_reference(inst, jobs, start_time)
    assert _kernel(inst, jobs, start_time) == expected
    assert srpt_waiting_bound(inst, tuple(jobs), start_time) == expected


def test_bound_kernel_edge_cases():
    big = 10**12
    cases = [
        # empty set
        (Instance(n=2, release=(10, 20), processing=(5, 5)), [], 0),
        # none released at the start
        (Instance(n=3, release=(40, 10, 25), processing=(9, 30, 2)), [1, 2, 3], 0),
        # all released at the start: plain shortest-first from the start time
        (Instance(n=4, release=(0, 3, 1, 2), processing=(8, 2, 5, 2)), [4, 1, 3, 2], 50),
        # equal releases
        (Instance(n=4, release=(7, 7, 7, 7), processing=(6, 1, 4, 4)), [3, 1, 4, 2], 0),
        # equal processing times, staggered releases
        (Instance(n=5, release=(0, 2, 2, 9, 4), processing=(3, 3, 3, 3, 3)), [5, 4, 3, 2, 1], 1),
        # integers around 1e12, with preemption at a release
        (
            Instance(n=3, release=(big, big + 5, big + 7), processing=(big, 3, big - 1)),
            [2, 3, 1],
            big + 1,
        ),
    ]
    for inst, jobs, start_time in cases:
        expected = _srpt_reference(inst, jobs, start_time)
        assert _kernel(inst, jobs, start_time) == expected, inst
        assert srpt_waiting_bound(inst, tuple(jobs), start_time) == expected, inst
    # all released at 50, shortest first: 2 and 2 end at 52 and 54, 5 at 59, 8 at 67
    assert _kernel(*cases[2]) == (52 - 3 - 2) + (54 - 2 - 2) + (59 - 1 - 5) + (67 - 0 - 8)


def test_bound_zero_cases():
    inst = Instance(n=2, release=(10, 20), processing=(5, 5))
    assert srpt_waiting_bound(inst, (), 0) == 0
    assert srpt_waiting_bound(inst, (1, 2), 0) == 0
    # machine busy until 30: job 1 waits 20, job 2 waits 15 under SRPT
    assert srpt_waiting_bound(inst, (1, 2), 30) == 35


def test_export_two_jobs_structure():
    inst = Instance(n=2, release=(3, 0), processing=(4, 6))
    text = export_milp(inst)
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert sum(1 for l in lines if l.strip().startswith("prec_")) == 2
    assert sum(1 for l in lines if l.strip().startswith("x_")) == 1
    bounds = [l for l in lines if l.strip().startswith("S_")]
    assert bounds == [" S_1 >= 3", " S_2 >= 0"]
    assert lines[-1] == "End"
    assert text.endswith("\n") and "\r" not in text


def test_export_counts_scale():
    inst = generate_instance(5, 3)
    text = export_milp(inst)
    pairs = 5 * 4 // 2
    assert sum(1 for l in text.splitlines() if l.strip().startswith("prec_")) == 2 * pairs
    binaries = text.split("Binaries\n")[1]
    assert sum(1 for l in binaries.splitlines() if l.strip().startswith("x_")) == pairs


def test_export_big_m(reference):
    text = export_milp(reference)
    assert " prec_1_2_a: S_1 - S_2 + 47 x_1_2 <= 42" in text
    explicit = export_milp(reference, big_m=500)
    assert "500 x_1_2" in explicit


def test_export_deterministic(reference):
    assert export_milp(reference) == export_milp(reference)
    rng = random.Random(64)
    inst = generate_instance(7, rng.getrandbits(64))
    assert export_milp(inst) == export_milp(inst)


def _linear_terms(tokens: list[str]) -> dict[str, int]:
    """Coefficient of each variable in an LP-format expression such as 'S_1 - 47 x_1_2'."""
    terms: dict[str, int] = {}
    sign, scale = 1, 1
    for token in tokens:
        if token in ("+", "-"):
            sign = -1 if token == "-" else 1
        elif token.lstrip("-").isdigit():
            scale = int(token)
        else:
            terms[token] = terms.get(token, 0) + sign * scale
            sign, scale = 1, 1
    return terms


def solve_lp_text(text: str) -> float:
    """Parse the text export_milp writes and solve it with scipy's MILP solver (HiGHS)."""
    optimize = pytest.importorskip("scipy.optimize")
    objective: dict[str, int] = {}
    rows: list[tuple[dict[str, int], str, int]] = []
    lower: dict[str, int] = {}
    binaries: list[str] = []
    section = None
    for line in text.splitlines():
        if line in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = line
            continue
        tokens = line.split()
        if section == "Minimize":
            objective = _linear_terms(tokens[1:])
        elif section == "Subject To":
            rows.append((_linear_terms(tokens[1:-2]), tokens[-2], int(tokens[-1])))
        elif section == "Bounds":
            assert tokens[1] == ">="
            lower[tokens[0]] = int(tokens[2])
        elif section == "Binaries":
            binaries.append(tokens[0])
    names = sorted({name for terms, _, _ in rows for name in terms} | set(objective))
    column = {name: j for j, name in enumerate(names)}
    cost = [objective.get(name, 0) for name in names]
    matrix = [[terms.get(name, 0) for name in names] for terms, _, _ in rows]
    row_lower = [rhs if sense == ">=" else -float("inf") for _, sense, rhs in rows]
    row_upper = [rhs if sense == "<=" else float("inf") for _, sense, rhs in rows]
    var_lower = [lower.get(name, 0) for name in names]
    var_upper = [1 if name in binaries else float("inf") for name in names]
    integrality = [0] * len(names)
    for name in binaries:
        integrality[column[name]] = 1
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix, row_lower, row_upper),
        integrality=integrality,
        bounds=optimize.Bounds(var_lower, var_upper),
    )
    assert result.success, result.message
    return result.fun


def test_export_round_trip_reference(reference):
    assert solve_lp_text(export_milp(reference)) == pytest.approx(4, abs=1e-6)


def test_export_round_trip_matches_brute_force():
    rng = random.Random(65)
    for n in (2, 3, 4, 5, 6, 6):
        # releases within a few processing times, so most optima are nonzero
        inst = Instance(
            n=n,
            release=tuple(rng.randint(0, 40) for _ in range(n)),
            processing=tuple(rng.randint(1, 20) for _ in range(n)),
        )
        optimum = brute_force_optimum(inst).objective
        assert solve_lp_text(export_milp(inst)) == pytest.approx(optimum, abs=1e-6), inst
