from __future__ import annotations

import itertools
import random

import pytest

from minwait import (
    Instance,
    Sequence,
    auto_big_m,
    branch_and_bound_optimum,
    brute_force_optimum,
    compute_profile,
    export_milp,
    generate_instance,
    srpt_waiting_bound,
)

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
        plain = branch_and_bound_optimum(inst, dominance=False)
        assert plain.proved_optimal and plain.objective == brute.objective


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
    assert auto_big_m(reference) == 24 + 23 == 47
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
